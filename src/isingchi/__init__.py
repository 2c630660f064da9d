"""Exact pair correlations and wavevector-resolved susceptibility for
square-lattice Ising models, including the fully frustrated case and
aperiodically sign-modulated columns.  The package root re-exports every
name in the __all__ of the six modules below.  The oracle and the
verification suites load scipy, so import them from isingchi.oracle and
isingchi.verify.
"""

from . import chi, correlations, couplings, elliptic, frustrated, quasiperiodic
from .elliptic import *  # noqa: F403
from .couplings import *  # noqa: F403
from .correlations import *  # noqa: F403
from .frustrated import *  # noqa: F403
from .quasiperiodic import *  # noqa: F403
from .chi import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(name for module in (elliptic, couplings, correlations,
                                     frustrated, quasiperiodic, chi)
                 for name in module.__all__)
