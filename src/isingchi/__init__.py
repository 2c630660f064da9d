"""Exact pair correlations and wavevector-resolved susceptibility for
square-lattice Ising models, including the fully frustrated case and
aperiodically sign-modulated columns.

The package root offers every name in the __all__ of the six modules
below, but imports a module only when a name is first looked up in it,
so `import isingchi` loads no numpy.  Each module loads what it uses:
elliptic, couplings, correlations and frustrated need only the standard
library; quasiperiodic and chi add numpy.  The oracle and the
verification suites are not re-exported: import them from isingchi.oracle
and isingchi.verify.  No module loads scipy or mpmath.

The CLI follows suit (see isingchi.cli).  The records (CorrelationTable,
ChiGrid, the specs and the verify rows) are namedtuple subclasses, and no
module imports dataclasses.
"""

import importlib

__version__ = "0.1.0"

# searched in this order, so a name of the standard-library-only modules
# never imports numpy
_MODULES = ("elliptic", "couplings", "correlations", "frustrated",
            "quasiperiodic", "chi")


def _modules():
    for name in _MODULES:
        yield importlib.import_module("." + name, __name__)


def __getattr__(name):
    if name == "__all__":
        return sorted(n for module in _modules() for n in module.__all__)
    if name in _MODULES:  # isingchi.chi and the like, as submodules
        return importlib.import_module("." + name, __name__)
    for module in _modules():
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_MODULES) | set(__getattr__("__all__")))
