"""Exact pair correlations and wavevector-resolved susceptibility for
square-lattice Ising models, including the fully frustrated case and
aperiodically sign-modulated columns.  The oracle and the verification
suites load scipy, so import them from isingchi.oracle and isingchi.verify.
"""

from .elliptic import (
    EllipticDomainError,
    Modulus,
    complete_elliptic_K,
    jacobi_cs,
    jacobi_elliptic,
    jacobi_sc,
    make_modulus,
)
from .couplings import (
    CouplingPair,
    RapidityLine,
    coupling_pair,
    orientation_flip,
)
from .correlations import (
    CorrelationTable,
    PrecisionExhausted,
    SeedInconsistency,
    TableRangeError,
    build_table,
    diagonal_seeds,
    dual_magnetization,
    lookup,
    next_diagonal_seeds,
    onsager_nn,
)
from .frustrated import (
    DualPair,
    EightVertexWeights,
    FrustratedModel,
    TableMismatchError,
    dual_pair,
    eight_vertex_weights,
    ff_correlation,
    gauge_sign,
    separation_class,
)
from .quasiperiodic import (
    FibonacciSpec,
    SignSequence,
    WindowRangeError,
    autocorrelation,
    fib_bit,
    fib_bits,
    metallic_alpha,
    sign_sequence,
)
from .chi import (
    ChiGrid,
    EstimationError,
    Peak,
    Wavevector,
    chi_column_gauge,
    chi_frustrated,
    chi_grid,
    chi_uniform,
    find_peaks,
    tail_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "ChiGrid",
    "CorrelationTable",
    "CouplingPair",
    "DualPair",
    "EightVertexWeights",
    "EllipticDomainError",
    "EstimationError",
    "FibonacciSpec",
    "FrustratedModel",
    "Modulus",
    "Peak",
    "PrecisionExhausted",
    "RapidityLine",
    "SeedInconsistency",
    "SignSequence",
    "TableMismatchError",
    "TableRangeError",
    "Wavevector",
    "WindowRangeError",
    "autocorrelation",
    "build_table",
    "chi_column_gauge",
    "chi_frustrated",
    "chi_grid",
    "chi_uniform",
    "complete_elliptic_K",
    "coupling_pair",
    "diagonal_seeds",
    "dual_magnetization",
    "dual_pair",
    "eight_vertex_weights",
    "ff_correlation",
    "fib_bit",
    "fib_bits",
    "find_peaks",
    "gauge_sign",
    "jacobi_cs",
    "jacobi_elliptic",
    "jacobi_sc",
    "lookup",
    "make_modulus",
    "metallic_alpha",
    "next_diagonal_seeds",
    "onsager_nn",
    "orientation_flip",
    "separation_class",
    "sign_sequence",
    "tail_estimate",
]
