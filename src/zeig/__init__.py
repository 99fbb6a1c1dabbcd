"""Z-eigenvalue inclusion regions and spectral-radius bounds for real tensors."""

from .oracle import (
    Eigenpair,
    OracleConfig,
    PairCheck,
    VerificationReport,
    verify_inclusion,
    z_eigs_newton,
    z_eigs_sweep_n2,
)
from .regions import (
    BoundReport,
    RowAggregates,
    bound_omega_max,
    compare_report,
    region_K,
    region_M,
    region_Omega,
)
from .tensor import (
    DEFAULT_STRUCT_TOL,
    DenseTensor,
    TensorFormatError,
    parse_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DenseTensor",
    "DEFAULT_STRUCT_TOL",
    "Eigenpair",
    "OracleConfig",
    "PairCheck",
    "RowAggregates",
    "TensorFormatError",
    "VerificationReport",
    "bound_omega_max",
    "compare_report",
    "parse_tensor",
    "region_K",
    "region_M",
    "region_Omega",
    "verify_inclusion",
    "z_eigs_newton",
    "z_eigs_sweep_n2",
]
