"""Closed-form upper bounds on the Z-spectral radius.

The three bounds form a chain: the pairwise partial-row-sum bound
(omega_max) is at most the pairwise quadratic bound (chain_middle), which
is at most the plain maximum row sum (gershgorin).  They are read off the
same per-pair tables (agg.omega, agg.m) the regions are built from, and
omega_max is Omega's supremum, PairTable.sup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .regions import RowAggregates, ordered_pairs
from .tensor import DenseTensor

_CHAIN_SLACK = 1e-12
CHAIN_VIOLATION_WARNING = "internal error: bound chain ordering violated"


@dataclass
class BoundReport:
    """Named bound values plus structural-check warnings."""

    omega_max: float
    omega_hat_max: float
    omega_tilde_max: float
    chain_middle: float
    gershgorin: float
    attaining_pair: tuple[int, int]
    bound_applies: bool  # nonnegative and weakly symmetric: the bounds are certified
    warnings: list[str] = field(default_factory=list)

    @property
    def chain_ok(self) -> bool:
        """omega_max <= chain_middle <= gershgorin held on the computed values."""
        return CHAIN_VIOLATION_WARNING not in self.warnings

    def to_dict(self) -> dict:
        return {
            "omega_max": self.omega_max,
            "omega_hat_max": self.omega_hat_max,
            "omega_tilde_max": self.omega_tilde_max,
            "chain_middle": self.chain_middle,
            "gershgorin": self.gershgorin,
            "attaining_pair": list(self.attaining_pair),
            "warnings": list(self.warnings),
        }


def bound_omega_max(agg: RowAggregates) -> float:
    """Supremum of the Omega region in closed form: the largest box cap
    min(P_i^j, P_j^i) or band top min(R_i, delta(i, j)) over ordered pairs,
    delta being the larger root of the pair's quadratic."""
    return agg.omega.sup


def compare_report(tensor: DenseTensor, agg: RowAggregates) -> BoundReport:
    """All three bounds of the tensor with aggregates agg plus structural
    checks, as one report.

    The bound values are certified spectral-radius bounds only for weakly
    symmetric nonnegative tensors; when either check fails they are still
    computed as formal quantities and a warning is recorded.  The chain
    ordering is re-verified on the computed values; a violation would mean
    an internal defect and is flagged with a distinguished warning.
    """
    omega, m = agg.omega, agg.m
    omega_max = omega.sup
    # The first maximum: the lexicographically smallest attaining pair.
    k = int(np.argmax(np.maximum(omega.cap, omega.hi)))
    i, j = ordered_pairs(agg.dim)
    # p and q stay in: the larger root can round one ulp below max(p, q).
    middle = float(max(m.hi.max(), m.p.max(), m.q.max()))
    gersh = float(np.max(agg.row_sums))
    nonnegative, weakly_symmetric = tensor.is_nonnegative(), tensor.is_weakly_symmetric()
    warnings = []
    if not nonnegative:
        warnings.append("tensor has negative entries; bounds are formal quantities only")
    if not weakly_symmetric:
        warnings.append("tensor is not weakly symmetric; bounds are formal quantities only")
    if omega_max > middle + _CHAIN_SLACK or middle > gersh + _CHAIN_SLACK:
        warnings.append(CHAIN_VIOLATION_WARNING)
    return BoundReport(
        omega_max=omega_max,
        omega_hat_max=float(omega.cap.max()),
        omega_tilde_max=float(omega.hi.max()),
        chain_middle=middle,
        gershgorin=gersh,
        attaining_pair=(int(i[k]) + 1, int(j[k]) + 1),
        bound_applies=nonnegative and weakly_symmetric,
        warnings=warnings,
    )
