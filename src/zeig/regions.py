"""Eigenvalue inclusion regions and spectral-radius bounds on the radius axis.

Each inclusion set constrains a complex number z only through r = |z|, and
each one is a disk: its radial trace is the closed interval [0, sup], so a
set is the one float sup.  region_K, region_M and region_Omega return it for
the classic single-row disk union (K), the pairwise quadratic/box union (M)
and the tighter pairwise set (Omega), the last two from the per-pair tables
RowAggregates builds once (agg.m, agg.omega).  The closed-form bounds on the
Z-spectral radius are read off the same tables and form the chain omega_max
(Omega's sup, PairTable.sup) <= chain_middle <= gershgorin (K's sup), which
compare_report re-checks on the computed values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:  # tensor.py imports this module
    from .tensor import DenseTensor

_CHAIN_SLACK = 1e-12
CHAIN_VIOLATION_WARNING = "internal error: bound chain ordering violated"


def _band_top(p, q, c):
    """Larger root of r^2 - (p + q) r + (p q - c) = 0 for p, q >= 0 and c >= 0.

    Works elementwise: scalars give a scalar root, arrays an array of roots.
    The root comes from the stable + branch of the quadratic formula.  c == 0
    short-circuits to exactly max(p, q) so that degenerate cases (diagonal
    tensors) stay exact in floating point.
    """
    p, q, c = (np.asarray(v, dtype=float) for v in (p, q, c))
    if np.any(c < 0.0):
        raise ValueError(f"product bound must be >= 0, got {c.min()} (internal invariant violated)")
    # float_power calls the C library pow, as Python's float ** does; np.square
    # rounds differently in the last bit for about 1 in 1,000 inputs, and the
    # band tops are printed to the last bit.
    top = 0.5 * ((p + q) + np.sqrt(np.float_power(p - q, 2) + 4.0 * c))
    return np.where(c == 0.0, np.maximum(p, q), top)[()]


class PairTable(NamedTuple):
    """Per-pair quantities of one pairwise inclusion set.

    Entry k belongs to the k-th ordered pair (i, j), i != j, in
    lexicographic order (see ordered_pairs).  The pair contributes the
    half-open box [0, cap), cap = min(p, q), and the closed band of its
    quadratic (r - p)(r - q) <= c, whose top is hi; p and q are the two
    centres.  As c >= 0 the band's smaller root is at most cap, and hi is
    at least cap, so box and band join into [0, hi].
    """

    p: np.ndarray
    q: np.ndarray
    hi: np.ndarray
    cap: np.ndarray

    @property
    def sup(self) -> float:
        """The set's supremum, the largest cap or band top.  cap <= hi in exact
        arithmetic; cap stays in the max so that the float does not depend on
        which way hi rounds."""
        return float(max(self.cap.max(), self.hi.max()))


def ordered_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based index arrays (i, j) of the ordered pairs i != j, lexicographic."""
    if n < 2:
        raise ValueError("pairwise sets require dim >= 2")
    return np.nonzero(~np.eye(n, dtype=bool))


@dataclass(frozen=True)
class RowAggregates:
    """Precomputed row sums, partial row sums and trailing-diagonal entries.

    All tables are 0-based and built from absolute values:

    * ``row_sums[i]`` — sum of ``|a|`` over every entry of row ``i``.
    * ``partial_sums[j, i]`` — sum over row ``j`` restricted to index
      tuples in which index ``i`` never appears (``j != i``).
    * ``diag_abs[i, j]`` — ``|a[i, j, j, ..., j]|`` (``i != j``).

    Diagonal positions of the two tables are unused and left at zero.
    Omega's and M's per-pair tables are built on first use and kept, read-only.
    """

    row_sums: np.ndarray
    partial_sums: np.ndarray
    diag_abs: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.row_sums)

    @functools.cached_property
    def omega(self) -> PairTable:
        """Omega's pairs: band of (r - P_i^j)(r - P_j^i) = (R_i - P_i^j)(R_j - P_j^i)
        clipped to [0, R_i], box below min(P_i^j, P_j^i)."""
        i, j = ordered_pairs(self.dim)
        R, P = self.row_sums, self.partial_sums
        p, q = P[i, j], P[j, i]
        top = _band_top(p, q, np.maximum(0.0, R[i] - p) * np.maximum(0.0, R[j] - q))
        return _read_only(p, q, np.minimum(top, R[i]), np.minimum(p, q))

    @functools.cached_property
    def m(self) -> PairTable:
        """M's pairs: band of (r - (R_i - d_ij))(r - P_j^i) = d_ij (R_j - P_j^i),
        box below min(R_i - d_ij, P_j^i)."""
        i, j = ordered_pairs(self.dim)
        R, P, D = self.row_sums, self.partial_sums, self.diag_abs
        d = D[i, j]
        p = np.maximum(0.0, R[i] - d)
        q = P[j, i]
        return _read_only(p, q, _band_top(p, q, d * np.maximum(0.0, R[j] - q)), np.minimum(p, q))


def _read_only(*columns: np.ndarray) -> PairTable:
    for column in columns:
        column.flags.writeable = False
    return PairTable(*columns)


def region_K(agg: RowAggregates) -> float:
    """Supremum of the union of the n single-row disks: the largest row sum."""
    return float(np.max(agg.row_sums))


def region_M(agg: RowAggregates) -> float:
    """Supremum of the pairwise quadratic-plus-box union, the largest pair top.

    For every ordered pair (i, j), i != j, take the closed solution band of

        (r - (R_i - d_ij)) (r - P_j^i) <= d_ij (R_j - P_j^i)

    together with the half-open box r < min(R_i - d_ij, P_j^i), where d_ij
    is the trailing-diagonal magnitude |a[i, j, ..., j]|.  The band's top
    is its larger root, at least max(R_i - d_ij, P_j^i), and its smaller
    root is at most the box's cap, so the pair covers [0, top].
    """
    return agg.m.sup


def region_Omega(agg: RowAggregates) -> float:
    """Supremum of the pairwise partial-row-sum union, omega_max; the set is
    tighter than both K and M.

    For every ordered pair (i, j), i != j, take the half-open box
    r < min(P_i^j, P_j^i) together with the closed band of

        (r - P_i^j) (r - P_j^i) <= (R_i - P_i^j) (R_j - P_j^i)

    intersected with [0, R_i].  The band's top, min(R_i, larger root), is
    at least P_i^j and its smaller root at most the box's cap, so the pair
    covers [0, top] and the region is the disk [0, omega_max].
    """
    return agg.omega.sup


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
    chain_ok: bool  # omega_max <= chain_middle <= gershgorin held on the computed values
    warnings: list[str] = field(default_factory=list)

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


# omega_max is Omega's supremum; the public name stays, and bench/spans.py patches it.
bound_omega_max = region_Omega


def compare_report(tensor: DenseTensor, agg: RowAggregates) -> BoundReport:
    """All three bounds of the tensor with aggregates agg plus structural
    checks, as one report.

    The bound values are certified spectral-radius bounds only for weakly
    symmetric nonnegative tensors; when either check fails they are still
    computed as formal quantities and a warning is recorded.  The chain
    ordering is re-verified on the computed values, rounded from different
    sums of the same entries, within _CHAIN_SLACK relative to gershgorin; a
    larger crossing would mean an internal defect and is flagged with a
    distinguished warning.
    """
    omega, m = agg.omega, agg.m
    omega_max = region_Omega(agg)
    # The first maximum: the lexicographically smallest attaining pair.
    k = int(np.argmax(np.maximum(omega.cap, omega.hi)))
    i, j = ordered_pairs(agg.dim)
    # p and q stay in: the larger root can round one ulp below max(p, q).
    middle = float(max(m.hi.max(), m.p.max(), m.q.max()))
    gersh = region_K(agg)
    nonnegative, weakly_symmetric = tensor.is_nonnegative(), tensor.is_weakly_symmetric()
    warnings = []
    if not nonnegative:
        warnings.append("tensor has negative entries; bounds are formal quantities only")
    if not weakly_symmetric:
        warnings.append("tensor is not weakly symmetric; bounds are formal quantities only")
    chain_ok = max(omega_max - middle, middle - gersh) <= _CHAIN_SLACK * gersh
    if not chain_ok:
        warnings.append(CHAIN_VIOLATION_WARNING)
    return BoundReport(
        omega_max=omega_max,
        omega_hat_max=float(omega.cap.max()),
        omega_tilde_max=float(omega.hi.max()),
        chain_middle=middle,
        gershgorin=gersh,
        attaining_pair=(int(i[k]) + 1, int(j[k]) + 1),
        bound_applies=nonnegative and weakly_symmetric,
        chain_ok=chain_ok,
        warnings=warnings,
    )
