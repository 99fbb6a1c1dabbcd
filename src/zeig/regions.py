"""Eigenvalue inclusion regions on the radius axis.

Each inclusion set constrains a complex number z only through r = |z|, so
a region is represented exactly as a normalized union of intervals on
r >= 0 with per-endpoint openness flags.  Three constructors build the
radial traces of the classic single-row disk union (K), the pairwise
quadratic/box union (M) and the tighter pairwise set (Omega).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .tensor import RowAggregates


class QuadraticRootPair(NamedTuple):
    """Both real roots of (r - p)(r - q) = c, r_minus <= r_plus."""

    r_minus: float
    r_plus: float


def solve_radial_quadratic(p, q, c) -> QuadraticRootPair:
    """Roots of r^2 - (p + q) r + (p q - c) = 0 for p, q >= 0 and c >= 0.

    Works elementwise: scalars give scalar roots, arrays give arrays of
    roots.  The larger root comes from the stable + branch of the quadratic
    formula and the smaller from the product of roots divided by the
    larger, which avoids catastrophic cancellation when c ~ 0 and p ~ q.
    c == 0 short-circuits to exactly (min(p, q), max(p, q)) so that
    degenerate cases (diagonal tensors) stay exact in floating point.
    """
    p, q, c = (np.asarray(v, dtype=float) for v in (p, q, c))
    if np.any(c < 0.0):
        raise ValueError(f"product bound must be >= 0, got {c.min()} (internal invariant violated)")
    # float_power calls the C library pow, as Python's float ** does; np.square
    # rounds differently in the last bit for about 1 in 1,000 inputs, and the
    # roots are printed to the last bit.
    disc = np.sqrt(np.float_power(p - q, 2) + 4.0 * c)
    r_plus = 0.5 * ((p + q) + disc)
    exact, positive = c == 0.0, r_plus > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r_minus = np.where(exact, np.minimum(p, q), np.where(positive, (p * q - c) / r_plus, 0.0))
    r_plus = np.where(exact, np.maximum(p, q), np.where(positive, r_plus, 0.0))
    return QuadraticRootPair(r_minus[()], r_plus[()])


@dataclass(frozen=True, slots=True)
class RadialInterval:
    """One interval on the radius axis; endpoints may be open."""

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return self.lo_open or self.hi_open
        return False

    def contains(self, r: float, tol: float = 0.0) -> bool:
        if tol > 0.0:
            return self.lo - tol <= r <= self.hi + tol
        if r < self.lo or r > self.hi:
            return False
        if r == self.lo and self.lo_open:
            return False
        if r == self.hi and self.hi_open:
            return False
        return True


@dataclass(frozen=True)
class RadialRegion:
    """Normalized union of radius intervals.

    Normalization guarantees the stored intervals are non-empty, pairwise
    disjoint, sorted by lower endpoint, and merged wherever two intervals
    overlap or touch with at least one closed endpoint.  The empty region
    is the empty tuple.
    """

    intervals: tuple[RadialInterval, ...]

    @classmethod
    def from_intervals(cls, items: Iterable[RadialInterval]) -> "RadialRegion":
        kept = [iv for iv in items if not iv.is_empty()]
        for iv in kept:
            if iv.lo < 0.0:
                raise ValueError(f"interval extends below the radius axis: {iv}")
        kept.sort(key=lambda iv: (iv.lo, iv.lo_open))
        merged: list[RadialInterval] = []
        for iv in kept:
            if not merged:
                merged.append(iv)
                continue
            cur = merged[-1]
            touches = iv.lo < cur.hi or (iv.lo == cur.hi and not (iv.lo_open and cur.hi_open))
            if not touches:
                merged.append(iv)
                continue
            if iv.hi > cur.hi:
                hi, hi_open = iv.hi, iv.hi_open
            elif iv.hi < cur.hi:
                hi, hi_open = cur.hi, cur.hi_open
            else:
                hi, hi_open = cur.hi, cur.hi_open and iv.hi_open
            merged[-1] = RadialInterval(cur.lo, hi, cur.lo_open, hi_open)
        return cls(tuple(merged))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def supremum(self) -> float:
        """Largest upper endpoint; 0 by convention for the empty region."""
        if not self.intervals:
            return 0.0
        return self.intervals[-1].hi

    def contains(self, r: float, tol: float = 0.0) -> bool:
        """Membership of the radius r.

        With tol == 0 open endpoints are honored exactly; with tol > 0 the
        query tests the closure with every endpoint relaxed outward by tol.
        """
        if r < 0.0:
            raise ValueError("radius must be >= 0")
        if tol < 0.0:
            raise ValueError("tol must be >= 0")
        return any(iv.contains(r, tol) for iv in self.intervals)

    def to_csv(self) -> str:
        """CSV rendering: one row per interval, openness flags as 0/1."""
        lines = ["lo,hi,lo_open,hi_open"]
        for iv in self.intervals:
            lines.append(f"{iv.lo:.17g},{iv.hi:.17g},{int(iv.lo_open)},{int(iv.hi_open)}")
        return "\n".join(lines) + "\n"


class PairTable(NamedTuple):
    """Per-pair quantities of one pairwise inclusion set.

    Entry k belongs to the k-th ordered pair (i, j), i != j, in
    lexicographic order (see ordered_pairs).  The pair contributes the
    closed band [lo, hi] and the half-open box [0, cap); p and q are the
    two centres of its quadratic.  Empty bands (lo > hi) and boxes
    (cap == 0) contribute nothing.
    """

    p: np.ndarray
    q: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    cap: np.ndarray


def ordered_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based index arrays (i, j) of the ordered pairs i != j, lexicographic."""
    if n < 2:
        raise ValueError("pairwise sets require dim >= 2")
    return np.nonzero(~np.eye(n, dtype=bool))


def omega_band(agg: RowAggregates, i, j) -> tuple[np.ndarray, np.ndarray, QuadraticRootPair]:
    """Centres and roots of (r - P_i^j)(r - P_j^i) = (R_i - P_i^j)(R_j - P_j^i)."""
    R, P = agg.row_sums, agg.partial_sums
    p, q = P[i, j], P[j, i]
    c = np.maximum(0.0, R[i] - p) * np.maximum(0.0, R[j] - q)
    return p, q, solve_radial_quadratic(p, q, c)


def omega_table(agg: RowAggregates) -> PairTable:
    """Omega's pairs: band of the partial-row-sum quadratic clipped to [0, R_i],
    box below min(P_i^j, P_j^i)."""
    i, j = ordered_pairs(agg.dim)
    p, q, roots = omega_band(agg, i, j)
    hi = np.minimum(roots.r_plus, agg.row_sums[i])
    return PairTable(p, q, np.maximum(0.0, roots.r_minus), hi, np.minimum(p, q))


def m_table(agg: RowAggregates) -> PairTable:
    """M's pairs: band of (r - (R_i - d_ij))(r - P_j^i) = d_ij (R_j - P_j^i),
    box below min(R_i - d_ij, P_j^i)."""
    i, j = ordered_pairs(agg.dim)
    R, P, D = agg.row_sums, agg.partial_sums, agg.diag_abs
    d = D[i, j]
    p = np.maximum(0.0, R[i] - d)
    q = P[j, i]
    roots = solve_radial_quadratic(p, q, d * np.maximum(0.0, R[j] - q))
    return PairTable(p, q, np.maximum(0.0, roots.r_minus), roots.r_plus, np.minimum(p, q))


def _pair_region(table: PairTable) -> RadialRegion:
    # The half-open boxes all start at 0, so their union is the widest one.
    box = RadialInterval(0.0, float(table.cap.max()), hi_open=True)
    return RadialRegion.from_intervals([*map(RadialInterval, table.lo.tolist(), table.hi.tolist()), box])


def region_K(agg: RowAggregates) -> RadialRegion:
    """Radial trace of the union of the n single-row disks: [0, max row sum]."""
    return RadialRegion.from_intervals([RadialInterval(0.0, float(np.max(agg.row_sums)))])


def region_M(agg: RowAggregates) -> RadialRegion:
    """Pairwise quadratic-plus-box union.

    For every ordered pair (i, j), i != j, take the closed solution band of

        (r - (R_i - d_ij)) (r - P_j^i) <= d_ij (R_j - P_j^i)

    together with the half-open box r < min(R_i - d_ij, P_j^i), where d_ij
    is the trailing-diagonal magnitude |a[i, j, ..., j]|.
    """
    return _pair_region(m_table(agg))


def region_Omega(agg: RowAggregates) -> RadialRegion:
    """Pairwise partial-row-sum union; tighter than both K and M.

    For every ordered pair (i, j), i != j, take the half-open box
    r < min(P_i^j, P_j^i) together with the closed band of

        (r - P_i^j) (r - P_j^i) <= (R_i - P_i^j) (R_j - P_j^i)

    intersected with [0, R_i].
    """
    return _pair_region(omega_table(agg))
