"""Eigenvalue inclusion regions on the radius axis.

Each inclusion set constrains a complex number z only through r = |z|, so
a region is represented exactly as a normalized union of intervals on
r >= 0 with per-endpoint openness flags.  Three constructors build the
radial traces of the classic single-row disk union (K), the pairwise
quadratic/box union (M) and the tighter pairwise set (Omega), the last two
from the per-pair tables RowAggregates builds once (agg.m, agg.omega).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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


def _union(lo, hi, lo_open=False, hi_open=False) -> tuple[RadialInterval, ...]:
    """Normalized union of the intervals with endpoint arrays lo and hi and
    openness flags lo_open and hi_open (a scalar flag holds for all).

    The non-empty intervals are sorted by (lo, lo_open), closed starts
    first, and each one's running end is the largest (hi, closed) among it
    and those before it.  An interval starts a new piece where its lo is past
    the running end before it, or equals that end with both ends open; a
    piece ends at the running end of its last interval.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    lo_open, hi_open = (np.broadcast_to(np.asarray(flag, dtype=bool), lo.shape) for flag in (lo_open, hi_open))
    keep = ~((lo > hi) | ((lo == hi) & (lo_open | hi_open)))
    lo, hi, lo_open, hi_open = lo[keep], hi[keep], lo_open[keep], hi_open[keep]
    if np.any(lo < 0.0):
        bad = RadialInterval(*(a[np.argmax(lo < 0.0)].item() for a in (lo, hi, lo_open, hi_open)))
        raise ValueError(f"interval extends below the radius axis: {bad}")
    order = np.lexsort((lo_open, lo))
    lo, hi, lo_open, hi_open = lo[order], hi[order], lo_open[order], hi_open[order]
    by_end = np.lexsort((~hi_open, hi))  # ascending (hi, closed)
    # argsort(by_end) ranks each interval's end; the running max of the ranks
    # names the interval holding each running end
    end = by_end[np.maximum.accumulate(np.argsort(by_end))]
    end_hi, end_open = hi[end], hi_open[end]
    start = np.ones(len(lo), dtype=bool)
    start[1:] = (lo[1:] > end_hi[:-1]) | ((lo[1:] == end_hi[:-1]) & lo_open[1:] & end_open[:-1])
    first, last = np.flatnonzero(start), np.flatnonzero(np.append(start[1:], True)[: len(lo)])
    return tuple(
        map(RadialInterval, lo[first].tolist(), end_hi[last].tolist(), lo_open[first].tolist(), end_open[last].tolist())
    )


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
        roots = solve_radial_quadratic(p, q, np.maximum(0.0, R[i] - p) * np.maximum(0.0, R[j] - q))
        return _read_only(p, q, np.maximum(0.0, roots.r_minus), np.minimum(roots.r_plus, R[i]), np.minimum(p, q))

    @functools.cached_property
    def m(self) -> PairTable:
        """M's pairs: band of (r - (R_i - d_ij))(r - P_j^i) = d_ij (R_j - P_j^i),
        box below min(R_i - d_ij, P_j^i)."""
        i, j = ordered_pairs(self.dim)
        R, P, D = self.row_sums, self.partial_sums, self.diag_abs
        d = D[i, j]
        p = np.maximum(0.0, R[i] - d)
        q = P[j, i]
        roots = solve_radial_quadratic(p, q, d * np.maximum(0.0, R[j] - q))
        return _read_only(p, q, np.maximum(0.0, roots.r_minus), roots.r_plus, np.minimum(p, q))


def _read_only(*columns: np.ndarray) -> PairTable:
    for column in columns:
        column.flags.writeable = False
    return PairTable(*columns)


def _pair_region(table: PairTable) -> RadialRegion:
    # The half-open boxes all start at 0, so their union is the widest one.
    lo, hi = np.append(table.lo, 0.0), np.append(table.hi, table.cap.max())
    return RadialRegion(_union(lo, hi, False, np.arange(lo.size) == lo.size - 1))


def region_K(agg: RowAggregates) -> RadialRegion:
    """Radial trace of the union of the n single-row disks: [0, max row sum]."""
    return RadialRegion(_union([0.0], [np.max(agg.row_sums)]))


def region_M(agg: RowAggregates) -> RadialRegion:
    """Pairwise quadratic-plus-box union.

    For every ordered pair (i, j), i != j, take the closed solution band of

        (r - (R_i - d_ij)) (r - P_j^i) <= d_ij (R_j - P_j^i)

    together with the half-open box r < min(R_i - d_ij, P_j^i), where d_ij
    is the trailing-diagonal magnitude |a[i, j, ..., j]|.
    """
    return _pair_region(agg.m)


def region_Omega(agg: RowAggregates) -> RadialRegion:
    """Pairwise partial-row-sum union; tighter than both K and M.

    For every ordered pair (i, j), i != j, take the half-open box
    r < min(P_i^j, P_j^i) together with the closed band of

        (r - P_i^j) (r - P_j^i) <= (R_i - P_i^j) (R_j - P_j^i)

    intersected with [0, R_i].
    """
    return _pair_region(agg.omega)
