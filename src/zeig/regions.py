"""Eigenvalue inclusion regions on the radius axis.

Each inclusion set constrains a complex number z only through r = |z|, and
each one is a disk: its radial trace is the closed interval [0, sup].  Three
constructors build the traces of the classic single-row disk union (K), the
pairwise quadratic/box union (M) and the tighter pairwise set (Omega), the
last two from the per-pair tables RowAggregates builds once (agg.m,
agg.omega).
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


@dataclass(frozen=True)
class RadialRegion:
    """A region's radial trace as radius intervals.

    Every region built here is the one closed interval [0, supremum].
    """

    intervals: tuple[RadialInterval, ...]

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def supremum(self) -> float:
        """Largest upper endpoint."""
        return self.intervals[-1].hi

    def contains(self, r: float, tol: float = 0.0) -> bool:
        """Membership of the radius r in the disk [0, supremum + tol]."""
        return 0.0 <= r <= self.supremum + tol

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
    half-open box [0, cap), cap = min(p, q), and the closed band of its
    quadratic (r - p)(r - q) <= c, whose top is hi; p and q are the two
    centres.  As c >= 0 the band's smaller root is at most cap, and hi is
    at least cap, so box and band join into [0, hi].
    """

    p: np.ndarray
    q: np.ndarray
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
        return _read_only(p, q, np.minimum(roots.r_plus, R[i]), np.minimum(p, q))

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
        return _read_only(p, q, roots.r_plus, np.minimum(p, q))


def _read_only(*columns: np.ndarray) -> PairTable:
    for column in columns:
        column.flags.writeable = False
    return PairTable(*columns)


def _disk(sup: float) -> RadialRegion:
    return RadialRegion((RadialInterval(0.0, float(sup)),))


def _pair_disk(table: PairTable) -> RadialRegion:
    # cap <= hi in exact arithmetic; cap stays in the max so that the
    # supremum is bound_omega_max's float whichever way hi rounds.
    return _disk(max(table.cap.max(), table.hi.max()))


def region_K(agg: RowAggregates) -> RadialRegion:
    """Radial trace of the union of the n single-row disks: [0, max row sum]."""
    return _disk(np.max(agg.row_sums))


def region_M(agg: RowAggregates) -> RadialRegion:
    """Pairwise quadratic-plus-box union, the disk [0, max over pairs of hi].

    For every ordered pair (i, j), i != j, take the closed solution band of

        (r - (R_i - d_ij)) (r - P_j^i) <= d_ij (R_j - P_j^i)

    together with the half-open box r < min(R_i - d_ij, P_j^i), where d_ij
    is the trailing-diagonal magnitude |a[i, j, ..., j]|.  The band's top
    is its larger root, at least max(R_i - d_ij, P_j^i), and its smaller
    root is at most the box's cap, so the pair covers [0, top].
    """
    return _pair_disk(agg.m)


def region_Omega(agg: RowAggregates) -> RadialRegion:
    """Pairwise partial-row-sum union; tighter than both K and M.

    For every ordered pair (i, j), i != j, take the half-open box
    r < min(P_i^j, P_j^i) together with the closed band of

        (r - P_i^j) (r - P_j^i) <= (R_i - P_i^j) (R_j - P_j^i)

    intersected with [0, R_i].  The band's top, min(R_i, larger root), is
    at least P_i^j and its smaller root at most the box's cap, so the pair
    covers [0, top] and the region is the disk [0, omega_max].
    """
    return _pair_disk(agg.omega)
