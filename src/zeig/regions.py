"""Eigenvalue inclusion regions on the radius axis.

Each inclusion set constrains a complex number z only through r = |z|, and
each one is a disk: its radial trace is the closed interval [0, sup], held
as the one number sup.  Three constructors build the traces of the classic
single-row disk union (K), the pairwise quadratic/box union (M) and the
tighter pairwise set (Omega), the last two from the per-pair tables
RowAggregates builds once (agg.m, agg.omega); a table's sup is
PairTable.sup, which the bounds read too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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


@dataclass(frozen=True)
class RadialRegion:
    """A region's radial trace, the closed interval [0, supremum]."""

    supremum: float

    def contains(self, r: float, tol: float = 0.0) -> bool:
        """Membership of the radius r in the disk [0, supremum + tol]."""
        return 0.0 <= r <= self.supremum + tol

    def to_csv(self) -> str:
        """CSV rendering: the header and the region's one interval, openness flags as 0/1."""
        return f"lo,hi,lo_open,hi_open\n0,{self.supremum:.17g},0,0\n"

    def to_dict(self) -> dict:
        """The ``regions --json`` document: the one closed interval and the supremum."""
        return {
            "intervals": [{"lo": 0.0, "hi": self.supremum, "lo_open": False, "hi_open": False}],
            "supremum": self.supremum,
            "empty": False,
        }


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


def region_K(agg: RowAggregates) -> RadialRegion:
    """Radial trace of the union of the n single-row disks: [0, max row sum]."""
    return RadialRegion(float(np.max(agg.row_sums)))


def region_M(agg: RowAggregates) -> RadialRegion:
    """Pairwise quadratic-plus-box union, the disk [0, max over pairs of hi].

    For every ordered pair (i, j), i != j, take the closed solution band of

        (r - (R_i - d_ij)) (r - P_j^i) <= d_ij (R_j - P_j^i)

    together with the half-open box r < min(R_i - d_ij, P_j^i), where d_ij
    is the trailing-diagonal magnitude |a[i, j, ..., j]|.  The band's top
    is its larger root, at least max(R_i - d_ij, P_j^i), and its smaller
    root is at most the box's cap, so the pair covers [0, top].
    """
    return RadialRegion(agg.m.sup)


def region_Omega(agg: RowAggregates) -> RadialRegion:
    """Pairwise partial-row-sum union; tighter than both K and M.

    For every ordered pair (i, j), i != j, take the half-open box
    r < min(P_i^j, P_j^i) together with the closed band of

        (r - P_i^j) (r - P_j^i) <= (R_i - P_i^j) (R_j - P_j^i)

    intersected with [0, R_i].  The band's top, min(R_i, larger root), is
    at least P_i^j and its smaller root at most the box's cap, so the pair
    covers [0, top] and the region is the disk [0, omega_max].
    """
    return RadialRegion(agg.omega.sup)
