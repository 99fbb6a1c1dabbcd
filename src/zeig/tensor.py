"""Dense real tensors, read from JSON documents with 1-based indices.

Provides storage, parsing, the contraction with a vector, structural predicates
(nonnegativity, symmetry, weak symmetry) and the row / partial-row
aggregates that every inclusion region and spectral-radius bound is
built from.  The layout of the permutation classes of index tuples is known
here only: _canonical_classes numbers them, and _fold folds A's trailing
mean over them into the blocks that both the weak-symmetry predicate and
Newton's map (oracle._newton_map) read.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

# Entries like 1/3 are not exactly representable, so structural predicates
# compare with this relative tolerance.
DEFAULT_STRUCT_TOL = 1e-10

# Largest dim**order a document may declare: 32 MiB of float64, far above the
# desk scale the oracle is meant for.
MAX_ENTRIES = 2**22

# Largest accepted entry magnitude.  A row holds at most MAX_ENTRIES / 2 =
# 2^21 entries, so a row sum R stays below 2.1e106 and the region quadratics,
# which reach 5 R^2 < 2.2e213, stay finite.
MAX_ABS_VALUE = 1e100

# Widest intermediate of one contract() chunk, in float64 items (1 MiB).
_CONTRACT_ITEMS = 2**17

_DOCUMENT_FIELDS = {"order", "dim", "default", "entries", "values"}


class TensorFormatError(ValueError):
    """A tensor document is malformed or violates the file format."""


@dataclass(frozen=True)
class RowAggregates:
    """Precomputed row sums, partial row sums and trailing-diagonal entries.

    All tables are 0-based and built from absolute values:

    * ``row_sums[i]`` — sum of ``|a|`` over every entry of row ``i``.
    * ``partial_sums[j, i]`` — sum over row ``j`` restricted to index
      tuples in which index ``i`` never appears (``j != i``).
    * ``diag_abs[i, j]`` — ``|a[i, j, j, ..., j]|`` (``i != j``).

    Diagonal positions of the two tables are unused and left at zero.
    """

    row_sums: np.ndarray
    partial_sums: np.ndarray
    diag_abs: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.row_sums)


class DenseTensor:
    """Order-m, dimension-n real tensor with dense row-major storage.

    The backing array ``data`` has shape ``(n,) * m`` in C order, so its
    flat layout varies the last index fastest, as a document's ``values``
    do.  Instances are immutable; all methods are pure functions of the data.
    """

    __slots__ = ("data",)

    def __init__(self, data, copy: bool = True):
        arr = np.array(data, dtype=float, copy=copy)
        if arr.ndim < 2:
            raise ValueError(f"tensor order must be >= 2, got {arr.ndim}")
        n = arr.shape[0]
        if n < 2:
            raise ValueError(f"tensor dimension must be >= 2, got {n}")
        if any(s != n for s in arr.shape):
            raise ValueError(f"all axes must have the same length, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        arr.flags.writeable = False
        self.data = arr

    # -- structure ---------------------------------------------------------

    @property
    def order(self) -> int:
        return self.data.ndim

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        return f"DenseTensor(order={self.order}, dim={self.dim})"

    # -- aggregates --------------------------------------------------------

    def aggregates(self) -> RowAggregates:
        """All row sums, partial row sums and trailing-diagonal magnitudes."""
        n, m = self.dim, self.order
        absdata = np.abs(self.data)
        row_sums = absdata.reshape(n, -1).sum(axis=1)
        # Contracting every slot with 1 - e_i keeps exactly the tuples avoiding i.
        partial = contract(absdata, 1.0 - np.eye(n)).T
        index = np.arange(n)
        diag = absdata[(index[:, None],) + (index,) * (m - 1)]
        partial[index, index] = diag[index, index] = 0.0
        for arr in (row_sums, partial, diag):
            arr.flags.writeable = False
        return RowAggregates(row_sums, partial, diag)

    # -- polynomial action -------------------------------------------------

    def apply(self, x) -> np.ndarray:
        """The vector whose i-th component contracts row i with x in every slot."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"vector must have length {self.dim}, got shape {x.shape}")
        return contract(self.data, x[None])[0]

    # -- structural predicates ----------------------------------------------

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.data >= 0.0))

    def is_symmetric(self) -> bool:
        """True when entries agree across every permutation of their indices.

        Entries in each permutation class must match within DEFAULT_STRUCT_TOL
        relative to the largest magnitude in the class (absolute for all-zero
        classes).
        """
        classes = _canonical_classes(self.order, self.dim)
        values = self.data.reshape(-1)
        # A class's id is the flat index of its sorted tuple, a member: the class's representative.
        reps = np.flatnonzero(classes == np.arange(classes.size))
        hi = np.full(values.size, -np.inf)
        lo = np.full(values.size, np.inf)
        np.maximum.at(hi, classes, values)
        np.minimum.at(lo, classes, values)
        hi, lo = hi[reps], lo[reps]
        return not np.any(hi - lo > _limit(np.maximum(np.abs(lo), np.abs(hi))))

    def is_weakly_symmetric(self) -> bool:
        """True when the gradient of the degree-m form equals m times apply().

        That holds iff x -> A x^{m-1} is a gradient map, so iff its Jacobian
        (m - 1) T x^{m-2} is symmetric for every x, T the trailing mean of
        A (see _fold).  The monomials x^U are independent, so that is: every
        n x n block of the fold equals its transpose, within
        DEFAULT_STRUCT_TOL relative to the fold's largest magnitude
        (absolute when that is zero).
        """
        W = _fold(self.data)[0].reshape(-1, self.dim, self.dim)
        limit = _limit(np.abs(W).max())
        return not np.any(abs(W - W.transpose(0, 2, 1)) > limit)


def contract(data: np.ndarray, X: np.ndarray) -> np.ndarray:
    """result[b]: every axis of ``data`` but the first contracted with row b of X.

    One BLAS product takes the last axis, then m - 2 einsum steps one axis
    each, over chunks of rows sized to _CONTRACT_ITEMS.  Serves
    ``DenseTensor.apply`` and the partial row sums; Newton's map is a GEMM
    of monomials times the fold of ``_fold`` (``oracle._newton_map``) and the
    dim-2 solve reads A's polynomial coefficients directly
    (``oracle._tangent_form``)."""
    n = data.shape[0]
    flat = data.reshape(-1, n)
    out = np.empty((len(X), n))
    step = max(1, _CONTRACT_ITEMS // len(flat))
    for lo in range(0, len(X), step):
        chunk = X[lo : lo + step]
        acc = flat @ chunk.T
        for _ in range(data.ndim - 2):
            acc = np.einsum("kjb,bj->kb", acc.reshape(-1, n, len(chunk)), chunk)
        out[lo : lo + step] = acc.T
    return out


def _fold(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The trailing mean of A folded over the multisets of its last m - 2 slots.

    The trailing mean T[i, tail] is the mean of A[i, .] over the permutation
    class of tail, the last m - 1 slots, so T x^{m-1} = A x^{m-1}.  T is
    symmetric in its last m - 2 slots, so T x^{m-2} is the sum over multisets
    U of those slots of the monomial x^U times the n x n block W[U], whose
    (i, j) entry is T[i, j, U] times U's class size.  Returns W, one row of
    n * n per U in C order (Newton's GEMM sums, and so its output bits,
    depend on that layout), and digits, whose column r holds the m - 2
    indices of U_r's sorted tuple."""
    n, m = data.shape[0], data.ndim
    classes = _canonical_classes(m - 1, n)
    sums = np.stack([np.bincount(classes, weights=row) for row in data.reshape(n, -1)])
    # The tuples (0, U) sort to (0, sorted U), so the first n^(m-2) class ids
    # are the last m - 2 slots' own, and U's representative, its sorted
    # tuple, is the tail whose id is its own flat index.
    tails = classes[: classes.size // n]
    reps = np.flatnonzero(tails == np.arange(tails.size))
    full = classes.reshape(n, -1)[:, reps]  # full[j, r]: the class of (j, U_r)
    mean = np.moveaxis(sums[:, full] / np.bincount(classes)[full], 2, 0).reshape(len(reps), n * n)
    digits = reps // n ** np.arange(m - 3, -1, -1)[:, None] % n
    return mean * np.bincount(tails)[reps][:, None], digits


def _limit(scale: np.ndarray) -> np.ndarray:
    """DEFAULT_STRUCT_TOL relative to scale, absolute where scale is zero."""
    return np.where(scale > 0.0, DEFAULT_STRUCT_TOL * scale, DEFAULT_STRUCT_TOL)


def _canonical_classes(order: int, dim: int) -> np.ndarray:
    """For every flat index of an order-m, dim-n tensor, the flat index of
    its sorted index tuple: equal ids mark one permutation class.  In dim 2
    that is 2^c - 1, c the number of 1-bits of the flat index (the counts of
    [0, 2^(k+1)) are those of [0, 2^k), then the same plus one)."""
    if dim == 2:
        ones = np.zeros(1, dtype=np.uint8)
        for _ in range(order):
            ones = np.concatenate([ones, ones + 1])
        return (1 << ones.astype(np.intp)) - 1
    shape = (dim,) * order
    index = np.indices(shape, dtype=np.min_scalar_type(dim - 1)).reshape(order, -1)
    return np.ravel_multi_index(np.sort(index, axis=0), shape)


def _require_number(value, where: str, *at) -> float:
    """value as a finite float.  Errors name the field ``where.format(*at)``,
    formatted only when raising, as in ``_require_int``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TensorFormatError(f"{where.format(*at)}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise TensorFormatError(f"{where.format(*at)}: integer is out of the floating-point range") from None
    if not math.isfinite(number):
        raise TensorFormatError(f"{where.format(*at)}: value must be finite, got {value!r}")
    if abs(number) > MAX_ABS_VALUE:
        raise TensorFormatError(f"{where.format(*at)}: magnitude must be <= {MAX_ABS_VALUE:g}, got {value!r}")
    return number


def _require_int(value, where: str, *at) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TensorFormatError(f"{where.format(*at)}: expected an integer, got {value!r}")
    return value


def parse_tensor(text: str) -> DenseTensor:
    """Parse the JSON tensor document format.

    The document declares ``order`` and ``dim`` and supplies entries either
    sparsely (``entries`` with 1-based index tuples over an optional
    ``default`` fill) or densely (``values``, flat row-major with the last
    index fastest).  Unknown fields, duplicate index tuples, out-of-range
    indices, non-finite values and values of magnitude above MAX_ABS_VALUE
    are all hard errors.

    A valid document is accepted by whole-array checks.  Only when one of
    them rejects it is the document walked item by item, to name its first
    fault in document order.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integer literals past 4300 digits, deep nesting
        raise TensorFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise TensorFormatError("top-level value must be an object")
    unknown = sorted(set(doc) - _DOCUMENT_FIELDS)
    if unknown:
        raise TensorFormatError(f"unknown field(s): {', '.join(unknown)}")
    for field in ("order", "dim"):
        if field not in doc:
            raise TensorFormatError(f"missing required field '{field}'")
    order = _require_int(doc["order"], "order")
    dim = _require_int(doc["dim"], "dim")
    if order < 2:
        raise TensorFormatError(f"order: must be >= 2, got {order}")
    if dim < 2:
        raise TensorFormatError(f"dim: must be >= 2, got {dim}")
    # dim >= 2, so an order of MAX_ENTRIES.bit_length() or more is already too
    # large; testing it first keeps dim**order from being computed for a huge order.
    if order >= MAX_ENTRIES.bit_length() or dim**order > MAX_ENTRIES:
        raise TensorFormatError(f"dim^order: {dim}^{order} entries exceed the limit of {MAX_ENTRIES}")
    if "entries" in doc and "values" in doc:
        raise TensorFormatError("fields 'entries' and 'values' are mutually exclusive")
    if "values" in doc and "default" in doc:
        raise TensorFormatError("field 'default' is not allowed alongside 'values'")

    shape = (dim,) * order
    if "values" in doc:
        values = doc["values"]
        if not isinstance(values, list):
            raise TensorFormatError("values: expected an array")
        expected = dim**order
        if len(values) != expected:
            raise TensorFormatError(f"values: expected {expected} numbers (dim^order), got {len(values)}")
        data = _values_in_bulk(values, shape)
        itemwise = functools.partial(_values_itemwise, values, shape)
    else:
        default = _require_number(doc["default"], "default") if "default" in doc else 0.0
        entries = doc.get("entries", [])
        if not isinstance(entries, list):
            raise TensorFormatError("entries: expected an array")
        data = _entries_in_bulk(entries, shape, default)
        itemwise = functools.partial(_entries_itemwise, entries, shape, default)
    # NaN fails the comparison too, so this also checks finiteness.
    if data is not None and np.abs(data).max() <= MAX_ABS_VALUE:
        return DenseTensor(data, copy=False)
    # A check rejected the document: the item-by-item walk raises its first
    # fault in document order.
    return DenseTensor(itemwise(), copy=False)


def _values_in_bulk(values: list, shape: tuple) -> np.ndarray | None:
    """Dense ``values`` as one float array, or None when a check rejects them.
    Exact types, since ``bool`` is an ``int`` subclass."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        return np.array(values, dtype=float).reshape(shape)
    except OverflowError:  # an integer beyond the float range
        return None


def _entries_in_bulk(entries: list, shape: tuple, default: float) -> np.ndarray | None:
    """Sparse ``entries`` scattered over a ``default`` fill, or None when a
    check rejects them: item shape, exact index and value types, index range
    and duplicate tuples, each checked once over the whole list."""
    data = np.full(shape, default)
    if not entries:
        return data
    if not set(map(type, entries)) <= {dict} or set(map(len, entries)) != {2}:
        return None
    try:
        idx = [item["idx"] for item in entries]
        values = [item["value"] for item in entries]
    except KeyError:
        return None
    if not (
        set(map(type, idx)) <= {list}
        and set(map(len, idx)) == {len(shape)}
        and set(map(type, itertools.chain.from_iterable(idx))) <= {int}
        and set(map(type, values)) <= {int, float}
    ):
        return None
    try:
        flat = np.fromiter(itertools.chain.from_iterable(idx), dtype=np.int64, count=len(idx) * len(shape))
        values = np.array(values, dtype=float)
    except OverflowError:  # an index past int64 or a value past the float range
        return None
    del idx  # the intermediates are dropped as soon as used, to lower the peak
    if flat.min() < 1 or flat.max() > shape[0]:
        return None
    linear = np.ravel_multi_index(tuple(flat.reshape(-1, len(shape)).T - 1), shape)
    del flat
    seen = np.zeros(data.size, dtype=bool)
    seen[linear] = True
    if np.count_nonzero(seen) < linear.size:  # a duplicate index tuple
        return None
    data.reshape(-1)[linear] = values
    return data


def _values_itemwise(values: list, shape: tuple) -> np.ndarray:
    """Dense ``values`` checked one at a time; raises on the first fault."""
    flat = [_require_number(v, "values[{}]", k) for k, v in enumerate(values)]
    return np.array(flat, dtype=float).reshape(shape)


def _entries_itemwise(entries: list, shape: tuple, default: float) -> np.ndarray:
    """Sparse ``entries`` checked one at a time, each item's index components
    before its value; raises on the first fault."""
    order, dim = len(shape), shape[0]
    data = np.full(shape, default)
    seen: set[tuple] = set()
    for k, item in enumerate(entries):
        if not isinstance(item, dict) or set(item) != {"idx", "value"}:
            raise TensorFormatError(f"entries[{k}]: expected an object with exactly 'idx' and 'value'")
        idx = item["idx"]
        if not isinstance(idx, list) or len(idx) != order:
            raise TensorFormatError(f"entries[{k}].idx: expected an array of {order} indices")
        offsets = []
        for pos, component in enumerate(idx):
            component = _require_int(component, "entries[{}].idx[{}]", k, pos)
            if not 1 <= component <= dim:
                raise TensorFormatError(f"entries[{k}].idx[{pos}]: index {component} out of range [1, {dim}]")
            offsets.append(component - 1)
        offsets = tuple(offsets)
        if offsets in seen:
            raise TensorFormatError(f"entries[{k}].idx: duplicate index tuple {idx}")
        seen.add(offsets)
        data[offsets] = _require_number(item["value"], "entries[{}].value", k)
    return data
