"""Dense real tensors with 1-based index semantics.

Provides storage, parsing, elementwise access, structural predicates
(nonnegativity, symmetry, weak symmetry) and the row / partial-row
aggregates that every inclusion region and spectral-radius bound is
built from.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Entries like 1/3 are not exactly representable, so structural predicates
# compare with a small relative tolerance by default.
DEFAULT_STRUCT_TOL = 1e-10

# Largest dim**order a document may declare: 32 MiB of float64, far above the
# desk scale the oracle is meant for.
MAX_ENTRIES = 2**22

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

    The backing array has shape ``(n,) * m`` in C order, so the flat
    ``values`` layout varies the last index fastest.  Indices are 1-based
    at the API boundary, matching the usual mathematical convention.
    Instances are immutable; all methods are pure functions of the data.
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

    @property
    def values(self) -> np.ndarray:
        """Flat row-major read-only view of the entries (last index fastest)."""
        return self.data.reshape(-1)

    def __repr__(self) -> str:
        return f"DenseTensor(order={self.order}, dim={self.dim})"

    def _index_offset(self, idx) -> tuple:
        idx = tuple(idx)
        if len(idx) != self.order:
            raise IndexError(f"index tuple must have {self.order} components, got {len(idx)}")
        for pos, k in enumerate(idx):
            if not (isinstance(k, (int, np.integer)) and 1 <= k <= self.dim):
                raise IndexError(f"index component {pos + 1} is {k!r}, must be in [1, {self.dim}]")
        return tuple(k - 1 for k in idx)

    def entry(self, idx) -> float:
        """Entry at a 1-based m-tuple of indices."""
        return float(self.data[self._index_offset(idx)])

    # -- aggregates --------------------------------------------------------

    def aggregates(self) -> RowAggregates:
        """All row sums, partial row sums and trailing-diagonal magnitudes."""
        n, m = self.dim, self.order
        absdata = np.abs(self.data)
        row_sums = absdata.reshape(n, -1).sum(axis=1)
        # Contracting every slot with 1 - e_i keeps exactly the tuples avoiding i.
        partial = contract(absdata, 1.0 - np.eye(n), m - 1).T
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
        return contract(self.data, x[None], self.order - 1)[0]

    def poly_value(self, x) -> float:
        """Full contraction of the tensor with x in all m slots."""
        return float(np.asarray(x, dtype=float) @ self.apply(x))

    # -- structural predicates ----------------------------------------------

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.data >= 0.0))

    def is_symmetric(self, tol: float = DEFAULT_STRUCT_TOL) -> bool:
        """True when entries agree across every permutation of their indices.

        Entries in each permutation class must match within ``tol`` relative
        to the largest magnitude in the class (absolute ``tol`` for all-zero
        classes).
        """
        if tol < 0:
            raise ValueError("tol must be >= 0")
        classes = _canonical_classes(self.order, self.dim)
        values = self.data.reshape(-1)
        hi = np.full(values.size, -np.inf)
        lo = np.full(values.size, np.inf)
        np.maximum.at(hi, classes, values)
        np.minimum.at(lo, classes, values)
        hi, lo = hi[classes], lo[classes]
        return not np.any(hi - lo > _limit(tol, np.maximum(np.abs(lo), np.abs(hi))))

    def is_weakly_symmetric(self, tol: float = DEFAULT_STRUCT_TOL) -> bool:
        """True when the gradient of the degree-m form equals m times apply().

        Both sides are expanded into exact monomial coefficient maps, one
        coefficient per row i and multiset S of m - 1 indices, and compared
        coefficient by coefficient (tolerance relative to the largest
        coefficient of the row, absolute when that is zero):

        * m apply(): m times the sum of a[i, tail] over tails sorting to S;
        * gradient: (multiplicity of i in S, plus one) times the sum of the
          permutation class of S with i added.

        Deterministic and exact at desk scale, unlike sampling the identity
        at random points.  The two sides are floating sums taken in different
        orders, so at ``tol=0`` an exactly symmetric tensor can be reported as
        not weakly symmetric; the CLI always uses the default tolerance.
        """
        if tol < 0:
            raise ValueError("tol must be >= 0")
        n, m = self.dim, self.order
        classes = _canonical_classes(m, n)
        values = self.data.reshape(-1)
        # Row 0 holds the tuples (0, tail), whose sorted copies are
        # (0, sorted tail): its class ids are the tails' own canonical ids.
        tails = classes[: values.size // n]
        multisets = np.flatnonzero(tails == np.arange(tails.size))
        row_tail = (np.arange(n)[:, None] * tails.size + tails).reshape(-1)
        lhs = m * np.bincount(row_tail, weights=values).reshape(n, -1)[:, multisets]
        class_sums = np.bincount(classes, weights=values)
        with_i = classes.reshape(n, -1)[:, multisets]  # class of S with i added
        tail_index = np.array(np.unravel_index(multisets, (n,) * (m - 1)))
        mult = (tail_index == np.arange(n)[:, None, None]).sum(axis=1)
        rhs = (mult + 1) * class_sums[with_i]
        scale = np.maximum(np.abs(lhs).max(axis=1), np.abs(rhs).max(axis=1))
        return not np.any(np.abs(lhs - rhs) > _limit(tol, scale)[:, None])


def contract(data: np.ndarray, X: np.ndarray, slots: int) -> np.ndarray:
    """result[b]: the last ``slots`` axes of ``data`` contracted with row b of X.

    One BLAS product takes the last axis, then ``slots - 1`` einsum steps one
    axis each, over chunks of rows sized to _CONTRACT_ITEMS."""
    n = data.shape[0]
    keep = data.shape[: data.ndim - slots]
    if slots == 0:
        return np.broadcast_to(data, (len(X),) + keep)
    flat = data.reshape(-1, n)
    out = np.empty((len(X), math.prod(keep)))
    step = max(1, _CONTRACT_ITEMS // len(flat))
    for lo in range(0, len(X), step):
        chunk = X[lo : lo + step]
        acc = flat @ chunk.T
        for _ in range(slots - 1):
            acc = np.einsum("kjb,bj->kb", acc.reshape(-1, n, len(chunk)), chunk)
        out[lo : lo + step] = acc.T
    return out.reshape((len(X),) + keep)


def _limit(tol: float, scale: np.ndarray) -> np.ndarray:
    """Tolerance relative to scale, absolute where scale is zero."""
    return np.where(scale > 0.0, tol * scale, tol)


def _canonical_classes(order: int, dim: int) -> np.ndarray:
    """For every flat index of an order-m, dim-n tensor, the flat index of
    its sorted index tuple: equal ids mark one permutation class."""
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
    indices and non-finite values are all hard errors.
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
        flat = [_require_number(v, "values[{}]", k) for k, v in enumerate(values)]
        data = np.array(flat, dtype=float).reshape(shape)
        return DenseTensor(data, copy=False)

    default = _require_number(doc["default"], "default") if "default" in doc else 0.0
    data = np.full(shape, default)
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise TensorFormatError("entries: expected an array")
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
    return DenseTensor(data, copy=False)
