import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeig.tensor import MAX_ABS_VALUE, MAX_ENTRIES, DenseTensor, TensorFormatError, _canonical_classes, parse_tensor

from conftest import load_fixture
from helpers import (
    brute_aggregates,
    brute_apply,
    brute_canonical_classes,
    brute_parse_tensor,
    brute_is_symmetric,
    brute_is_weakly_symmetric,
    brute_partial_row_sum,
    brute_poly_value,
    brute_row_sum,
    diagonal_tensor,
    finite_difference_jacobian,
    permuted_tensor,
    random_dyadic_tensor,
    random_symmetric_tensor,
    random_tensor,
    rank_one_tensor,
    weak_by_construction,
)

THIRD = 0.3333333333333333


# -- parsing ---------------------------------------------------------------


def test_parse_example1_overrides_on_default_fill(example1):
    assert example1.order == 4
    assert example1.dim == 2
    assert example1.data[0, 0, 0, 0] == 0.5
    assert example1.data[1, 1, 1, 1] == 3.0
    assert example1.data[0, 1, 0, 1] == THIRD
    assert example1.data[1, 0, 0, 1] == THIRD


def test_parse_example2_slice_convention(example2):
    # a_{ijk} = slice k, row i, column j
    assert example2.order == 3
    assert example2.dim == 3
    assert example2.data[0, 0, 2] == 3.0
    assert example2.data[0, 1, 1] == 0.5
    assert example2.data[1, 0, 0] == 2.5
    assert example2.data[2, 0, 2] == 2.0


def test_parse_empty_fill_is_zero_tensor():
    t = parse_tensor('{"order": 2, "dim": 2}')
    assert t.data.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_parse_dense_values_last_index_fastest():
    t = parse_tensor('{"order": 2, "dim": 2, "values": [1, 2, 3, 4]}')
    assert t.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_parse_accepts_the_largest_allowed_shape():
    assert parse_tensor('{"order": 2, "dim": 2048}').dim == 2048


def test_parse_accepts_the_largest_allowed_magnitude():
    t = parse_tensor(json.dumps({"order": 2, "dim": 2, "values": [MAX_ABS_VALUE, -MAX_ABS_VALUE, 0, 1]}))
    assert t.data.tolist() == [[MAX_ABS_VALUE, -MAX_ABS_VALUE], [0.0, 1.0]]


def test_parse_default_without_entries():
    t = parse_tensor('{"order": 3, "dim": 2, "default": 0.25}')
    assert np.all(t.data == 0.25)


def test_parse_checks_magnitudes_without_a_tensor_sized_temporary():
    # 2^22 entries, the largest shape: the constructor's in-place min / max
    # accepts the filled array, with no |A| copy alongside it.
    tracemalloc.start()
    try:
        t = parse_tensor('{"order": 22, "dim": 2, "default": 1.0}')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * t.data.nbytes, peak / t.data.nbytes


@pytest.mark.parametrize(
    "text, fragment",
    [
        ('{"order": 2, "dim": 2', "invalid JSON"),
        ("[1, 2]", "top-level"),
        ('{"order": 2, "dim": 2, "extra": 1}', "unknown field"),
        ('{"dim": 2}', "order"),
        ('{"order": 2}', "dim"),
        ('{"order": 1, "dim": 3}', "order"),
        ('{"order": 3, "dim": 1}', "dim"),
        ('{"order": 2.5, "dim": 2}', "order"),
        ('{"order": 2, "dim": 2, "values": [1, 2, 3]}', "values"),
        ('{"order": 2, "dim": 2, "values": [1, 2, 3, "x"]}', "values[3]"),
        ('{"order": 2, "dim": 2, "values": [1, true, 3, 4]}', "values[1]"),
        ('{"order": 2, "dim": 2, "values": [1,2,3,4], "entries": []}', "mutually exclusive"),
        ('{"order": 2, "dim": 2, "values": [1,2,3,4], "default": 0}', "default"),
        ('{"order": 2, "dim": 2, "default": true}', "default"),
        ('{"order": 2, "dim": 2, "default": Infinity}', "default"),
        ('{"order": 2, "dim": 2, "entries": [{"idx": [1], "value": 1}]}', "idx"),
        ('{"order": 2, "dim": 2, "entries": [{"idx": [1, 3], "value": 1}]}', "out of range"),
        ('{"order": 2, "dim": 2, "entries": [{"idx": [0, 1], "value": 1}]}', "out of range"),
        ('{"order": 2, "dim": 2, "entries": [{"idx": [1, true], "value": 1}]}', "entries[0].idx[1]"),
        (  # an index past int64
            '{"order": 2, "dim": 2, "entries": [{"idx": [1, 18446744073709551617], "value": 1}]}',
            "out of range",
        ),
        (
            '{"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "value": NaN}, {"idx": [1, 3], "value": 1}]}',
            "entries[0].value",
        ),
        ('{"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "value": NaN}]}', "value"),
        ('{"order": 2, "dim": 2, "entries": [{"idx": [1, 1]}]}', "entries[0]"),
        ('{"order": 2, "dim": 2, "entries": [{"idx": [1,1], "value": 1, "z": 2}]}', "entries[0]"),
        ('{"order": 40, "dim": 10}', "limit"),
        ('{"order": 100000000000000000000, "dim": 2}', "limit"),
        ('{"order": 10000, "dim": 10, "values": []}', "limit"),
        ('{"order": 2, "dim": 2049}', "limit"),
        ('{"order": 2, "dim": 2, "values": [1%s, 2, 3, 4]}' % ("0" * 400), "values[0]"),
        ('{"order": 2, "dim": 2, "default": -1%s}' % ("0" * 400), "default"),
        ('{"order": 2, "dim": 2, "default": 1%s}' % ("0" * 5000), "invalid JSON"),
        ('{"order": 2, "dim": 2, "values": [1, 1.0000000000000002e100, 3, 1e300]}', "values[1]: magnitude"),
        ('{"order": 2, "dim": 2, "values": [1%s, 2, 3, 4]}' % ("0" * 101), "values[0]: magnitude"),
        ('{"order": 2, "dim": 2, "entries": [{"idx": [2, 1], "value": -1e101}]}', "entries[0].value: magnitude"),
        ('{"order": 2, "dim": 2, "default": -1e300}', "default: magnitude"),
        ("[" * 100_000 + "]" * 100_000, "invalid JSON"),
    ],
)
def test_parse_rejects_malformed_documents(text, fragment):
    with pytest.raises(TensorFormatError) as excinfo:
        parse_tensor(text)
    assert fragment.lower() in str(excinfo.value).lower()


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
# Small numbers, then integers and floats over the whole float range.
_NUMBERS = (
    st.integers(-10, 10)
    | st.floats(-10.0, 10.0)
    | st.integers(-(2**80), 2**80)
    | st.floats(allow_nan=False, allow_infinity=False)
)
# NaN, infinities, bools, integers past the float range, magnitudes past
# MAX_ABS_VALUE, and non-numbers.
_BAD_NUMBERS = st.floats() | st.sampled_from([10**400, -(10**400), 1e101, -(10**101), True]) | _JSON
# Sizes below 2, sizes the entry limit rejects before anything is allocated,
# and non-integers.
_BAD_SIZES = st.integers(-1, 1) | st.integers(MAX_ENTRIES + 1, 10**40) | _JSON_SCALARS
# Index components that are not 1-based indices: bools and integers past int64.
_BAD_INDICES = st.sampled_from([True, False, 2**63, 2**64 + 1, -(2**64)]) | st.integers(-2, 0)


@st.composite
def _tensor_documents(draw):
    """Documents shaped like the tensor format, valid or broken in any field."""
    doc = {}
    for field in ("order", "dim"):
        kind = draw(st.integers(0, 9))  # 0: missing, 1-2: broken, else small
        if kind:
            doc[field] = draw(_BAD_SIZES if kind <= 2 else st.integers(2, 3))
    order, dim = doc.get("order"), doc.get("dim")
    small = all(type(v) is int and 0 <= v <= 3 for v in (order, dim))
    layout = draw(st.sampled_from(["fill", "values", "entries", "both", "extra field"]))
    if layout in ("values", "both"):
        count = max(0, (dim**order if small else 4) + draw(st.sampled_from([0, 0, 0, -1, 1])))
        values = draw(st.lists(_NUMBERS, min_size=count, max_size=count))
        if values:  # zero, one or several faults; the first must be the one named
            for k in draw(st.lists(st.integers(0, count - 1), max_size=3)):
                values[k] = draw(_BAD_NUMBERS)
        doc["values"] = values
    if layout in ("entries", "both"):
        if small:
            valid = st.integers(1, max(dim, 1))
            component = valid | valid | st.integers(0, 4) | _BAD_INDICES
            fitting = st.lists(component, min_size=order, max_size=order)
        else:
            fitting = st.nothing()
        idx = fitting | fitting | st.lists(st.integers(0, 4) | _JSON_SCALARS, max_size=4)
        item = st.fixed_dictionaries({"idx": idx, "value": _NUMBERS | _NUMBERS | _BAD_NUMBERS}) | _JSON
        doc["entries"] = draw(st.lists(item, max_size=6))
    if draw(st.booleans()):
        doc["default"] = draw(_NUMBERS | _BAD_NUMBERS)
    if layout == "extra field":
        doc[draw(st.text(max_size=4))] = draw(_JSON)
    return doc


@given(_tensor_documents() | _JSON)
@settings(max_examples=300, deadline=None)
def test_parse_any_json_document_yields_tensor_or_format_error(doc):
    def outcome(parse):
        try:
            tensor = parse(text)
        except TensorFormatError as exc:
            return str(exc)
        assert isinstance(tensor, DenseTensor)
        assert tensor.data.shape == (doc["dim"],) * doc["order"]
        return tensor.data.tobytes()

    text = json.dumps(doc)
    # The same data bit for bit, or the same message naming the same fault.
    assert outcome(parse_tensor) == outcome(brute_parse_tensor)


def test_parse_duplicate_index_tuple_is_hard_error():
    text = json.dumps(
        {
            "order": 2,
            "dim": 2,
            "entries": [
                {"idx": [1, 2], "value": 1},
                {"idx": [1, 2], "value": 1},
            ],
        }
    )
    with pytest.raises(TensorFormatError, match="duplicate"):
        parse_tensor(text)


def test_constructor_rejects_bad_arrays():
    with pytest.raises(ValueError):
        DenseTensor(np.zeros(3))  # order 1
    with pytest.raises(ValueError):
        DenseTensor(np.zeros((1, 1)))  # dim 1
    with pytest.raises(ValueError):
        DenseTensor(np.zeros((2, 3)))  # ragged axes
    with pytest.raises(ValueError):
        DenseTensor(np.array([[1.0, np.nan], [0.0, 0.0]]))


def test_constructor_rejects_complex_entries():
    # The float cast would keep the real parts behind a ComplexWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for data in (np.array([[1 + 2j, 0], [0, 1]]), np.eye(2, dtype=complex), [[1j, 0], [0, 1]]):
            with pytest.raises(ValueError, match="tensor entries must be real"):
                DenseTensor(data)


def test_constructor_enforces_the_magnitude_limit_of_the_file_format():
    # Past the limit M's table overflows: chain_middle came out inf, and a
    # false internal error, behind a RuntimeWarning.
    data = np.random.default_rng(0).random((3, 3, 3))
    for scale in (1e200, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="magnitude <= 1e"):
            DenseTensor(scale * data)
    data[0, 0, 0] = -1.0
    assert DenseTensor(MAX_ABS_VALUE * data).data.min() == -MAX_ABS_VALUE


def test_tensor_data_is_immutable(example1):
    with pytest.raises(ValueError):
        example1.data[0, 0, 0, 0] = 9.0


# -- row aggregates ------------------------------------------------------------


def test_aggregates_match_enumeration():
    rng = np.random.default_rng(11)
    for order, dim in [(3, 2), (3, 3), (3, 4), (4, 3)]:
        t = random_tensor(rng, order, dim, signed=True)
        agg = t.aggregates()
        R, P, D = brute_aggregates(t)
        assert agg.row_sums == pytest.approx(R, rel=1e-13)
        assert agg.partial_sums == pytest.approx(P, rel=1e-13)
        assert np.array_equal(agg.diag_abs, D)


def test_diag_abs_golden_values(example1, example2, zero_m2_n2):
    assert example1.aggregates().diag_abs[0, 1] == THIRD
    assert example2.aggregates().diag_abs[0, 1] == 0.5
    assert zero_m2_n2.aggregates().diag_abs[0, 1] == 0.0


def test_aggregates_golden_examples(example1, example2, zero_m2_n2):
    agg = example1.aggregates()
    assert agg.row_sums == pytest.approx([17 / 6, 16 / 3], rel=1e-14)
    assert agg.partial_sums[1, 0] == 3.0
    assert agg.partial_sums[0, 1] == 0.5
    assert example2.aggregates().row_sums[0] == 14.5
    zagg = zero_m2_n2.aggregates()
    assert np.all(zagg.row_sums == 0.0)
    assert np.all(zagg.partial_sums == 0.0)


def test_aggregates_diagonal_tensor():
    d = diagonal_tensor([1, 2, 3], order=3)
    agg = d.aggregates()
    assert agg.row_sums.tolist() == [1.0, 2.0, 3.0]
    for j in range(3):
        for i in range(3):
            if i != j:
                assert agg.partial_sums[j, i] == abs(float(j + 1))


def test_aggregate_invariants_on_random_tensors():
    rng = np.random.default_rng(3)
    for _ in range(20):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 5))
        t = random_tensor(rng, order, dim, signed=True)
        agg = t.aggregates()
        R, P, D = agg.row_sums, agg.partial_sums, agg.diag_abs
        assert np.all(R >= 0.0)
        for j in range(dim):
            for i in range(dim):
                if i == j:
                    continue
                assert 0.0 <= P[j, i] <= R[j] + 1e-12
                assert R[j] - P[j, i] >= -1e-12
                assert 0.0 <= D[j, i] <= R[j] - P[j, i] + 1e-12


def test_row_partition_is_exact_for_dyadic_entries():
    # entries are multiples of 1/8, so the partition of row j's tuples into
    # "avoids i" and "contains i" sums exactly in floating point
    rng = np.random.default_rng(19)
    for _ in range(10):
        t = random_dyadic_tensor(rng, order=3, dim=3, signed=True)
        agg = t.aggregates()
        for j in range(1, 4):
            for i in range(1, 4):
                if i == j:
                    continue
                contains_i = brute_row_sum(t, j) - brute_partial_row_sum(t, j, i)
                assert agg.partial_sums[j - 1, i - 1] + contains_i == agg.row_sums[j - 1]


def test_aggregates_permutation_equivariance():
    rng = np.random.default_rng(23)
    for _ in range(5):
        t = random_dyadic_tensor(rng, order=3, dim=4, signed=True)
        perm = rng.permutation(4)
        agg = t.aggregates()
        pagg = permuted_tensor(t, perm).aggregates()
        for i in range(4):
            assert pagg.row_sums[perm[i]] == agg.row_sums[i]
            for j in range(4):
                if i != j:
                    assert pagg.partial_sums[perm[j], perm[i]] == agg.partial_sums[j, i]


# -- polynomial action ----------------------------------------------------------


def test_apply_golden_values(example1):
    d = diagonal_tensor([1, 2, 3], order=3)
    assert d.apply([0.0, 1.0, 0.0]).tolist() == [0.0, 2.0, 0.0]
    assert example1.apply([0.0, 0.0]).tolist() == [0.0, 0.0]
    out = example1.apply([1.0, 0.0])
    assert out[0] == 0.5
    assert out[1] == THIRD


def test_apply_matches_enumeration():
    rng = np.random.default_rng(5)
    for order, dim in [(3, 3), (4, 2)]:
        t = random_tensor(rng, order, dim, signed=True)
        x = rng.normal(size=dim)
        assert t.apply(x) == pytest.approx(brute_apply(t, x), rel=1e-12, abs=1e-12)


def test_apply_is_degree_homogeneous():
    rng = np.random.default_rng(13)
    for _ in range(10):
        order = int(rng.integers(3, 6))
        t = random_tensor(rng, order, 3, signed=True)
        x = rng.normal(size=3)
        c = float(rng.uniform(0.3, 2.5))
        lhs = t.apply(c * x)
        rhs = c ** (order - 1) * t.apply(x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_apply_rejects_wrong_length(example1):
    with pytest.raises(ValueError):
        example1.apply([1.0, 2.0, 3.0])


def test_apply_dotted_with_x_is_the_form():
    rng = np.random.default_rng(17)
    for _ in range(10):
        t = random_tensor(rng, 3, 3, signed=True)
        x = rng.normal(size=3)
        assert float(x @ t.apply(x)) == pytest.approx(brute_poly_value(t, x), rel=1e-11, abs=1e-11)


# -- structural predicates --------------------------------------------------------


def test_is_nonnegative(example2, zero_m2_n2):
    assert example2.is_nonnegative()
    assert zero_m2_n2.is_nonnegative()
    data = np.zeros((2, 2))
    data[0, 1] = -1.0
    assert not DenseTensor(data).is_nonnegative()


def test_is_symmetric(example1, example2, zero_m2_n2):
    assert example1.is_symmetric()
    assert not example2.is_symmetric()  # a_121 = 3 but a_112 = 2
    assert zero_m2_n2.is_symmetric()


def test_is_symmetric_on_random_symmetrized_tensors():
    rng = np.random.default_rng(29)
    t = random_symmetric_tensor(rng, order=4, dim=3, signed=True)
    assert t.is_symmetric()
    bumped = np.array(t.data)
    bumped[0, 1, 2, 2] += 1e-6
    assert not DenseTensor(bumped).is_symmetric()


def test_is_symmetric_peak_memory_stays_near_the_tensor():
    # 2^20 entries each.  A generator's comparison holds at most three
    # tensor-sized arrays at once: the limit, |A'| or A - A', and |A - A'|.
    for order, dim in [(20, 2), (4, 32), (2, 1024)]:
        t = DenseTensor(np.ones((dim,) * order))
        tracemalloc.start()
        try:
            assert t.is_symmetric()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * t.data.nbytes, (order, dim, peak / t.data.nbytes)


def test_is_weakly_symmetric_peak_memory_stays_near_the_tensor():
    # 2^20 entries each.  The trailing mean is gathered at one representative
    # per multiset of the last m - 2 slots, not spread back over all n^m entries.
    for order, dim in [(20, 2), (4, 32), (2, 1024)]:
        t = DenseTensor(np.ones((dim,) * order))
        tracemalloc.start()
        try:
            assert t.is_weakly_symmetric()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * t.data.nbytes, (order, dim, peak / t.data.nbytes)


def test_is_weakly_symmetric_examples(example1, example2):
    assert example2.is_weakly_symmetric()
    assert example1.is_weakly_symmetric()  # symmetric implies weakly symmetric


def test_weak_symmetry_counterexample():
    # a_112 = 1, all else 0: the x1*x2 coefficient is 2 in the gradient
    # component but 3 in m * apply
    data = np.zeros((2, 2, 2))
    data[0, 0, 1] = 1.0
    assert not DenseTensor(data).is_weakly_symmetric()


def test_symmetric_implies_weakly_symmetric_on_random_tensors():
    rng = np.random.default_rng(31)
    for order, dim in [(3, 2), (3, 3), (4, 2)]:
        t = random_symmetric_tensor(rng, order, dim, signed=True)
        assert t.is_symmetric()
        assert t.is_weakly_symmetric()


def test_weak_symmetry_matches_gradient_sampling():
    # independent check: numerical gradient of the degree-m form at random
    # points must equal m * apply for weakly symmetric tensors, so apply is a
    # gradient map and its finite-difference Jacobian is symmetric
    rng = np.random.default_rng(37)
    weak = [random_symmetric_tensor(rng, order=3, dim=3)]
    weak += [DenseTensor(weak_by_construction(rng, random_symmetric_tensor(rng, m, 3).data)) for m in (3, 4)]
    step = 1e-6
    for t in weak:
        assert t.is_weakly_symmetric()
        for _ in range(5):
            x = rng.normal(size=3)
            grad = np.zeros(3)
            for k in range(3):
                e = np.zeros(3)
                e[k] = step
                grad[k] = (brute_poly_value(t, x + e) - brute_poly_value(t, x - e)) / (2 * step)
            assert grad == pytest.approx(t.order * t.apply(x), rel=1e-6, abs=1e-6)
            J = finite_difference_jacobian(t, x)
            assert np.abs(J - J.T).max() <= 1e-6 * np.abs(J).max()
    # the false direction: no gradient map, so the Jacobian is asymmetric far
    # beyond the finite differences' noise
    for m in (3, 4):
        t = random_tensor(rng, m, 3, signed=True)
        assert not t.is_weakly_symmetric()
        for _ in range(5):
            J = finite_difference_jacobian(t, rng.normal(size=3))
            assert np.abs(J - J.T).max() > 1e-2 * np.abs(J).max()


def test_symmetry_predicates_are_scale_invariant():
    # both tolerances are relative, so scaling A by s changes no answer
    rng = np.random.default_rng(41)
    for order, dim in [(3, 3), (4, 2), (4, 3), (5, 2)]:
        sym = random_symmetric_tensor(rng, order, dim, signed=True).data
        bumped = np.array(sym)
        bumped[tuple(rng.integers(dim, size=order))] += 1e-6
        cases = [sym, weak_by_construction(rng, sym), bumped, random_tensor(rng, order, dim, signed=True).data]
        for data in cases:
            want = (DenseTensor(data).is_symmetric(), DenseTensor(data).is_weakly_symmetric())
            for s in (1e-9, 1e-3, 1e6, 1e12):
                t = DenseTensor(s * data)
                assert (t.is_symmetric(), t.is_weakly_symmetric()) == want, (order, dim, s)


def test_symmetry_predicates_match_brute_references():
    rng = np.random.default_rng(43)
    seen = set()
    for order in (2, 3, 4, 5):
        for dim in (2, 3, 4):
            for _ in range(3):
                sym = random_symmetric_tensor(rng, order, dim, signed=True).data
                cases = [sym, random_tensor(rng, order, dim, signed=True).data]
                if order >= 3:
                    # move v between two orderings of one tail: the row's tail
                    # sums and every class sum stay put, one class splits
                    a, b = rng.choice(dim, size=2, replace=False)
                    rest = tuple(rng.integers(dim, size=order - 3))
                    row = int(rng.integers(dim))
                    v = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
                    weak = np.array(sym)
                    weak[(row, a, b) + rest] += v
                    weak[(row, b, a) + rest] -= v
                    cases.append(weak)
                    # invariant under only one of the two generators of the
                    # slot permutations: the swap of the first two slots, or
                    # the cyclic shift of all of them (at order 3, dim 2
                    # each class is one cyclic orbit, so the shift suffices)
                    a = random_tensor(rng, order, dim, signed=True).data
                    swap_only = a + a.swapaxes(0, 1)
                    cycle_only = sum(np.transpose(a, np.roll(np.arange(order), k)) for k in range(order))
                    assert not brute_is_symmetric(DenseTensor(swap_only))
                    assert brute_is_symmetric(DenseTensor(cycle_only)) == ((order, dim) == (3, 2))
                    cases += [swap_only, cycle_only]
                for bump in (1e-6, 1e-12, 1e-13):
                    bumped = np.array(sym)
                    bumped[tuple(rng.integers(dim, size=order))] += bump
                    cases.append(bumped)
                for data in cases:
                    t = DenseTensor(data)
                    flags = (brute_is_symmetric(t), brute_is_weakly_symmetric(t))
                    assert (t.is_symmetric(), t.is_weakly_symmetric()) == flags
                    seen.add(flags)
    assert seen == {(True, True), (False, True), (False, False)}


def test_bumped_ones_m22_n2_is_neither_symmetric_nor_weakly_symmetric():
    # One 2, at index (1, ..., 1, 2), among 4M ones: the swap of the first
    # two slots leaves its index tuple in place, only the cyclic shift moves it.
    t = load_fixture("ones_bumped_m22_n2.json")
    assert t.data.sum() == 2**22 + 1
    assert not t.is_symmetric()
    assert not t.is_weakly_symmetric()


def test_canonical_classes_match_brute_reference():
    # dim 2 counts 1-bits instead of sorting index tuples; the ids must not change
    shapes = [(order, 2) for order in range(1, 17)] + [(order, 3) for order in range(1, 7)]
    for order, dim in shapes + [(order, 4) for order in range(1, 6)]:
        got, want = _canonical_classes(order, dim), brute_canonical_classes(order, dim)
        assert got.dtype == np.intp and np.array_equal(got, want), (order, dim)


def test_rank_one_tensor_is_symmetric(rank_one):
    assert rank_one.is_symmetric()
    assert rank_one.is_weakly_symmetric()
    built = rank_one_tensor([0.6, 0.8], order=4)
    assert np.allclose(built.data, rank_one.data, rtol=0, atol=0)
