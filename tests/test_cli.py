import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zeig import cli, regions
from zeig.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main, render_json
from zeig.oracle import MAX_RESTARTS, verify_inclusion, z_eigs_newton, z_eigs_sweep_n2
from zeig.tensor import parse_tensor

from conftest import FIXTURES, fixture_path, load_fixture
from helpers import brute_render_json

EX1 = str(fixture_path("example1.json"))
EX2 = str(fixture_path("example2.json"))
DIAG = str(fixture_path("diagonal_123_m3.json"))
ZERO = str(fixture_path("zero_m2_n2.json"))
RANK1 = str(fixture_path("rank_one_m4_n2.json"))
ONES22 = str(fixture_path("ones_m22_n2.json"))
CORRUPT = str(fixture_path("corrupt.json"))
OVERSIZED = str(fixture_path("oversized_shape.json"))
HUGE_INT = str(fixture_path("huge_integer.json"))
HUGE_VALUES = str(fixture_path("huge_values.json"))
NOT_UTF8 = str(fixture_path("not_utf8.json"))
JORDAN = str(fixture_path("jordan_rot_m2_n2.json"))
ONES_TINY = str(fixture_path("ones_tiny_m3_n3.json"))
ONES_HUGE = str(fixture_path("ones_1e20_m4_n3.json"))
ULP_HOLE = str(fixture_path("omega_ulp_hole_m3_n3.json"))
CHAIN_ULP = str(fixture_path("chain_ulp_m2_n6.json"))
ONES_M4_N5 = str(fixture_path("ones_m4_n5.json"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- info ------------------------------------------------------------------------


def test_info_example2_structure(capsys):
    code, out, _ = run_cli(capsys, "info", EX2)
    assert code == EXIT_OK
    assert "weakly symmetric: yes" in out
    assert "symmetric: no" in out
    assert "max row sum: 14.5" in out


def test_info_example1_symmetric(capsys):
    code, out, _ = run_cli(capsys, "info", EX1)
    assert code == EXIT_OK
    assert "symmetric: yes" in out


def test_info_json_fields(capsys):
    code, out, _ = run_cli(capsys, "info", EX2, "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["order"] == 3 and doc["dim"] == 3
    assert doc["entry_count"] == 27
    assert doc["weakly_symmetric"] is True and doc["symmetric"] is False
    assert doc["row_sums"] == [14.5, 8.5, 8.5]


def test_info_corrupt_file_names_problem(capsys):
    code, out, err = run_cli(capsys, "info", CORRUPT)
    assert code == EXIT_USAGE
    assert "invalid JSON" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "info", "no_such_file.json")
    assert code == EXIT_USAGE
    assert "cannot read" in err


@pytest.mark.parametrize("command", ["info", "bounds", "regions", "eigs", "verify"])
def test_file_that_is_not_utf8_is_usage_error(capsys, command):
    # A UTF-16 byte-order mark, then "{}": the decode fails before any parse.
    code, out, err = run_cli(capsys, command, NOT_UTF8)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot read '{NOT_UTF8}': ")
    assert err.count("\n") == 1 and err.endswith("\n")


# -- bounds ----------------------------------------------------------------------


def test_bounds_example1_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", EX1, "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert list(doc) == [
        "omega_max",
        "omega_hat_max",
        "omega_tilde_max",
        "chain_middle",
        "gershgorin",
        "attaining_pair",
        "warnings",
    ]
    assert doc["omega_max"] == pytest.approx(4.3971, abs=1e-4)
    assert doc["gershgorin"] == pytest.approx(5.3333, abs=1e-4)
    assert doc["attaining_pair"] == [2, 1]
    assert doc["warnings"] == []


_NEGATIVE = "tensor has negative entries; bounds are formal quantities only"
_NOT_WEAK = "tensor is not weakly symmetric; bounds are formal quantities only"
_CLASS_122 = [[1, 2, 2], [2, 1, 2], [2, 2, 1]]  # one permutation class


@pytest.mark.parametrize("indices, value, warnings", [
    (_CLASS_122, -0.5, [_NEGATIVE]),  # still symmetric
    (_CLASS_122[:1], 1.0, [_NOT_WEAK]),
    (_CLASS_122[:1], -0.5, [_NEGATIVE, _NOT_WEAK]),
    ([], None, []),
], ids=["negative", "not_weakly_symmetric", "both", "neither"])
def test_bounds_warns_once_per_failed_hypothesis(capsys, tmp_path, indices, value, warnings):
    # Order 3, dim 2: every entry 0.5 but value at the given indices.
    path = str(tmp_path / "t.json")
    doc = {"order": 3, "dim": 2, "default": 0.5, "entries": [{"idx": idx, "value": value} for idx in indices]}
    Path(path).write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "bounds", path, "--json")
    assert code == EXIT_OK
    assert json.loads(out)["warnings"] == warnings
    code, out, _ = run_cli(capsys, "bounds", path)
    assert code == EXIT_OK
    assert out.splitlines()[5:] == [f"warning: {warning}" for warning in warnings]


def test_bounds_example2_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", EX2, "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["omega_max"] == pytest.approx(11.7268, abs=5e-4)
    assert doc["gershgorin"] == 14.5


def test_bounds_zero_tensor(capsys):
    code, out, _ = run_cli(capsys, "bounds", ZERO, "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["omega_max"] == 0 and doc["chain_middle"] == 0 and doc["gershgorin"] == 0


def test_bounds_json_round_trips_byte_identical(capsys):
    _, out, _ = run_cli(capsys, "bounds", EX1, "--json")
    assert render_json(json.loads(out)) == out


_AWKWARD_FLOATS = [0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1.7976931348623157e308, 0.1, float("inf"), float("nan")]


# Each needs escaping: a quote, a backslash, a newline, a control character,
# U+2028 and a character outside the BMP (a surrogate pair in the output).
_AWKWARD_STRINGS = ["s\u00e9p", 'q"t', "b\\s", "n\nl", "\x01", "\u2028", "\U0001f600"]


def _random_document(rng, depth=0):
    """A nested JSON document: dicts with awkward keys, lists of Python
    floats, mixed lists and every scalar kind the CLI prints, plus strings
    that need escaping and an int past 2**64."""
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        scalars = [1.5, True, None, 7, -0.0, 3, 2**70 + 1, *_AWKWARD_STRINGS]
        return scalars[int(rng.integers(0, len(scalars)))]
    if roll < 0.6:
        pool = _AWKWARD_FLOATS + list(rng.normal(size=4) * 10.0 ** rng.integers(-20, 20, 4))
        return [float(v) for v in rng.choice(pool, size=int(rng.integers(0, 6)))]
    if roll < 0.8:
        keys = [f"k{j}{rng.choice(_AWKWARD_STRINGS)}" for j in range(int(rng.integers(0, 4)))]
        return {key: _random_document(rng, depth + 1) for key in keys}
    return [_random_document(rng, depth + 1) for _ in range(int(rng.integers(0, 5)))] + [float(rng.normal()), 2]


def test_render_json_float_list_path_matches_item_by_item_rendering():
    rng = np.random.default_rng(12)
    for trial in range(400):
        doc = {"top": _random_document(rng), "floats": [float(v) for v in rng.normal(size=int(rng.integers(1, 5)))]}
        doc["almost"] = doc["floats"] + [True]  # a bool is not a float
        assert render_json(doc) == brute_render_json(doc) + "\n", trial
    # numpy scalars: np.float64 subclasses float and prints like one;
    # np.bool_ is neither a bool nor an int, and is rejected.
    doc = [np.float64(0.1), np.float64(-0.0)]
    assert render_json(doc) == brute_render_json(doc) + "\n" == "[\n  0.10000000000000001,\n  -0\n]\n"
    with pytest.raises(TypeError):
        render_json([1.0, np.bool_(True)])


def _symmetric_document(rng, order, dim):
    """A nonnegative symmetric tensor document: one uniform value per index multiset."""
    shape = (dim,) * order
    classes = np.sort(np.indices(shape).reshape(order, -1), axis=0)
    return {"order": order, "dim": dim, "values": rng.random(shape)[tuple(classes)].tolist()}


def test_render_json_of_hundreds_of_eigenpairs_matches_item_by_item_rendering(capsys, tmp_path):
    # Order 4, dim 7: Newton finds over a hundred pairs; eigs and verify print
    # the documents of the library's pairs and report, byte for byte.
    path = tmp_path / "m4n7.json"
    path.write_text(json.dumps(_symmetric_document(np.random.default_rng(7), 4, 7)), encoding="utf-8")
    tensor = parse_tensor(path.read_text(encoding="utf-8"))
    pairs = z_eigs_newton(tensor)
    assert len(pairs) >= 100
    eigs = [{"lambda": p.value, "x": p.x.tolist(), "residual": p.residual} for p in pairs]
    assert all(type(v) is float for d in eigs for v in [d["lambda"], d["residual"], *d["x"]])
    code, out, _ = run_cli(capsys, "eigs", str(path), "--method", "newton", "--json")
    assert code == EXIT_OK
    assert out == render_json(eigs) == brute_render_json(eigs) + "\n"

    report = verify_inclusion(tensor, pairs)
    checks = [{"in_omega": c.in_omega, "in_m": c.in_m, "in_k": c.in_k} for c in report.checks]
    verify = {"method": "newton", "seed": 0, "chain_ok": report.chain_ok, "eigenpairs": eigs,
              "omega_max": report.omega_max, "bound_applies": report.bound_applies, "checks": checks,
              "all_passed": report.all_passed}
    assert len(verify["checks"]) >= 100
    code, out, _ = run_cli(capsys, "verify", str(path), "--json")
    assert code == EXIT_OK
    assert out == render_json(verify) == brute_render_json(verify) + "\n"


# -- regions ---------------------------------------------------------------------


def test_regions_omega_supremum(capsys):
    code, out, _ = run_cli(capsys, "regions", EX1, "--set", "Omega")
    assert code == EXIT_OK
    assert out == "Omega: sup 4.39706\n"


def test_regions_all_nested_suprema(capsys):
    code, out, _ = run_cli(capsys, "regions", EX1, "--set", "all", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["Omega"]["supremum"] <= doc["M"]["supremum"] <= doc["K"]["supremum"]
    assert doc["Omega"]["supremum"] == pytest.approx(4.3971, abs=1e-4)
    assert doc["M"]["supremum"] == pytest.approx(31 / 6, rel=1e-12)
    assert doc["K"]["supremum"] == pytest.approx(16 / 3, rel=1e-12)


def test_regions_unknown_set_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "regions", EX1, "--set", "Q")
    assert code == EXIT_USAGE
    assert "invalid choice" in err


def test_regions_csv_export(tmp_path, capsys):
    csv_path = tmp_path / "omega.csv"
    code, _, _ = run_cli(capsys, "regions", EX1, "--set", "Omega", "--csv", str(csv_path))
    assert code == EXIT_OK
    header, sup = csv_path.read_text().splitlines()
    assert header == "supremum"
    assert float(sup) == pytest.approx(4.3970633623780984, rel=1e-15)


def test_regions_csv_requires_single_set(tmp_path, capsys):
    code, _, err = run_cli(capsys, "regions", EX1, "--csv", str(tmp_path / "r.csv"))
    assert code == EXIT_USAGE
    assert "single set" in err


@pytest.mark.parametrize("target, reason", [("missing/x.csv", "No such file or directory"), (".", "Is a directory")])
def test_regions_csv_that_cannot_be_written_is_usage_error(tmp_path, capsys, target, reason):
    path = str(tmp_path / target)
    code, out, err = run_cli(capsys, "regions", EX1, "--set", "K", "--csv", path)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: cannot write '{path}': {reason}\n"


def test_regions_are_one_interval_where_a_band_root_rounds_past_its_box(capsys):
    # One Omega pair's smaller root, 1.0086330573509419e17, is one ulp above
    # its box's cap: the set is still the disk [0, sup], and so is its region.
    code, out, _ = run_cli(capsys, "regions", ULP_HOLE, "--set", "all", "--json")
    assert code == EXIT_OK
    for doc in json.loads(out).values():
        assert doc["intervals"] == [{"lo": 0.0, "hi": doc["supremum"], "lo_open": False, "hi_open": False}]
    assert run_cli(capsys, "verify", ULP_HOLE)[0] == EXIT_OK


# Every fixture the parser accepts, but the two order-22 ones (4M entries each).
_LOADABLE = sorted(
    path.name for path in FIXTURES.glob("*.json")
    if path.name not in {"corrupt.json", "oversized_shape.json", "huge_integer.json", "huge_values.json",
                         "not_utf8.json", "ones_m22_n2.json", "ones_bumped_m22_n2.json"}
)


@pytest.mark.parametrize("name", _LOADABLE)
def test_regions_M_supremum_is_bounds_chain_middle_bit_for_bit(capsys, name):
    # One number per supremum.  In m_sup_ulp_m3_n2.json the band top of M's
    # largest pair rounds one ulp below its centre 2977707319257296.5.
    path = str(fixture_path(name))
    code, out, _ = run_cli(capsys, "regions", path, "--set", "M", "--json")
    assert code == EXIT_OK
    sup = json.loads(out)["M"]["supremum"]
    _, out, _ = run_cli(capsys, "bounds", path, "--json")
    assert sup == json.loads(out)["chain_middle"]


@pytest.mark.parametrize(
    "name",
    ["example1.json", "example2.json", "diagonal_123_m3.json", "zero_m2_n2.json", "rank_one_m4_n2.json", "jordan_rot_m2_n2.json"],
)
def test_regions_json_reports_each_set_as_a_nonempty_closed_disk(capsys, name):
    code, out, _ = run_cli(capsys, "regions", str(fixture_path(name)), "--set", "all", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    for region in doc.values():
        assert region["empty"] is False
        assert region["intervals"] == [{"lo": 0.0, "hi": region["supremum"], "lo_open": False, "hi_open": False}]
    assert doc["Omega"]["supremum"] <= doc["M"]["supremum"] <= doc["K"]["supremum"]


# -- eigs ------------------------------------------------------------------------


def test_eigs_sweep_example1(capsys):
    code, out, _ = run_cli(capsys, "eigs", EX1, "--method", "sweep", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc and all(list(item) == ["lambda", "x", "residual"] and len(item["x"]) == 2 for item in doc)
    values = [item["lambda"] for item in doc]
    assert values == sorted(values, reverse=True)
    assert all(item["residual"] <= 1e-12 for item in doc)


def test_eigs_newton_diagonal(capsys):
    code, out, _ = run_cli(
        capsys, "eigs", DIAG, "--method", "newton", "--restarts", "500", "--seed", "7", "--json"
    )
    assert code == EXIT_OK
    values = [item["lambda"] for item in json.loads(out)]
    assert any(abs(v - 3.0) <= 1e-9 for v in values)


def test_eigs_sweep_requires_dim2(capsys):
    code, _, err = run_cli(capsys, "eigs", EX2, "--method", "sweep")
    assert code == EXIT_USAGE
    assert "dim" in err


def test_eigs_bad_grid_and_restarts(capsys):
    # The dim-2 solve is exact: there is no grid to set.
    for command in ("eigs", "verify"):
        code, out, err = run_cli(capsys, command, EX1, "--grid", "100000")
        assert code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments: --grid" in err
    assert run_cli(capsys, "eigs", EX2, "--restarts", "0")[0] == EXIT_USAGE


def test_eigs_text_header_names_the_seed_of_newton_only(capsys):
    # The exact dim-2 solve takes no seed, as verify --json says with null.
    code, out, _ = run_cli(capsys, "eigs", EX1, "--seed", "5")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "found 2 eigenpair(s) (method: sweep)"
    _, out, _ = run_cli(capsys, "verify", EX1, "--seed", "5", "--json")
    assert json.loads(out)["seed"] is None
    code, out, _ = run_cli(capsys, "eigs", EX1, "--method", "newton", "--restarts", "50", "--seed", "5")
    assert code == EXIT_OK
    assert out.splitlines()[0].endswith(" eigenpair(s) (method: newton, seed: 5)")


def test_eigs_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "eigs", EX2, "--restarts", "200", "--seed", "42", "--json")
    _, out2, _ = run_cli(capsys, "eigs", EX2, "--restarts", "200", "--seed", "42", "--json")
    assert out1 == out2


_RUN_TO_RUN = [
    # At odd order each Newton pair comes with its mirror; all 1e-12 entries.
    ("ones_tiny_m3_n3", ["--method", "newton"], None),
    # All ones at order 4: many Newton steps meet a singular system and come
    # back NaN, without a numpy warning (an error under this suite's filter).
    ("ones_m4_n5", ["--method", "newton"], None),
    # 373 of 500 iterated restarts never converge; the block stops at trip 20.
    ("stall_m3_n3", ["--method", "newton"], 2),
    ("example1", ["--method", "newton"], None),
    ("example2", ["--method", "newton"], None),
    ("example1", [], None),  # the exact dim-2 solve
]


@pytest.mark.parametrize("name, flags, pairs", _RUN_TO_RUN,
                         ids=[f"{name}-{flags[-1] if flags else 'default'}" for name, flags, _ in _RUN_TO_RUN])
def test_eigs_json_is_identical_run_to_run(capsys, name, flags, pairs):
    # Identical file, flags and seed give identical stdout.
    first, second = (run_cli(capsys, "eigs", str(fixture_path(f"{name}.json")), *flags, "--json") for _ in range(2))
    assert first == second
    code, out, err = first
    assert (code, err) == (EXIT_OK, "")
    found = json.loads(out)
    assert found and (pairs is None or len(found) == pairs)


# -- verify ----------------------------------------------------------------------


def test_verify_example1_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", EX1)
    assert code == EXIT_OK
    assert "all checks passed" in out


def test_verify_passes_on_all_ones_with_singular_newton_systems(capsys):
    code, out, err = run_cli(capsys, "verify", ONES_M4_N5)
    assert (code, err) == (EXIT_OK, "")
    assert out.endswith("\nall checks passed\n")


def test_verify_example2_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", EX2, "--restarts", "300")
    assert code == EXIT_OK


def test_verify_all_ones_order_22(capsys):
    # g = (x_1 + x_2)^21 (x_2 - x_1): the root at λ = 0 is 21-fold.
    code, out, _ = run_cli(capsys, "verify", ONES22, "--json")
    assert code == EXIT_OK
    values = [p["lambda"] for p in json.loads(out)["eigenpairs"]]
    assert len(values) == 2
    assert values[0] == pytest.approx(2048.0, rel=1e-12)
    assert values[1] == pytest.approx(0.0, abs=1e-12)


def test_verify_injected_escape_fails(capsys):
    # 53.33 escapes every set of example1; 12 escapes only example2's Omega
    # (omega_max 11.73 < 12 < chain_middle 14.24), whose supremum is the bound.
    for path, value, problems in ((EX1, "53.33", "not in Omega; not in M; not in K"),
                                  (EX2, "12", "not in Omega")):
        code, out, _ = run_cli(capsys, "verify", path, "--restarts", "50", "--inject-lambda", value)
        assert code == EXIT_VERIFY
        assert f"VIOLATION lambda {value}: {problems}\n" in out
        assert out.endswith("1 violation(s)\n")


def test_verify_injected_escape_of_a_tiny_tensor_fails(capsys):
    # All entries 1e-12: omega_max is 9e-12, so 5e-9 lies far outside every
    # region; the inclusion tolerance shrinks with the tensor.
    code, out, _ = run_cli(capsys, "verify", ONES_TINY, "--inject-lambda", "5e-9")
    assert code == EXIT_VERIFY
    assert "VIOLATION" in out


def test_verify_checks_the_pairs_of_a_huge_tensor(capsys):
    code, out, _ = run_cli(capsys, "verify", ONES_HUGE, "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["eigenpairs"]) >= 1
    assert doc["all_passed"]


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "abc"])
def test_verify_injected_lambda_must_be_finite(capsys, value):
    # a non-finite value would be written into the --json report as bare nan/inf
    code, out, err = run_cli(capsys, "verify", EX1, "--inject-lambda", value, "--json")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: argument --inject-lambda: expected a finite number, got {value!r}\n"


def test_verify_json_report(capsys):
    code, out, _ = run_cli(capsys, "verify", EX2, "--restarts", "300", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert list(doc) == [
        "method",
        "seed",
        "chain_ok",
        "eigenpairs",
        "omega_max",
        "bound_applies",
        "checks",
        "all_passed",
    ]
    assert (doc["method"], doc["seed"]) == ("newton", 0)
    assert doc["chain_ok"] is True
    assert doc["all_passed"] is True
    assert doc["checks"] and len(doc["checks"]) == len(doc["eigenpairs"])
    assert all(list(item) == ["lambda", "x", "residual"] for item in doc["eigenpairs"])
    assert all(list(check) == ["in_omega", "in_m", "in_k"] for check in doc["checks"])
    assert render_json(doc) == out


def test_violated_bound_chain_fails_the_library_and_the_cli_alike(capsys, monkeypatch):
    # Every pair of example1 passes, so the chain check alone decides.
    monkeypatch.setattr(regions, "_CHAIN_SLACK", -math.inf)
    tensor = load_fixture("example1.json")
    report = verify_inclusion(tensor, z_eigs_sweep_n2(tensor))
    assert report.failures() == []
    assert report.chain_ok is False
    assert report.all_passed is False

    code, out, _ = run_cli(capsys, "verify", EX1)
    assert code == EXIT_VERIFY
    assert "chain ordering: VIOLATED\n" in out
    assert out.endswith("1 violation(s)\n")

    code, out, _ = run_cli(capsys, "verify", EX1, "--json")
    assert code == EXIT_VERIFY
    doc = json.loads(out)
    assert doc["chain_ok"] is False
    assert doc["all_passed"] is False

    code, out, _ = run_cli(capsys, "bounds", EX1)
    assert code == EXIT_VERIFY
    assert out.endswith("\ngershgorin: 5.33333\nwarning: internal error: bound chain ordering violated\n")
    code, out, _ = run_cli(capsys, "bounds", EX1, "--json")
    assert code == EXIT_VERIFY
    assert json.loads(out)["warnings"] == ["internal error: bound chain ordering violated"]


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_a_chain_middle_one_ulp_above_gershgorin_is_no_violation(capsys, command):
    # chain_middle rounds to 20376.09250453987, one ulp above gershgorin
    # 20376.092504539865: far inside a slack relative to the chain's top.
    code, out, err = run_cli(capsys, command, CHAIN_ULP)
    assert code == EXIT_OK, out
    assert "internal error" not in out + err


@pytest.mark.parametrize(
    "command, calls",
    [(["verify", "--json"], 2), (["bounds", "--json"], 2), (["regions", "--set", "all"], 2),
     (["regions", "--set", "Omega"], 1), (["info"], 0)],
)
@pytest.mark.parametrize("path", [EX1, EX2], ids=["example1", "example2"])
def test_each_pair_table_is_built_once_per_command(capsys, monkeypatch, path, command, calls):
    # Each of Omega's and M's tables solves its pairs' quadratics in one call.
    solved = []
    solve = regions._band_top

    def counted(*args):
        solved.append(args)
        return solve(*args)

    monkeypatch.setattr(regions, "_band_top", counted)
    code, _, err = run_cli(capsys, command[0], path, *command[1:])
    assert code == EXIT_OK, err
    assert len(solved) == calls


# -- golden bytes ----------------------------------------------------------------


# In m_sup_ulp_m3_n2 M's largest band top rounds one ulp below its centre,
# which M's pair top is raised to: chain_middle and M's supremum print the centre.
_JSON_GOLDENS = [
    (name, command)
    for name in ("example1", "example2") for command in (["info"], ["bounds"], ["regions", "--set", "all"])
] + [("m_sup_ulp_m3_n2", ["bounds"]), ("m_sup_ulp_m3_n2", ["regions", "--set", "all"])]


@pytest.mark.parametrize(
    "name, command", _JSON_GOLDENS, ids=[f"{name}.{command[0]}" for name, command in _JSON_GOLDENS]
)
def test_json_output_matches_golden_bytes(capsys, name, command):
    code, out, _ = run_cli(capsys, command[0], str(fixture_path(f"{name}.json")), *command[1:], "--json")
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{command[0]}.json").read_bytes()


_TEXT_GOLDENS = [
    (f"{name}.{command[0]}", [command[0], name, *command[1:]], EXIT_OK)
    for name in ("example1", "example2") for command in (["info"], ["bounds"], ["regions", "--set", "all"])
] + [
    ("example1.verify", ["verify", "example1"], EXIT_OK),
    # 4.5 lies outside example1's Omega (4.397) and inside its M (5.167) and K (5.333).
    ("example1.verify_inject", ["verify", "example1", "--inject-lambda", "4.5"], EXIT_VERIFY),
    ("m_sup_ulp_m3_n2.bounds", ["bounds", "m_sup_ulp_m3_n2"], EXIT_OK),
]


@pytest.mark.parametrize("golden, command, expected", _TEXT_GOLDENS, ids=[golden for golden, _, _ in _TEXT_GOLDENS])
def test_text_output_matches_golden_bytes(capsys, golden, command, expected):
    code, out, _ = run_cli(capsys, command[0], str(fixture_path(f"{command[1]}.json")), *command[2:])
    assert code == expected
    assert out.encode("utf-8") == (GOLDEN / f"{golden}.txt").read_bytes()


@pytest.mark.parametrize("region", ["K", "M", "Omega"])
@pytest.mark.parametrize("name", ["example1", "example2"])
def test_regions_csv_matches_golden_bytes(capsys, tmp_path, name, region):
    csv_path = tmp_path / f"{region}.csv"
    code, _, _ = run_cli(capsys, "regions", str(fixture_path(f"{name}.json")), "--set", region, "--csv", str(csv_path))
    assert code == EXIT_OK
    assert csv_path.read_bytes() == (GOLDEN / f"{name}.{region}.csv").read_bytes()


# -- exit-code contract over the fixture corpus --------------------------------------


@pytest.mark.parametrize("command", ["info", "bounds", "regions", "eigs", "verify"])
@pytest.mark.parametrize(
    "path, ok",
    [
        (EX1, True),
        (EX2, True),
        (DIAG, True),
        (ZERO, True),
        (RANK1, True),
        (CORRUPT, False),
        (OVERSIZED, False),
        (HUGE_INT, False),
    ],
)
def test_exit_code_contract(capsys, command, path, ok):
    args = [command, path]
    if command in ("eigs", "verify"):
        args += ["--restarts", "50"]
    code, _, err = run_cli(capsys, *args)
    if ok:
        assert code == EXIT_OK, err
    else:
        assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["info", "bounds", "regions", "eigs", "verify"])
def test_entry_magnitude_past_the_limit_is_input_error(capsys, command):
    # Without the limit, entries of 1e300 overflow the region quadratics (inf
    # and nan bounds, a spurious chain violation) behind numpy RuntimeWarnings.
    code, out, err = run_cli(capsys, command, HUGE_VALUES)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {HUGE_VALUES}: values[0]: magnitude must be <= 1e+100, got 1e+300\n"


@pytest.mark.parametrize(
    "flags, message",
    [(["--restarts", str(MAX_RESTARTS + 1)], f"<= {MAX_RESTARTS}"), (["--seed", "-1"], "unsigned 64-bit")],
    ids=["restarts", "seed"],
)
@pytest.mark.parametrize("path", [EX1, EX2], ids=["example1", "example2"])  # example1: exact solve
@pytest.mark.parametrize("command", ["eigs", "verify"])
def test_oversized_oracle_flags_are_usage_errors(capsys, command, path, flags, message):
    # Just above the limit, so nothing is allocated: the flag is rejected first.
    code, out, err = run_cli(capsys, command, path, *flags)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


def test_no_command_is_usage_error(capsys):
    code, out, err = run_cli(capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: a command is required (info, bounds, regions, eigs, verify)\n"


def test_cli_runs_as_module(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "zeig.cli", "bounds", EX1, "--json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["omega_max"] == pytest.approx(4.3971, abs=1e-4)


@pytest.mark.parametrize("args", [["info", EX1], ["eigs", JORDAN, "--method", "newton"]])
def test_closed_stdout_exits_1_without_a_traceback(args):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        result = subprocess.run(
            [sys.executable, "-m", "zeig.cli", *args], stdout=write_end, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(write_end)
    assert result.returncode == EXIT_USAGE
    assert result.stderr == ""


# -- per-process state: the one parser, the GC pause -----------------------------


# Each command of every kind, with the exit code it must give, in an order in
# which a flag of one command could reach the next.
_SEQUENCE = [
    ([command, path, *flags, "--json"], EXIT_OK) for path in (EX1, EX2) for command, *flags in (
        ["info"], ["bounds"], ["regions", "--set", "all"], ["eigs", "--method", "newton"], ["verify"])
] + [
    (["eigs", EX1, "--json"], EXIT_OK),
    (["verify", EX1, "--inject-lambda", "nan"], EXIT_USAGE),
    (["eigs", EX1, "--restarts", "0"], EXIT_USAGE),
    (["verify", EX1, "--seed", "-1"], EXIT_USAGE),
    (["verify", EX1, "--inject-lambda", "100", "--json"], EXIT_VERIFY),
    (["--help"], EXIT_OK),
    (["verify", EX1, "--seed", "x"], EXIT_USAGE),
    (["verify", EX1, "--json"], EXIT_OK),
    (["regions", EX1, "--set", "all"], EXIT_OK),
    (["eigs", "--help"], EXIT_OK),
    (["verify", "--help"], EXIT_OK),
    ([], EXIT_USAGE),
]


def test_reused_parser_gives_each_command_its_output_run_alone(capsys, monkeypatch):
    # main reuses one parser for the life of the process.  A flag given to one
    # command must not reach the next, nor --help or a usage error in between.
    monkeypatch.setenv("COLUMNS", "80")  # help's width, here and in the lone processes
    in_process = [run_cli(capsys, *argv) for argv, _ in _SEQUENCE]
    for (argv, expected), got in zip(_SEQUENCE, in_process):
        assert got[0] == expected, argv
        alone = subprocess.run([sys.executable, "-m", "zeig.cli", *argv], capture_output=True, text=True)
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv
    # 100 escapes K: one check row per pair, and only the injected one fails;
    # the chain still holds.  The verify that follows holds no injected pair.
    out = {tuple(argv): got[1] for (argv, _), got in zip(_SEQUENCE, in_process)}
    injected = json.loads(out["verify", EX1, "--inject-lambda", "100", "--json"])
    after = json.loads(out["verify", EX1, "--json"])
    assert injected["chain_ok"] and not injected["all_passed"]
    assert 100.0 in [p["lambda"] for p in injected["eigenpairs"]]
    assert len(injected["checks"]) == len(injected["eigenpairs"])
    assert [c["in_k"] for c in injected["checks"]].count(False) == 1
    assert after["all_passed"] and 100.0 not in [p["lambda"] for p in after["eigenpairs"]]


def test_gc_is_paused_while_a_document_is_parsed(capsys, monkeypatch):
    seen = []

    def recorded_parse(text):
        seen.append(gc.isenabled())
        return parse_tensor(text)

    monkeypatch.setattr(cli, "parse_tensor", recorded_parse)
    assert gc.isenabled()
    assert run_cli(capsys, "info", EX1)[0] == EXIT_OK
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("path, expected", [(EX1, EXIT_OK), (CORRUPT, EXIT_USAGE), (NOT_UTF8, EXIT_USAGE)],
                         ids=["valid", "invalid_json", "not_utf8"])
def test_gc_is_back_on_after_a_command(capsys, path, expected):
    assert gc.isenabled()
    assert run_cli(capsys, "info", path)[0] == expected
    assert gc.isenabled()


def test_gc_the_caller_disabled_stays_disabled(capsys):
    gc.disable()
    try:
        assert run_cli(capsys, "info", EX1)[0] == EXIT_OK
        assert run_cli(capsys, "info", CORRUPT)[0] == EXIT_USAGE
        assert not gc.isenabled()
    finally:
        gc.enable()
