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

from conftest import fixture_path, load_fixture
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
    assert doc["omega_max"] == pytest.approx(4.3971, abs=1e-4)
    assert doc["gershgorin"] == pytest.approx(5.3333, abs=1e-4)
    assert doc["attaining_pair"] == [2, 1]
    assert doc["warnings"] == []


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
    eigs = [p.to_dict() for p in pairs]
    assert all(type(v) is float for d in eigs for v in [d["lambda"], d["residual"], *d["x"]])
    code, out, _ = run_cli(capsys, "eigs", str(path), "--method", "newton", "--json")
    assert code == EXIT_OK
    assert out == render_json(eigs) == brute_render_json(eigs) + "\n"

    report = verify_inclusion(tensor, pairs)
    verify = {"method": "newton", "seed": 0, "chain_ok": report.chain_ok, "eigenpairs": eigs, **report.to_dict()}
    assert len(verify["checks"]) >= 100
    code, out, _ = run_cli(capsys, "verify", str(path), "--json")
    assert code == EXIT_OK
    assert out == render_json(verify) == brute_render_json(verify) + "\n"


# -- regions ---------------------------------------------------------------------


def test_regions_omega_supremum(capsys):
    code, out, _ = run_cli(capsys, "regions", EX1, "--set", "Omega")
    assert code == EXIT_OK
    assert "Omega" in out
    assert "4.39706" in out


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
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "lo,hi,lo_open,hi_open"
    lo, hi, lo_open, hi_open = lines[1].split(",")
    assert float(lo) == 0.0
    assert float(hi) == pytest.approx(4.3970633623780984, rel=1e-15)
    assert (lo_open, hi_open) == ("0", "0")


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
    assert doc
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


def test_eigs_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "eigs", EX2, "--restarts", "200", "--seed", "42", "--json")
    _, out2, _ = run_cli(capsys, "eigs", EX2, "--restarts", "200", "--seed", "42", "--json")
    assert out1 == out2


# -- verify ----------------------------------------------------------------------


def test_verify_example1_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", EX1)
    assert code == EXIT_OK
    assert "all checks passed" in out


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
    code, out, _ = run_cli(capsys, "verify", EX1, "--inject-lambda", "53.33")
    assert code == EXIT_VERIFY
    assert "VIOLATION" in out
    assert "not in Omega" in out


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
    assert doc["method"] == "newton"
    assert doc["chain_ok"] is True
    assert doc["all_passed"] is True
    assert doc["checks"]
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
    assert f"warning: {regions.CHAIN_VIOLATION_WARNING}\n" in out


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


@pytest.mark.parametrize("command", [["info"], ["bounds"], ["regions", "--set", "all"]])
@pytest.mark.parametrize("name", ["example1", "example2"])
def test_json_output_matches_golden_bytes(capsys, name, command):
    code, out, _ = run_cli(capsys, command[0], str(fixture_path(f"{name}.json")), *command[1:], "--json")
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{command[0]}.json").read_bytes()


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_regions_text_matches_golden_bytes(capsys, name):
    code, out, _ = run_cli(capsys, "regions", str(fixture_path(f"{name}.json")), "--set", "all")
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / f"{name}.regions.txt").read_bytes()


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


def test_reused_parser_gives_each_command_its_output_run_alone(capsys, monkeypatch):
    # main reuses one parser for the life of the process.  A flag given to one
    # command must not reach the next, nor --help or a usage error in between.
    monkeypatch.setenv("COLUMNS", "80")  # help's width, here and in the lone processes
    sequence = [
        ["verify", EX1, "--inject-lambda", "100", "--json"],
        ["--help"],
        ["verify", EX1, "--seed", "x"],
        ["verify", EX1, "--json"],
    ]
    in_process = [run_cli(capsys, *argv) for argv in sequence]
    for argv, got in zip(sequence, in_process):
        alone = subprocess.run([sys.executable, "-m", "zeig.cli", *argv], capture_output=True, text=True)
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv
    (injected_code, injected, _), _, (usage_code, _, _), (code, out, _) = in_process
    assert injected_code == EXIT_VERIFY and usage_code == EXIT_USAGE
    assert 100.0 in [p["lambda"] for p in json.loads(injected)["eigenpairs"]]
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["all_passed"] and 100.0 not in [p["lambda"] for p in doc["eigenpairs"]]


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
