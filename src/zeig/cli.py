"""Command-line front end.

Commands: info, bounds, regions, eigs, verify.  Every command accepts
--json for machine-readable output.  Exit codes: 0 success / all checks
pass, 1 usage or input error or a stdout closed by its reader, 2
verification failure (an eigenvalue escaped a region or the bound chain
ordering failed).

Machine formats print floats with 17 significant digits so that reports
round-trip bit-exactly; human tables use 6 significant digits.  The library
returns numbers and verdicts: this module alone writes every output line
and every --json document, its keys and their order.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .oracle import (
    MAX_RESTARTS,
    Eigenpair,
    OracleConfig,
    verify_inclusion,
    z_eigs_newton,
    z_eigs_sweep_n2,
)
from .regions import compare_report, region_K, region_M, region_Omega
from .tensor import DenseTensor, TensorFormatError, parse_tensor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

_REGION_BUILDERS = {"K": region_K, "M": region_M, "Omega": region_Omega}


class UsageError(Exception):
    """Bad flags or unreadable/malformed input; maps to exit code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- deterministic JSON with 17-significant-digit floats ----------------------


def render_json(value) -> str:
    def unserializable(item):
        raise TypeError(f"cannot serialize {type(item).__name__}")

    # json.dumps always prints floats with float.__repr__; the encoder's private
    # _make_iterencode is the one stdlib entry point that takes a float format.
    # Its first ten parameters are the same in Python 3.10 through 3.13.
    iterencode = json.encoder._make_iterencode(
        None, unserializable, json.encoder.encode_basestring_ascii, "  ", "{:.17g}".format,
        ": ", ",", False, False, False,
    )
    return "".join(iterencode(value, 0)) + "\n"


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _load_tensor(path: str) -> DenseTensor:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read '{path}': {getattr(exc, 'strerror', None) or exc}") from None
    # A parsed JSON document holds no reference cycles, so a cyclic collection
    # during the parse frees nothing.  The pause is here, not in parse_tensor,
    # because the GC is one switch for the whole process and its threads.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return parse_tensor(text)
    except TensorFormatError as exc:
        raise UsageError(f"{path}: {exc}") from None
    finally:
        if gc_was_enabled:
            gc.enable()


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # not a number either: the same message
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# -- commands ------------------------------------------------------------------


def cmd_info(tensor: DenseTensor, args) -> int:
    agg = tensor.aggregates()
    doc = {
        "order": tensor.order,
        "dim": tensor.dim,
        "entry_count": tensor.dim**tensor.order,
        "nonnegative": tensor.is_nonnegative(),
        "symmetric": tensor.is_symmetric(),
        "weakly_symmetric": tensor.is_weakly_symmetric(),
        "row_sums": [float(v) for v in agg.row_sums],
        "max_row_sum": region_K(agg),
    }
    if args.json:
        sys.stdout.write(render_json(doc))
    else:
        print(f"order: {doc['order']}")
        print(f"dim: {doc['dim']}")
        print(f"entry count: {doc['entry_count']}")
        print(f"nonnegative: {'yes' if doc['nonnegative'] else 'no'}")
        print(f"symmetric: {'yes' if doc['symmetric'] else 'no'}")
        print(f"weakly symmetric: {'yes' if doc['weakly_symmetric'] else 'no'}")
        for i, v in enumerate(doc["row_sums"], start=1):
            print(f"row sum {i}: {_fmt(v)}")
        print(f"max row sum: {_fmt(doc['max_row_sum'])}")
    return EXIT_OK


def cmd_bounds(tensor: DenseTensor, args) -> int:
    report = compare_report(tensor, tensor.aggregates())
    failed = {
        "tensor has negative entries; bounds are formal quantities only": not report.nonnegative,
        "tensor is not weakly symmetric; bounds are formal quantities only": not report.weakly_symmetric,
        "internal error: bound chain ordering violated": not report.chain_ok,
    }
    warnings = [text for text, bad in failed.items() if bad]
    # omega_tilde_max is omega_max; bench/checks.py reads it, and ROADMAP item 7 drops it with the benchmark.
    if args.json:
        doc = {
            "omega_max": report.omega_max,
            "omega_hat_max": report.omega_hat_max,
            "omega_tilde_max": report.omega_max,
            "chain_middle": report.chain_middle,
            "gershgorin": report.gershgorin,
            "attaining_pair": list(report.attaining_pair),
            "warnings": warnings,
        }
        sys.stdout.write(render_json(doc))
    else:
        i, j = report.attaining_pair
        print(f"omega_max: {_fmt(report.omega_max)} (attained at pair ({i}, {j}))")
        print(f"omega_hat_max: {_fmt(report.omega_hat_max)}")
        print(f"omega_tilde_max: {_fmt(report.omega_max)}")
        print(f"chain_middle: {_fmt(report.chain_middle)}")
        print(f"gershgorin: {_fmt(report.gershgorin)}")
        for warning in warnings:
            print(f"warning: {warning}")
    return EXIT_OK if report.chain_ok else EXIT_VERIFY


def cmd_regions(tensor: DenseTensor, args) -> int:
    agg = tensor.aggregates()
    names = list(_REGION_BUILDERS) if args.set == "all" else [args.set]
    if args.csv is not None and len(names) != 1:
        raise UsageError("--csv requires a single set (K, M or Omega), not 'all'")
    # Each set is the closed disk [0, sup], printed as its sup.
    sups = {name: _REGION_BUILDERS[name](agg) for name in names}
    if args.csv is not None:
        try:
            Path(args.csv).write_text(f"supremum\n{sups[names[0]]:.17g}\n", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write '{args.csv}': {exc.strerror or exc}") from None
    if args.json:
        doc = {name: {"intervals": [{"lo": 0.0, "hi": sup, "lo_open": False, "hi_open": False}],
                      "supremum": sup, "empty": False} for name, sup in sups.items()}
        sys.stdout.write(render_json(doc))
    else:
        for name, sup in sups.items():
            print(f"{name}: sup {_fmt(sup)}")
    return EXIT_OK


def _run_oracle(tensor: DenseTensor, args) -> tuple[str, list[Eigenpair]]:
    """--method, by default the exact solve in dim 2 and Newton otherwise, and its eigenpairs."""
    try:
        config = OracleConfig(restarts=args.restarts, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    method = args.method or ("sweep" if tensor.dim == 2 else "newton")
    if method == "newton":
        return method, z_eigs_newton(tensor, config)
    if tensor.dim != 2:
        raise UsageError(f"method 'sweep' requires dim = 2, tensor has dim {tensor.dim}")
    return method, z_eigs_sweep_n2(tensor)


def _eigenpair_rows(pairs: list[Eigenpair]) -> list[dict]:
    """The eigenpairs as eigs and verify write them, one JSON object each."""
    return [{"lambda": p.value, "x": p.x.tolist(), "residual": p.residual} for p in pairs]


def cmd_eigs(tensor: DenseTensor, args) -> int:
    method, pairs = _run_oracle(tensor, args)
    if args.json:
        sys.stdout.write(render_json(_eigenpair_rows(pairs)))
    else:
        seed = f", seed: {args.seed}" if method == "newton" else ""  # the exact solve takes none
        print(f"found {len(pairs)} eigenpair(s) (method: {method}{seed})")
        for p in pairs:
            xs = ", ".join(_fmt(v) for v in p.x)
            print(f"lambda {_fmt(p.value)}  residual {p.residual:.3e}  x [{xs}]")
    return EXIT_OK


def cmd_verify(tensor: DenseTensor, args) -> int:
    method, pairs = _run_oracle(tensor, args)
    if args.inject_lambda is not None:
        # Fault-injection hook: append a fabricated eigenpair to exercise the
        # failure path end to end.
        x = np.zeros(tensor.dim)
        x[0] = 1.0
        pairs = pairs + [Eigenpair(float(args.inject_lambda), x, 0.0)]
    report = verify_inclusion(tensor, pairs)
    if args.json:
        doc = {
            "method": method,
            "seed": args.seed if method == "newton" else None,
            "chain_ok": report.chain_ok,
            "eigenpairs": _eigenpair_rows(pairs),
            "omega_max": report.omega_max,
            "bound_applies": report.bound_applies,
            "checks": [{"in_omega": c.in_omega, "in_m": c.in_m, "in_k": c.in_k} for c in report.checks],
            "all_passed": report.all_passed,
        }
        sys.stdout.write(render_json(doc))
    else:
        print(f"method: {method}")
        print(f"eigenpairs: {len(pairs)}")
        print(f"omega_max: {_fmt(report.omega_max)}")
        print(f"bound applies: {'yes' if report.bound_applies else 'no'}")
        print(f"chain ordering: {'ok' if report.chain_ok else 'VIOLATED'}")
        for check in report.failures():
            failed = {"not in Omega": not check.in_omega, "not in M": not check.in_m, "not in K": not check.in_k}
            print(f"VIOLATION lambda {_fmt(check.value)}: {'; '.join(text for text, bad in failed.items() if bad)}")
        if report.all_passed:
            print("all checks passed")
        else:
            print(f"{len(report.failures()) + (0 if report.chain_ok else 1)} violation(s)")
    return EXIT_OK if report.all_passed else EXIT_VERIFY


# -- parser --------------------------------------------------------------------


def _add_oracle_flags(p: _ArgumentParser) -> None:
    p.add_argument("--restarts", type=int, default=OracleConfig.restarts,
                   help=f"newton restarts (default %(default)s, at most {MAX_RESTARTS})")
    p.add_argument("--seed", type=int, default=OracleConfig.seed, help="newton master seed (default %(default)s)")


def build_parser() -> _ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    common.add_argument("file", help="tensor JSON file")

    parser = _ArgumentParser(
        prog="zeig",
        description="Z-eigenvalue inclusion regions and spectral-radius bounds for real tensors.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_ArgumentParser)

    p = sub.add_parser("info", parents=[common], help="tensor structure and row sums")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("bounds", parents=[common], help="closed-form spectral-radius bounds")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("regions", parents=[common], help="each inclusion set's supremum")
    p.add_argument("--set", choices=[*_REGION_BUILDERS, "all"], default="all", help="which set to print")
    p.add_argument("--csv", metavar="PATH", help="write the chosen set as CSV (single set only)")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("eigs", parents=[common], help="find Z-eigenpairs")
    p.add_argument("--method", choices=["sweep", "newton"], help="default: sweep when dim = 2, else newton")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_eigs)

    p = sub.add_parser("verify", parents=[common], help="check found eigenvalues against regions and bounds")
    _add_oracle_flags(p)
    p.add_argument("--inject-lambda", type=_finite_float, default=None, metavar="VALUE",
                   help="fault-injection hook: add a fabricated finite eigenvalue before verification")
    p.set_defaults(func=cmd_verify, method=None)

    return parser


# Built once per process: parse_args returns a fresh Namespace on every call
# and help reads the terminal width only when it is printed, so main can reuse it.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("a command is required (info, bounds, regions, eigs, verify)")
        code = args.func(_load_tensor(args.file), args)
        sys.stdout.flush()  # a reader that closed stdout early fails it here, not at exit
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help exits through argparse
        return int(exc.code or 0)
    except BrokenPipeError:
        # Unflushed output would fail again when the interpreter exits.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
