"""Batch command line front end.

Subcommands:
    coeffs   difference-operator coefficient tables (json, csv or latex)
    poly     one polynomial from either family, in canonical text
    verify   run verification suites, emit a JSON report
    moments  moments of the weight as polynomials in a

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.  Every
index argument is at most INDEX_LIMIT; a larger one is a usage error, and so
is a --corrupt-ai order that the selected verify run never reads.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import Callable, Sequence

from .classical import charlier, moment
from .diffeq import CoeffTable, build_coeff_table, coeff_ai
from .pointmass import gen_charlier
from .polynomials import Poly, Var
from .verify import SUITES, SuiteSpec, run_suite
from .version import __version__

# Largest index any argument takes.  At this bound the slowest command,
# verify --suite all --n-max 30 --i-max 30, takes under a minute (1.1-1.9 s
# on a 2-vCPU Xeon, Python 3.11, and 1.9-2.8 s on one CPU, 8 runs each); far
# larger indices run for hours or reach the exponent limit.
INDEX_LIMIT = 30


def _coeffs_json(table: CoeffTable) -> str:
    payload = {
        "a0": [{"n": n, "poly": str(p)} for n, p in sorted(table.a0.items())],
        "ai": [
            {
                "i": i,
                "poly": str(p),
                "deg_x": p.degree_in(Var.X),
                "deg_a": p.degree_in(Var.A),
            }
            for i, p in sorted(table.ai.items())
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _coeffs_csv(table: CoeffTable) -> str:
    import csv  # only --format csv needs it; kept off every other call's start-up

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "index", "poly", "deg_x", "deg_a"])
    for n, p in sorted(table.a0.items()):
        writer.writerow(["a0", n, str(p), p.degree_in(Var.X), p.degree_in(Var.A)])
    for i, p in sorted(table.ai.items()):
        writer.writerow(["ai", i, str(p), p.degree_in(Var.X), p.degree_in(Var.A)])
    return buf.getvalue()


def _coeffs_latex(table: CoeffTable) -> str:
    rows = [f"A_0({n}) &= {p.latex()}" for n, p in sorted(table.a0.items())]
    rows += [f"A_{{{i}}}(x) &= {p.latex()}" for i, p in sorted(table.ai.items())]
    body = " \\\\\n".join(rows)
    return "\\begin{align*}\n" + body + "\n\\end{align*}\n"


def _error(message: str) -> None:
    """Write one error line to stderr; a closed stderr loses it, not the exit code."""
    try:
        sys.stderr.write(f"charlier: error: {message}\n")
        sys.stderr.flush()
    except (AttributeError, OSError):
        pass


def _emit(text: str, out: str | None) -> None:
    # An empty --out names no file: open('') fails like any other bad path.
    try:
        if out is not None:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        elif sys.stdout is None:
            raise OSError("file descriptor 1 is closed")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        # Exit 1 means an identity failed; an I/O error is exit 2.
        target = "stdout" if out is None else repr(out)
        _error(f"cannot write {target}: {exc.strerror or exc}")
        if out is None and sys.stdout is not None:
            # A buffered stdout keeps what the failed flush could not write, and
            # the interpreter flushes it again at shutdown: on the same device
            # that prints a second error and exits 120. Send the rest to null.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(2) from None


def _cmd_coeffs(args: argparse.Namespace) -> int:
    table = build_coeff_table(args.max_i)
    renderers = {"json": _coeffs_json, "csv": _coeffs_csv, "latex": _coeffs_latex}
    _emit(renderers[args.format](table), args.out)
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    build = charlier if args.family == "charlier" else gen_charlier
    _emit(str(build(args.n)) + "\n", args.out)
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    rows = [{"k": k, "poly": str(moment(k))} for k in range(args.max_k + 1)]
    _emit(json.dumps(rows, indent=2) + "\n", args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = SuiteSpec(suite=args.suite, n_max=args.n_max, i_max=args.i_max)
    coeffs = None
    if args.corrupt_ai is not None:
        bad = args.corrupt_ai
        # A self test that corrupts nothing would pass and prove nothing.
        if not spec.reads_ai(bad):
            _error(
                f"--corrupt-ai {bad} is not read by "
                f"--suite {args.suite} --n-max {args.n_max} --i-max {args.i_max}"
            )
            return 2

        def coeffs(i: int, bad: int = bad) -> Poly:
            table = coeff_ai(i)
            return -table if i == bad else table

    report = run_suite(spec, coeffs)
    _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    return 0 if report.all_passed() else 1


def _index(low: int) -> Callable[[str], int]:
    """Argument type of an integer index in [low, INDEX_LIMIT]."""

    def index(text: str) -> int:
        value = int(text)
        if not low <= value <= INDEX_LIMIT:
            raise argparse.ArgumentTypeError(f"must be in [{low}, {INDEX_LIMIT}]")
        return value

    return index


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charlier",
        description="Exact tables and identity verification for Charlier "
        "polynomials and their point-mass generalization.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeffs = sub.add_parser("coeffs", help="emit the operator coefficient table")
    p_coeffs.add_argument("--max-i", type=_index(1), default=12, metavar="I")
    p_coeffs.add_argument("--format", choices=("json", "csv", "latex"), default="json")
    p_coeffs.add_argument("--out", metavar="FILE")
    p_coeffs.set_defaults(handler=_cmd_coeffs)

    p_poly = sub.add_parser("poly", help="print one polynomial in canonical text")
    p_poly.add_argument("family", choices=("charlier", "generalized"))
    p_poly.add_argument("n", type=_index(0))
    p_poly.add_argument("--out", metavar="FILE")
    p_poly.set_defaults(handler=_cmd_poly)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite",
        choices=(*SUITES, "all"),
        default="all",
    )
    p_verify.add_argument("--n-max", type=_index(0), default=12, metavar="N")
    p_verify.add_argument("--i-max", type=_index(1), default=12, metavar="I")
    p_verify.add_argument(
        "--corrupt-ai",
        type=_index(1),
        default=None,
        metavar="I",
        help="negate the order-I coefficient first (failure-path self test); "
        "the run must read it: suite diffeq or all, I <= max(--n-max, --i-max)",
    )
    p_verify.add_argument("--out", metavar="FILE")
    p_verify.set_defaults(handler=_cmd_verify)

    p_moments = sub.add_parser("moments", help="emit weight moments as JSON rows")
    p_moments.add_argument("--max-k", type=_index(0), default=10, metavar="K")
    p_moments.add_argument("--out", metavar="FILE")
    p_moments.set_defaults(handler=_cmd_moments)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)
