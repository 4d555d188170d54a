"""Command line interface.

Exit codes: 0 clean, 1 a MISMATCH was found, 2 INCONCLUSIVE results under
--strict, 14 I/O failure; each error class of `sclab.errors` carries its own
(10 usage, 11 parse, 12 unknown builtin, 13 cap, 20 internal error).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from functools import cache
from pathlib import Path

from .cache import cache_dir_from_env
from .errors import (CapExceeded, ParseError, PrimeDoesNotDivide, SclabError,
                     UnknownBuiltin)
from .lattice import DEFAULT_ORDER_CAP
from .poset import DEFAULT_SIMPLEX_CAP
from .report import emit_report
from .runner import SUITES, VerificationPlan, exit_status, run

EXIT_USAGE = PrimeDoesNotDivide.exit_code
EXIT_PARSE = ParseError.exit_code
EXIT_UNKNOWN_BUILTIN = UnknownBuiltin.exit_code
EXIT_CAP = CapExceeded.exit_code
EXIT_IO = 14
EXIT_INTERNAL = SclabError.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sclab",
        description="Compute collections of p-subgroups and verify the "
                    "homotopy comparisons between them.")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser(
        "verify", help="run verification suites and emit a report")
    verify.add_argument("--group", required=True,
                        help="group file path or builtin:NAME "
                             "(builtin:D8, builtin:S5, builtin:Zn:12, ...)")
    verify.add_argument("--prime", type=int, required=True,
                        help="the prime p; must divide the group order")
    verify.add_argument("--suite", default="all", choices=SUITES)
    verify.add_argument("--report", type=Path, default=None,
                        help="write the report here instead of stdout")
    verify.add_argument("--format", default="json",
                        choices=("json", "markdown"))
    verify.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP)
    verify.add_argument("--max-simplices", type=int,
                        default=DEFAULT_SIMPLEX_CAP)
    verify.add_argument("--cache", type=Path, default=None,
                        help="lattice cache directory (default: $SCLAB_CACHE)")
    verify.add_argument("--strict", action="store_true",
                        help="exit 2 when any result is INCONCLUSIVE")
    return parser


# one parser per process: building it costs more than half a millisecond,
# and parse_args leaves it unchanged
_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_USAGE

    plan = VerificationPlan(
        group=args.group, prime=args.prime, suite=args.suite,
        max_order=args.max_order, max_simplices=args.max_simplices,
        cache_dir=args.cache if args.cache is not None else cache_dir_from_env(),
        strict=args.strict)

    try:
        plan.validate()
    except ValueError as exc:
        print(f"sclab: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report = run(plan)
        payload = emit_report(report, args.format)
    except SclabError as exc:
        fault = "internal error: " if exc.exit_code == EXIT_INTERNAL else ""
        print(f"sclab: {fault}{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"sclab: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        # any other exception is a fault in the engine; it must not surface
        # as Python's exit status 1, which here means a MISMATCH was found
        traceback.print_exc()
        print(f"sclab: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL

    if args.report is not None:
        try:
            args.report.write_bytes(payload)
        except OSError as exc:
            print(f"sclab: cannot write report: {exc}", file=sys.stderr)
            return EXIT_IO
        summary = report["summary"]
        print(f"sclab: {summary['edges']} edges, "
              f"{summary['by_status']['MISMATCH']} mismatches; "
              f"report written to {args.report}", file=sys.stderr)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return exit_status(report, strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
