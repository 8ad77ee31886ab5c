"""Command-line entry point: run verification suites and write reports.

Usage:  verify <suite> [--grid N1,N2] [--out report.csv] [--seed S] [--json]

A run chooses only the suite, the grid pair and the seed; the tolerance,
the order window and the fixtures are fixed (see biquat.harness).  Exit
code 0 when every check passes, 1 on any numerical failure (the report is
still written), 2 on usage errors (a bad grid pair or seed included) or a
report path that cannot be opened for writing.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import SUITE_NAMES, SuiteConfig, run_suite


def _parse_grids(text: str):
    # only parsing here: SuiteConfig checks the counts
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="verify",
        description="Run the biquaternion-calculus verification suites.")
    p.add_argument("suite", choices=SUITE_NAMES, help="suite name")
    p.add_argument("--grid", metavar="N1,N2", type=_parse_grids, default=None,
                   help="override the convergence grid pair, e.g. 17,33")
    p.add_argument("--out", metavar="PATH", default="report.csv",
                   help="CSV report path (default report.csv)")
    p.add_argument("--seed", type=int, default=None, help="override the random seed")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON instead of per-check lines")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"suite": args.suite}
    if args.grid is not None:
        overrides["grids"] = args.grid
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        cfg = SuiteConfig(**overrides)
    except ValueError as err:
        print(f"verify: bad config: {err}", file=sys.stderr)
        return 2
    # the report path is checked before any suite runs; appending creates
    # a missing file and leaves an existing one as it is
    try:
        open(args.out, "a").close()
    except OSError as err:
        print(f"verify: cannot write report: {err}", file=sys.stderr)
        return 2

    report = run_suite(cfg)
    report.write_csv(args.out)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        report.print_lines()
        print(f"report written to {args.out}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
