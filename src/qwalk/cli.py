"""``qwalk`` command line tool: run a named experiment, emit a result table.

Usage:
    qwalk <experiment> [--config FILE] [--set key=value ...]
                       [--out PATH] [--format csv|json]

Exit codes: 0 success, 2 configuration error, 3 property-check failure
(a residual or fit exceeded its bound; the table is still written), 4 I/O
failure.  Output is byte-identical for identical configuration and seed;
wall time goes to stderr so it never perturbs the artifact.
"""

from __future__ import annotations

import argparse
import sys
import time

from .config import EXPERIMENTS, ConfigError, load_config
from .experiments import run
from .table import write_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Quantum-walk experiments on gauge-coupled spacetime lattices.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="INI configuration file")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="KEY=VALUE", help="override a config key (repeatable)")
    parser.add_argument("--out", default="-", metavar="PATH",
                        help="output path, '-' for stdout (default)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config = load_config(args.experiment, args.config, args.overrides)
        table = run(config)
    except ConfigError as exc:
        print(f"qwalk: config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # precondition violations raised by the compute modules
        print(f"qwalk: invalid parameters: {exc}", file=sys.stderr)
        return 2

    try:
        write_table(table, args.out, args.format)
    except OSError as exc:
        print(f"qwalk: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 4

    elapsed = time.perf_counter() - started
    print(f"qwalk: {args.experiment} finished in {elapsed:.3f} s", file=sys.stderr)
    for check in table.checks:
        print(f"qwalk: check {check.name}: {check.value:.6g} {check.comparison} {check.bound:.6g} "
              f"-> {'pass' if check.passed else 'FAIL'}", file=sys.stderr)
    return 0 if all(check.passed for check in table.checks) else 3


if __name__ == "__main__":
    sys.exit(main())
