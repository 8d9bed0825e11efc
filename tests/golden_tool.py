"""Run every experiment into a directory, and compare two such directories cell by cell.

    python tests/golden_tool.py --run DIR       # the qwalk on PYTHONPATH writes DIR/{defaults,golden}/<exp>.csv
    python tests/golden_tool.py --diff DIR_A DIR_B

``--run`` writes each of the 14 experiments twice: at its defaults, and at
the settings of tests/test_golden.py (seed 7 plus its REDUCED overrides).
Run it once per build, each with that build's ``src`` first on PYTHONPATH,
then ``--diff`` the two directories. ``--diff`` parses both tables of each
file and compares the cells exactly, as bits, so a sign flip of a zero
counts as a move. It prints every moved cell with its relative move, then
each file's count of moved cells and its largest relative move, and exits
1 if any cell, header, metadata line or row count differs, else 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from test_golden import REDUCED

SETTINGS = ("defaults", "golden")


def overrides(setting: str, experiment: str) -> tuple:
    return () if setting == "defaults" else ("seed=7",) + REDUCED.get(experiment, ())


def run_all(directory: Path) -> None:
    from qwalk.config import EXPERIMENTS, load_config
    from qwalk.experiments import run
    from qwalk.table import write_table

    for setting in SETTINGS:
        (directory / setting).mkdir(parents=True, exist_ok=True)
        for experiment in EXPERIMENTS:
            table = run(load_config(experiment, overrides=overrides(setting, experiment)))
            write_table(table, str(directory / setting / f"{experiment}.csv"))


def relative_move(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def diff_file(path_a: Path, path_b: Path, name: str) -> int:
    """Print the moved cells of one table pair and its summary line; return the number of differences."""
    from qwalk.table import read_table

    a, b = read_table(str(path_a)), read_table(str(path_b))
    if (a.metadata, a.columns, len(a.rows)) != (b.metadata, b.columns, len(b.rows)):
        print(f"{name}: metadata, columns or row count differ")
        return 1
    moved = [(i, column, x, y) for i, (row_a, row_b) in enumerate(zip(a.rows, b.rows))
             for column, x, y in zip(a.columns, row_a, row_b) if x.hex() != y.hex()]
    for i, column, x, y in moved:
        print(f"{name}: row {i} {column}: {x!r} -> {y!r} (relative {relative_move(x, y):.1e})")
    largest = max((relative_move(x, y) for *_, x, y in moved), default=0.0)
    print(f"{name}: {len(moved)}/{len(a.rows) * len(a.columns)} cells moved, largest relative move {largest:.1e}")
    return len(moved)


def diff_all(dir_a: Path, dir_b: Path) -> int:
    names = sorted({p.relative_to(d).as_posix() for d in (dir_a, dir_b) for p in d.glob("*/*.csv")})
    differences = 0
    for name in names:
        if not ((dir_a / name).is_file() and (dir_b / name).is_file()):
            print(f"{name}: missing from one directory")
            differences += 1
        else:
            differences += diff_file(dir_a / name, dir_b / name, name)
    print(f"{len(names)} files, {differences} differences")
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--run", metavar="DIR", type=Path, help="write every experiment's tables into DIR")
    mode.add_argument("--diff", nargs=2, metavar=("DIR_A", "DIR_B"), type=Path, help="compare two --run directories")
    args = parser.parse_args(argv)
    if args.run:
        run_all(args.run)
        return 0
    return 1 if diff_all(*args.diff) else 0


if __name__ == "__main__":
    sys.exit(main())
