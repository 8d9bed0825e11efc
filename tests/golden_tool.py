"""Run every experiment into a directory, and compare two such directories cell by cell.

    python tests/golden_tool.py --run DIR       # the qwalk on PYTHONPATH writes DIR/{defaults,golden}/<exp>.csv
    python tests/golden_tool.py --diff DIR_A DIR_B
    python tests/golden_tool.py --write EXP...  # the qwalk on PYTHONPATH rewrites tests/golden/EXP.csv of each EXP

``--run`` writes each of the 14 experiments twice: at its defaults, and at
the settings of tests/test_golden.py (seed 7 plus its REDUCED overrides).
It also writes DIR/digests/<workload>.txt for the benchmark's two stepper
workloads, walk-2d-static and walk-1d-dynamic: one pass at
``build(7, small=True)``, and the sha256 of each digest its ``verify``
returns, one per line, so a bit-identity claim covers the steppers too.
Run it once per build, each with that build's ``src`` first on PYTHONPATH,
then ``--diff`` the two directories. ``--diff`` parses both tables of each
file and compares the cells exactly, as bits, so a sign flip of a zero
counts as a move. It prints every moved cell with its relative move, then
each file's count of moved cells and its largest relative move, and each
digest file's count of changed digests. It exits 1 if any cell, header,
metadata line, row count or digest differs, else 0.
``--write`` rewrites the committed golden file of each named experiment at
the golden settings, for a change that moves those files' cells and says why.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from qwalk.config import EXPERIMENTS, load_config
from qwalk.experiments import run
from qwalk.table import read_table, write_table
from test_golden import GOLDEN, REDUCED

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  the benchmark's workloads, only read

SETTINGS = ("defaults", "golden")
WALKS = ("walk-2d-static", "walk-1d-dynamic")  # the benchmark workloads whose pass digests --run records


def overrides(setting: str, experiment: str) -> tuple:
    return () if setting == "defaults" else ("seed=7",) + REDUCED.get(experiment, ())


def write(setting: str, experiment: str, directory: Path) -> None:
    table = run(load_config(experiment, overrides=overrides(setting, experiment)))
    write_table(table, str(directory / f"{experiment}.csv"))


def write_digests(name: str, directory: Path) -> None:
    """The sha256 of each verify digest of one pass of the workload `name` at build(7, small=True), one per line."""
    workload = workloads.make(name, str(directory))
    inputs = workload.build(7, small=True)
    _, digests = workload.verify(inputs, {phase.name: phase.run() for phase in workload.prepare(inputs)})
    (directory / f"{name}.txt").write_text("".join(hashlib.sha256(d).hexdigest() + "\n" for d in digests))


def run_all(directory: Path) -> None:
    for setting in SETTINGS:
        (directory / setting).mkdir(parents=True, exist_ok=True)
        for experiment in EXPERIMENTS:
            write(setting, experiment, directory / setting)
    (directory / "digests").mkdir(parents=True, exist_ok=True)
    for name in WALKS:
        write_digests(name, directory / "digests")


def relative_move(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def diff_file(path_a: Path, path_b: Path, name: str) -> int:
    """Print the moved cells of one table pair and its summary line; return the number of differences."""
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


def diff_digests(path_a: Path, path_b: Path, name: str) -> int:
    """Print and return the number of digests that differ between two digest files, a missing one included."""
    a, b = path_a.read_text().splitlines(), path_b.read_text().splitlines()
    changed = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    print(f"{name}: {changed} of {max(len(a), len(b))} digests changed")
    return changed


def diff_all(dir_a: Path, dir_b: Path) -> int:
    names = sorted({p.relative_to(d).as_posix() for d in (dir_a, dir_b) for p in [*d.glob("*/*.csv"),
                                                                                 *d.glob("digests/*.txt")]})
    differences = 0
    for name in names:
        if not ((dir_a / name).is_file() and (dir_b / name).is_file()):
            print(f"{name}: missing from one directory")
            differences += 1
        else:
            differences += (diff_digests if name.endswith(".txt") else diff_file)(dir_a / name, dir_b / name, name)
    print(f"{len(names)} files, {differences} differences")
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--run", metavar="DIR", type=Path, help="write every experiment's tables into DIR")
    mode.add_argument("--diff", nargs=2, metavar=("DIR_A", "DIR_B"), type=Path, help="compare two --run directories")
    mode.add_argument("--write", nargs="+", metavar="EXP", choices=EXPERIMENTS,
                      help="rewrite the committed golden file of each EXP")
    args = parser.parse_args(argv)
    if args.run:
        run_all(args.run)
        return 0
    if args.write:
        for experiment in args.write:
            write("golden", experiment, GOLDEN)
        return 0
    return 1 if diff_all(*args.diff) else 0


if __name__ == "__main__":
    sys.exit(main())
