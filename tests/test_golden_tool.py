"""tests/golden_tool.py --diff counts every cell whose bits moved, a flipped zero sign included, and every changed
digest of the benchmark's stepper workloads that --run records; --write rewrites the golden file of each experiment it
names."""

from pathlib import Path

import golden_tool
from qwalk.table import ResultTable, write_table


def write(directory, rows):
    (directory / "golden").mkdir(parents=True)
    write_table(ResultTable(("step", "value"), rows, {"experiment": "demo"}), str(directory / "golden" / "demo.csv"))


def test_diff_reports_each_moved_cell_and_the_largest_relative_move(tmp_path, capsys):
    write(tmp_path / "a", [(0.0, 1.0), (1.0, 0.0), (2.0, 3.0)])
    write(tmp_path / "b", [(0.0, 1.0), (1.0, -0.0), (2.0, 3.0 + 2.0**-51)])
    write(tmp_path / "c", [(0.0, 1.0), (1.0, 0.0), (2.0, 3.0)])
    assert golden_tool.main(["--diff", str(tmp_path / "a"), str(tmp_path / "c")]) == 0
    assert "golden/demo.csv: 0/6 cells moved" in capsys.readouterr().out
    assert golden_tool.main(["--diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "golden/demo.csv: row 1 value: 0.0 -> -0.0" in out and "golden/demo.csv: row 2 value" in out
    assert "golden/demo.csv: 2/6 cells moved, largest relative move 1.5e-16" in out


def test_write_rewrites_one_golden_file_from_the_current_build(tmp_path, monkeypatch):
    monkeypatch.setattr(golden_tool, "GOLDEN", tmp_path)
    assert golden_tool.main(["--write", "exb"]) == 0
    assert [path.name for path in tmp_path.iterdir()] == ["exb.csv"]
    assert (tmp_path / "exb.csv").read_bytes() == (Path(__file__).parent / "golden" / "exb.csv").read_bytes()


def test_write_rewrites_each_named_golden_file(tmp_path, monkeypatch):
    monkeypatch.setattr(golden_tool, "GOLDEN", tmp_path)
    assert golden_tool.main(["--write", "dispersion", "bloch"]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bloch.csv", "dispersion.csv"]
    for name in ("bloch.csv", "dispersion.csv"):
        assert (tmp_path / name).read_bytes() == (Path(__file__).parent / "golden" / name).read_bytes()


# one pass of each stepper workload at build(7, small=True): 2 digests for walk-2d-static, 13 for walk-1d-dynamic
def test_run_records_the_stepper_digests_and_diff_counts_each_changed_one(tmp_path, capsys):
    for build in ("a", "b"):
        (tmp_path / build / "digests").mkdir(parents=True)
        for name in golden_tool.WALKS:
            golden_tool.write_digests(name, tmp_path / build / "digests")
    dynamic = tmp_path / "b" / "digests" / "walk-1d-dynamic.txt"
    lines = dynamic.read_text().splitlines()
    assert len(lines) == 13 and all(len(line) == 64 and int(line, 16) >= 0 for line in lines)
    assert golden_tool.main(["--diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "digests/walk-2d-static.txt: 0 of 2 digests changed" in out and "2 files, 0 differences" in out
    dynamic.write_text("\n".join(["0" * 64] + lines[1:]) + "\n")
    assert golden_tool.main(["--diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "digests/walk-1d-dynamic.txt: 1 of 13 digests changed" in capsys.readouterr().out
