"""tests/golden_tool.py --diff counts every cell whose bits moved, a flipped zero sign included."""

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
