"""tests/golden_tool.py --diff counts every cell whose bits moved, a flipped zero sign included, and every changed
digest of the benchmark's stepper workloads that --run records, and prints the change of each module's line count
without counting it; --write rewrites the golden file of each experiment it names."""

from pathlib import Path

import golden_tool
import qwalk
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


# two passes of each stepper workload at build(7, small=True): 2 digests each for walk-2d-static, 13 for
# walk-1d-dynamic; the second pass reuses what the first left held, so it repeats the first pass's digests
def test_run_records_the_stepper_digests_and_diff_counts_each_changed_one(tmp_path, capsys):
    for build in ("a", "b"):
        (tmp_path / build / "digests").mkdir(parents=True)
        for name in golden_tool.WALKS:
            golden_tool.write_digests(name, tmp_path / build / "digests")
    digests = tmp_path / "b" / "digests"
    for name in golden_tool.WALKS:
        assert (digests / f"{name}.pass2.txt").read_text() == (digests / f"{name}.txt").read_text()
    lines = (digests / "walk-1d-dynamic.txt").read_text().splitlines()
    assert len(lines) == 13 and all(len(line) == 64 and int(line, 16) >= 0 for line in lines)
    assert golden_tool.main(["--diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "digests/walk-2d-static.pass2.txt: 0 of 2 digests changed" in out and "4 files, 0 differences" in out
    (digests / "walk-1d-dynamic.pass2.txt").write_text("\n".join(["0" * 64] + lines[1:]) + "\n")
    assert golden_tool.main(["--diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "digests/walk-1d-dynamic.pass2.txt: 1 of 13 digests changed" in out and "4 files, 1 differences" in out


# the line counts are those of the qwalk the tool imported, as wc -l counts them; a changed count is only printed
def test_run_records_the_src_lines_and_diff_prints_each_change_without_counting_it(tmp_path, capsys):
    for build in ("a", "b"):
        (tmp_path / build).mkdir()
        golden_tool.write_src_lines(tmp_path / build)
    counts = {name: int(n) for name, n in map(str.split, (tmp_path / "a" / "src_lines.txt").read_text().splitlines())}
    package = Path(qwalk.__file__).parent
    modules = sorted(path.name for path in package.glob("*.py"))
    assert list(counts) == modules + ["total"] and counts["total"] == sum(counts[name] for name in modules)
    assert counts["lattice.py"] == len((package / "lattice.py").read_text().splitlines())
    changed = {**counts, "lattice.py": counts["lattice.py"] - 2, "new.py": 5, "total": counts["total"] + 3}
    (tmp_path / "b" / "src_lines.txt").write_text("".join(f"{name} {n}\n" for name, n in changed.items()))
    assert golden_tool.main(["--diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert f"src_lines.txt: lattice.py {counts['lattice.py']} -> {counts['lattice.py'] - 2} (-2)" in out
    assert "src_lines.txt: new.py 0 -> 5 (+5)" in out and "src_lines.txt: abelian.py" in out
    assert f"src_lines.txt: total {counts['total']} -> {counts['total'] + 3} (+3)" in out
    assert out.endswith("0 files, 0 differences\n")
