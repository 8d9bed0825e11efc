"""Rectangular numeric result tables with deterministic CSV/JSON round trips.

Serialized output is a pure function of the table contents: float cells are
rendered with repr (shortest exact round trip), metadata is emitted in
insertion order, and no timestamps or host details ever enter the payload,
so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from dataclasses import dataclass, field


_OPERATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Check:
    """One criterion of an experiment run, ``value <comparison> bound``, and its derived verdict.

    The comparison is one of ``<``, ``<=``, ``>``, ``>=`` or ``within T of``
    (``|value - bound| <= T``); it is the only statement of the criterion, so
    ``passed`` cannot disagree with the line that prints it. NaN fails every form.
    """

    name: str
    value: float
    bound: float
    comparison: str

    @property
    def passed(self) -> bool:
        if self.comparison.startswith("within "):
            return bool(abs(self.value - self.bound) <= float(self.comparison.split()[1]))
        return bool(_OPERATORS[self.comparison](self.value, self.bound))


@dataclass
class ResultTable:
    """Column names, rows of finite floats, and string metadata."""

    columns: tuple
    rows: list
    metadata: dict = field(default_factory=dict)
    checks: tuple = ()  # verdicts; never serialized, used for exit gating

    def __post_init__(self) -> None:
        self.columns = tuple(str(c) for c in self.columns)
        width = len(self.columns)
        clean = []
        for i, row in enumerate(self.rows):
            values = tuple(float(v) for v in row)
            if len(values) != width:
                raise ValueError(
                    f"row {i} has {len(values)} entries, expected {width}"
                )
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"row {i} contains a non-finite value")
            clean.append(values)
        self.rows = clean
        self.metadata = {str(k): str(v) for k, v in self.metadata.items()}

    def column(self, name: str):
        """Values of one column as a list of floats."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    # -- CSV ----------------------------------------------------------------

    def to_csv(self) -> str:
        """Metadata as '# key = value' lines, then an RFC-4180-style body."""
        out = io.StringIO()
        for key, value in self.metadata.items():
            out.write(f"# {key} = {value}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([repr(v) for v in row])
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        metadata = {}
        body = []
        for line in text.splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                metadata[key.strip()] = value.strip()
            elif line:
                body.append(line)
        if not body:
            raise ValueError("CSV table needs a header row")
        parsed = list(csv.reader(body))
        return cls(tuple(parsed[0]), [tuple(map(float, r)) for r in parsed[1:]], metadata)

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> str:
        """Metadata object plus one object per row, stable key order."""
        payload = {
            "metadata": self.metadata,
            "columns": list(self.columns),
            "rows": [dict(zip(self.columns, row)) for row in self.rows],
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        payload = json.loads(text)
        columns = tuple(payload["columns"])
        rows = [tuple(entry[c] for c in columns) for entry in payload["rows"]]
        return cls(columns, rows, payload.get("metadata", {}))


def write_table(table: ResultTable, path: str, fmt: str = "csv") -> None:
    """Serialize to `path`; '-' writes to stdout."""
    text = render_table(table, fmt)
    if path == "-":
        import sys

        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def render_table(table: ResultTable, fmt: str = "csv") -> str:
    if fmt == "csv":
        return table.to_csv()
    if fmt == "json":
        return table.to_json()
    raise ValueError(f"unknown format {fmt!r}: expected 'csv' or 'json'")


def read_table(path: str, fmt: str | None = None) -> ResultTable:
    """Parse a serialized table; format inferred from the extension if omitted."""
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    with open(path, "r", encoding="utf-8", newline="") as handle:
        text = handle.read()
    return ResultTable.from_json(text) if fmt == "json" else ResultTable.from_csv(text)
