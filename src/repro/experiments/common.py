"""Shared experiment infrastructure.

Every experiment module exposes ``run(...) -> ExperimentResult``. The
result bundles named tables (rows of labelled values) and named series
(time series for the paper's figures) plus the paper's reference
numbers, so EXPERIMENTS.md can be generated mechanically and benches
can assert on shapes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: F401


@dataclass
class Table:
    """A named table: column headers plus labelled rows."""

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add(self, *values: object) -> None:
        """Append one row (width-checked against the columns)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row width {len(values)} != column count {len(self.columns)}"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        """Format the table as aligned monospace text."""
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.2f}"
            return str(value)

        widths = [len(c) for c in self.columns]
        body = [[fmt(v) for v in row] for row in self.rows]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title]
        lines.append("  " + " | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append("  " + "-+-".join("-" * w for w in widths))
        for row in body:
            lines.append("  " + " | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_json_dict(self) -> Dict[str, object]:
        """The table's JSON body: title, columns, rows.

        This is the single serialised form of a table — the export
        layer embeds it in ``result.json`` (via
        :meth:`ExperimentResult.to_dict`) and the sweep service returns
        it in HTTP responses, so the two can never drift. Schema
        versioning happens at the enclosing envelope (``result.json``'s
        layout, the service's ``repro.results/...`` documents), not per
        table, which keeps today's export bytes unchanged.
        """
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
        }


@dataclass
class ExperimentResult:
    """Everything one experiment produces."""

    experiment: str
    description: str
    parameters: Dict[str, object] = field(default_factory=dict)
    tables: List[Table] = field(default_factory=list)
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Execution statistics (engine event counts, simulated seconds...)
    #: for benchmarking and sweep-manifest timing. Deliberately EXCLUDED
    #: from :meth:`to_dict`, so exported artefacts stay byte-identical
    #: across machines, worker counts and code-speed changes.
    runtime: Dict[str, float] = field(default_factory=dict)

    def note_runtime(self, engine, extra: Optional[Dict[str, float]] = None) -> None:
        """Accumulate engine statistics into :attr:`runtime`.

        Harnesses that run several engines (schedules, sweeps over
        internal networks) call this once per engine; event counts add
        up. ``extra`` merges additional keyed numbers verbatim.
        """
        self.runtime["events"] = self.runtime.get("events", 0.0) + float(
            engine.processed_events
        )
        self.runtime["sim_ticks"] = self.runtime.get("sim_ticks", 0.0) + float(
            engine.now
        )
        if extra:
            self.runtime.update(extra)

    def table(self, title: str, columns: Sequence[str]) -> Table:
        """Create, register and return a new table."""
        table = Table(title, list(columns))
        self.tables.append(table)
        return table

    def find_table(self, title_fragment: str) -> Table:
        """First table whose title contains the fragment (KeyError if none)."""
        for table in self.tables:
            if title_fragment in table.title:
                return table
        raise KeyError(f"no table matching {title_fragment!r}")

    def scalars(self) -> Dict[str, object]:
        """Flatten every single-row table into named scalar metrics.

        A table with exactly one row is a scalar summary (meshgen's
        ``Summary``, the ``Topology`` shape table, ...): each column
        becomes one named value. Column names unique across the
        single-row tables map bare; a name used by several tables is
        prefixed with its table title (lowercased, spaces to ``_``) so
        nothing is silently shadowed. Purely derived — never serialized
        by :meth:`to_dict` — so exposing scalars cannot change exported
        bytes.
        """
        single = [t for t in self.tables if len(t.rows) == 1]
        counts: Dict[str, int] = {}
        for table in single:
            for column in table.columns:
                counts[column] = counts.get(column, 0) + 1
        scalars: Dict[str, object] = {}
        for table in single:
            prefix = table.title.strip().lower().replace(" ", "_")
            for column, value in zip(table.columns, table.rows[0]):
                name = column if counts[column] == 1 else f"{prefix}.{column}"
                scalars[name] = value
        return scalars

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (JSON-safe given JSON-safe cell values).

        Deterministic: key order is fixed by construction order and the
        export layer dumps with sorted keys, so identical results always
        serialize to identical bytes (the sweep-runner guarantee).
        """
        return {
            "experiment": self.experiment,
            "description": self.description,
            "parameters": dict(self.parameters),
            "tables": [t.to_json_dict() for t in self.tables],
            "series": {name: [list(p) for p in points] for name, points in self.series.items()},
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict` (series points become tuples).

        Sequence-valued parameters come back as tuples: the declared
        sequence parameter kinds (``ints``/``floats``) always coerce to
        tuples in memory, JSON just cannot spell them — restoring the
        tuple makes a loaded result render (and re-export) exactly like
        the in-memory original.
        """
        result = cls(
            experiment=data["experiment"],
            description=data["description"],
            parameters={
                key: tuple(value) if isinstance(value, list) else value
                for key, value in dict(data.get("parameters", {})).items()
            },
            notes=list(data.get("notes", [])),
        )
        for t in data.get("tables", []):
            table = result.table(t["title"], t["columns"])
            for row in t["rows"]:
                table.add(*row)
        for name, points in data.get("series", {}).items():
            result.series[name] = [tuple(p) for p in points]
        return result

    def series_items(self) -> List[Tuple[str, List[Tuple[float, float]]]]:
        """The series in name order, digit runs compared as numbers.

        Text renderings list series in this order, not insertion order:
        a result read back from a store has lost its insertion order
        (``result.json`` sorts its keys), and only an order derived from
        the names themselves renders fresh and cached runs identically.
        """

        def key(item):
            parts: List[object] = re.split(r"(\d+)", item[0])
            parts[1::2] = [int(part) for part in parts[1::2]]
            return parts, item[0]

        return sorted(self.series.items(), key=key)

    def render(self) -> str:
        """Human-readable rendering of all tables, series and notes."""
        lines = [f"=== {self.experiment}: {self.description} ==="]
        if self.parameters:
            params = ", ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
            lines.append(f"parameters: {params}")
        for table in self.tables:
            lines.append("")
            lines.append(table.render())
        for name, points in self.series_items():
            lines.append("")
            lines.append(f"series {name}: {len(points)} points " + sparkline(points))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def sparkline(points: Sequence[Tuple[float, float]], width: int = 60) -> str:
    """Compact unicode rendering of a series for terminal output."""
    if not points:
        return "(empty)"
    values = [v for _, v in points]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return f"(constant {lo:.2f})"
    blocks = "▁▂▃▄▅▆▇█"
    step = max(1, len(values) // width)
    sampled = values[::step][:width]
    chars = [blocks[int((v - lo) / (hi - lo) * (len(blocks) - 1))] for v in sampled]
    return f"[{lo:.2f}..{hi:.2f}] " + "".join(chars)


def throughput_gain(before: float, after: float) -> float:
    """Relative gain in percent (0.0 when before is 0)."""
    if before <= 0:
        return 0.0
    return (after - before) / before * 100.0
