"""Experiment harness: timing, result tables, CSV output.

Every experiment runner in :mod:`repro.experiments` returns an
:class:`ExperimentResult` — a named table with an x-column (domain size or
query id) and one column per method/series, matching the series plotted by
the corresponding figure of the paper.  Results can be pretty-printed (the
figure tests do so) and written as CSV (``make bench`` writes the committed
series under ``benchmarks/results/``).

Runners that go through the client facade use :func:`query_row` to turn a
typed :class:`repro.QueryResult` into a table row — the result already
carries its own wall time and work counters, so no stopwatch bracketing is
needed around facade queries.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.results import QueryResult


def time_call(function: Callable[[], Any]) -> tuple[float, Any]:
    """Wall-clock a call; returns ``(seconds, result)``."""
    start = time.perf_counter()
    result = function()
    return time.perf_counter() - start, result


def query_row(query_id: str, result: "QueryResult") -> dict[str, Any]:
    """A table row from a typed query result (the facade-era ``time_call``).

    The typed result measures its own serving time and work, so experiment
    code no longer brackets engine calls with a stopwatch; the returned
    row keys match the columns the figure runners report.
    """
    return {
        "query": query_id,
        "seconds": result.wall_time,
        "answers": len(result),
        "cached": result.cached,
        "steps": result.steps,
    }


@dataclass
class ExperimentResult:
    """A small results table: one row per x value, one column per series."""

    name: str
    description: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append a row (keyed by column name)."""
        self.rows.append(values)

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    # -------------------------------------------------------------- rendering
    def to_text(self) -> str:
        """Render the result as a fixed-width text table."""
        header = [self.name, self.description, ""]
        widths = {
            column: max(len(column), *(len(_fmt(row.get(column))) for row in self.rows))
            if self.rows
            else len(column)
            for column in self.columns
        }
        line = "  ".join(column.ljust(widths[column]) for column in self.columns)
        header.append(line)
        header.append("  ".join("-" * widths[column] for column in self.columns))
        for row in self.rows:
            header.append(
                "  ".join(_fmt(row.get(column)).ljust(widths[column]) for column in self.columns)
            )
        return "\n".join(header)

    def write_csv(self, directory: str | Path) -> Path:
        """Write the table as ``<directory>/<name>.csv`` and return the path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({column: row.get(column) for column in self.columns})
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExperimentResult({self.name}, {len(self.rows)} rows)"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def report(results: Iterable[ExperimentResult], directory: str | Path | None = None) -> str:
    """Render several results and optionally persist them as CSV."""
    blocks = []
    for result in results:
        blocks.append(result.to_text())
        if directory is not None:
            result.write_csv(directory)
    return "\n\n".join(blocks)


#: Default directory where benchmark runs drop their CSV series.
DEFAULT_RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"
