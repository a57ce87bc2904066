"""Reporting helpers of the experiment registry.

Every experiment regenerates, for one theorem, a table of
``parameter -> measured rounds / approximation ratio`` next to the paper's
bound.  :func:`format_markdown_table` renders such a table as GitHub-flavoured
markdown (:meth:`~repro.experiments.runner.ExperimentTable.to_markdown`), and
:func:`summarize_robustness` writes the E15 table's one-line note.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def format_markdown_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a markdown table with the given headers and rows."""
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_format_cell(cell) for cell in row) + " |")
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell == float("inf"):
            return "inf"
        if abs(cell) >= 1000 or (abs(cell) < 0.01 and cell != 0):
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def summarize_robustness(
    rows: Iterable[Sequence[object]], rate_index: int, overhead_index: int
) -> str:
    """One-line mean round overhead per drop rate (the E15 finalizer's note).

    ``rows`` are table rows; ``rate_index`` / ``overhead_index`` locate the
    drop-rate and overhead-factor columns.  Rows whose overhead is not a
    number (a run the fault schedule beat entirely) are skipped.
    """
    by_rate: dict = {}
    for row in rows:
        overhead = row[overhead_index]
        if isinstance(overhead, (int, float)):
            by_rate.setdefault(row[rate_index], []).append(float(overhead))
    parts = [
        f"{rate:g} -> {sum(values) / len(values):.2f}x"
        for rate, values in sorted(by_rate.items())
    ]
    return "mean round overhead by drop rate: " + ", ".join(parts)
