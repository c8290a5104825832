"""Paper-style table formatting and report persistence."""

from __future__ import annotations

import os
from typing import Mapping, Optional, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "benchmarks", "results")


def format_table(rows: Sequence[Mapping], columns: Optional[Sequence[str]] = None) -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_cell(row.get(column))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    separator = "  ".join("-" * widths[c] for c in columns)
    lines = [header, separator]
    for row in rows:
        lines.append(
            "  ".join(_cell(row.get(column)).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return fixed_point(value, 3)
    return str(value)


def fixed_point(value: float, places: int) -> str:
    """``value`` to ``places`` decimals -- or, where that would print a
    nonzero value as zero, to two significant digits."""
    text = f"{value:.{places}f}"
    if value and float(text) == 0:
        return f"{value:.2g}"
    return text


def write_report(path: str, content: str) -> str:
    """Persist one artifact at ``path`` under ``benchmarks/results/``.

    ``path`` is relative to the results directory (``table1.txt``,
    ``smtlib/sssp.smt2``); the file always ends with a newline.  Returns
    the absolute path written.
    """
    target = os.path.join(os.path.abspath(RESULTS_DIR), path)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(content)
        if not content.endswith("\n"):
            handle.write("\n")
    return target
