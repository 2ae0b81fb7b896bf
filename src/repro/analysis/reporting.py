"""Rendering experiment results as text tables.

The benchmark modules and ``repro-4cycles bench`` print these tables, so
running ``pytest benchmarks/ --benchmark-only -s`` shows every experiment's
rows in one place.
"""

from __future__ import annotations

from dataclasses import asdict, is_dataclass
from typing import Iterable, List, Mapping, Sequence


def rows_to_dicts(rows: Iterable[object]) -> List[Mapping[str, object]]:
    """Convert dataclass instances (or mappings) into plain dictionaries."""
    converted: List[Mapping[str, object]] = []
    for row in rows:
        if is_dataclass(row) and not isinstance(row, type):
            converted.append(asdict(row))
        elif isinstance(row, Mapping):
            converted.append(dict(row))
        else:
            raise TypeError(f"cannot render row of type {type(row).__name__}")
    return converted


def _format_value(value: object, float_digits: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{float_digits}f}"
    return str(value)


def text_table(rows: Sequence[object], float_digits: int = 4, columns: Sequence[str] | None = None) -> str:
    """Render rows as a fixed-width plain-text table."""
    dict_rows = rows_to_dicts(rows)
    if not dict_rows:
        return "(no rows)"
    chosen = list(columns) if columns is not None else list(dict_rows[0].keys())
    formatted = [
        {column: _format_value(row.get(column, ""), float_digits) for column in chosen}
        for row in dict_rows
    ]
    widths = {
        column: max(len(column), max(len(row[column]) for row in formatted)) for column in chosen
    }
    header = "  ".join(column.ljust(widths[column]) for column in chosen)
    separator = "  ".join("-" * widths[column] for column in chosen)
    lines = [header, separator]
    for row in formatted:
        lines.append("  ".join(row[column].ljust(widths[column]) for column in chosen))
    return "\n".join(lines)
