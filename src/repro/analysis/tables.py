"""Plain-text table rendering for bench output.

Every bench prints its table with :func:`format_table` so EXPERIMENTS.md
snippets and terminal output look identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def format_table(
    rows: Sequence[Dict[str, Any]],
    columns: Optional[List[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dict rows as an aligned ASCII table.

    ``columns`` picks and orders the columns; by default the keys of the
    first row are used.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    table = [[_cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in table))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(w) for col, w in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for r in table:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
