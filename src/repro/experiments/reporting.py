"""Plain-text reporting: aligned tables and paper-vs-measured summaries.

Every figure experiment renders through these helpers so benchmark
output is uniform and diff-able (``repro.cli figures`` prints these
tables; see the README's Quick start).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["check", "render_table"]


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
    float_fmt: str = "{:.1f}",
) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = []
    for row in rows:
        str_rows.append(
            [
                float_fmt.format(c) if isinstance(c, float) else str(c)
                for c in row
            ]
        )
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for r in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def check(label: str, condition: bool, detail: str = "") -> str:
    """One paper-property check line: '[ok] ...' or '[MISS] ...'."""
    mark = "ok" if condition else "MISS"
    suffix = f" ({detail})" if detail else ""
    return f"[{mark:4s}] {label}{suffix}"

