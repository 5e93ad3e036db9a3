"""Terminal charts: render experiment series without a plotting stack.

The benchmark reports are text-first (diff-able, CI-friendly); these
helpers add visual shape to them -- horizontal bar charts for figure
comparisons and one-line sparklines for sweep shapes -- using plain
Unicode blocks.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

__all__ = ["bar_chart", "sparkline"]

_BLOCKS = " ▁▂▃▄▅▆▇█"
_BAR = "█"
_HALF = "▌"


def bar_chart(
    items: Sequence[Tuple[str, float]],
    width: int = 50,
    title: Optional[str] = None,
    unit: str = "",
) -> str:
    """Horizontal bar chart: one labelled bar per (label, value).

    >>> print(bar_chart([("a", 10), ("b", 5)], width=10))  # doctest: +SKIP
    a │██████████ 10
    b │█████ 5
    """
    if not items:
        return title or ""
    peak = max(v for _, v in items)
    label_w = max(len(label) for label, _ in items)
    lines = [title] if title else []
    for label, value in items:
        if peak <= 0:
            filled = 0
            half = False
        else:
            exact = value / peak * width
            filled = int(exact)
            half = (exact - filled) >= 0.5
        bar = _BAR * filled + (_HALF if half else "")
        lines.append(
            f"{label.ljust(label_w)} │{bar} {value:g}{unit}"
        )
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """A one-line shape summary of a series."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _BLOCKS[4] * len(values)
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(_BLOCKS) - 2)) + 1
        out.append(_BLOCKS[idx])
    return "".join(out)

