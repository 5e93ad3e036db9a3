"""NaN-safe bound checks for numeric knobs.

Every comparison with NaN is False, so a ``value <= 0`` guard lets NaN
through -- and ``sweep --set`` parses values with ``json.loads``, which
accepts ``NaN`` and ``Infinity``.  :func:`check_number` states each
bound positively, so NaN fails it, and refuses infinities too.
"""

from __future__ import annotations

import math
from numbers import Integral

__all__ = ["check_number", "is_int"]


def is_int(value) -> bool:
    """True for an integer count (``bool`` is not one)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_number(label: str, value, minimum=None, integer=False) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite number that is
    positive, or at least ``minimum`` when one is given; with
    ``integer`` it must also be an integer (not a bool)."""
    if integer:
        ok = is_int(value)
        kind = "integer"
    else:
        ok = math.isfinite(value)
        kind = "finite number"
    if minimum is None:
        ok = ok and value > 0
        bound = f"a positive {kind}"
    else:
        ok = ok and value >= minimum
        bound = f"{'an' if integer else 'a'} {kind} >= {minimum}"
    if not ok:
        raise ValueError(f"{label} must be {bound}, got {value!r}")
