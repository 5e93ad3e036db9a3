"""NaN-safe bound checks for numeric knobs, and a type check for
switches.

Every comparison with NaN is False, so a ``value <= 0`` guard lets NaN
through -- and ``sweep --set`` parses values with ``json.loads``, which
accepts ``NaN`` and ``Infinity``.  :func:`check_number` states each
bound positively, so NaN fails it, and refuses infinities too.  A switch
read by truthiness takes ``"no"``, ``1`` or NaN as on;
:func:`check_bool` admits only ``True`` and ``False``.
"""

from __future__ import annotations

import math
from numbers import Integral

__all__ = ["check_bool", "check_number", "is_int"]


def is_int(value) -> bool:
    """True for an integer count (``bool`` is not one)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_bool(label: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is ``True`` or ``False``."""
    if not isinstance(value, bool):
        raise ValueError(f"{label} must be true or false, got {value!r}")


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
