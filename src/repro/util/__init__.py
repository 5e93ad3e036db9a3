"""Shared utilities: deterministic RNG streams, unit helpers and NaN-safe
bound checks (``repro.util.checks``)."""

from repro.util.rng import RngStreams, derive_seed
from repro.util.units import (
    GB,
    KB,
    MB,
    MINUTES,
    MS,
    US,
    fmt_bytes,
    fmt_duration,
)

__all__ = [
    "GB",
    "KB",
    "MB",
    "MINUTES",
    "MS",
    "US",
    "RngStreams",
    "derive_seed",
    "fmt_bytes",
    "fmt_duration",
]
