"""Metrics registry: counters, gauges and memory-bounded histograms.

Histograms are :class:`ReservoirHistogram` streaming quantile sketches:
O(1) memory in the stream length, uniform reservoir sampling with a
private deterministic xorshift generator (independent of every
simulation RNG).  Quantiles are *exact* while the stream fits in the
reservoir (``n <= capacity``); beyond that the q-th quantile carries a
rank error of roughly ``sqrt(q(1-q)/capacity)`` (about 1.1% of rank at
the median for the default capacity of 2048).

Counter/gauge values are sampled into a time series at a configurable
simulated-time interval.  Sampling is *event-driven*: it piggybacks on
trace emissions instead of scheduling its own simulation events, so the
metrics plane can never alter event ordering or keep a run alive.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "ReservoirHistogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value: set directly or computed via a callback."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._value = value

    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value()}>"


def _percentile(vs: List[float], q: float) -> float:
    """The q-th percentile of the sorted ``vs`` by linear interpolation
    (``0.0`` when ``vs`` is empty)."""
    if not vs:
        return 0.0
    rank = (len(vs) - 1) * q / 100.0
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(vs) - 1)
    return vs[lo] + (rank - lo) * (vs[hi] - vs[lo])


class ReservoirHistogram:
    """Bounded uniform-sample histogram with deterministic replacement.

    Keeps at most ``capacity`` samples via Algorithm R driven by a
    private xorshift64* generator seeded from the histogram name, so it
    never consumes simulation randomness and two runs of the same
    scenario produce byte-identical sketches.  ``quantile(q)`` matches
    ``numpy.percentile(..., q)`` (linear interpolation) exactly while
    ``n <= capacity``.
    """

    __slots__ = ("name", "capacity", "n", "sum", "min", "max", "_samples", "_state")

    def __init__(self, name: str, capacity: int = 2048):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.n = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: List[float] = []
        # seed from the name so distinct histograms decorrelate, but the
        # same name always replays the same replacement choices
        state = 0x9E3779B97F4A7C15
        for ch in name:
            state = (state ^ ord(ch)) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF
        self._state = state or 1

    def add(self, x: float) -> None:
        self.n = n = self.n + 1
        self.sum += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if n <= self.capacity:  # the reservoir holds every sample so far
            self._samples.append(x)
        else:
            # Algorithm R: keep x at a uniform slot in [0, n), drawn by
            # xorshift64*.
            s = self._state
            s ^= s >> 12
            s ^= (s << 25) & 0xFFFFFFFFFFFFFFFF
            s ^= s >> 27
            self._state = s
            j = ((s * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF) % n
            if j < self.capacity:
                self._samples[j] = x

    def quantile(self, q: float) -> float:
        """The q-th percentile (``0 <= q <= 100``) of the retained sample.

        **Sentinel:** an empty histogram returns ``0.0`` for every
        valid ``q`` rather than raising (``len(hist)`` distinguishes
        "no data" from a true zero); an out-of-range ``q`` is still a
        ``ValueError`` -- that is a caller bug, not a data condition.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        return _percentile(sorted(self._samples), q)

    def mean(self) -> float:
        return self.sum / self.n if self.n else 0.0

    def export(self) -> Dict[str, float]:
        vs = sorted(self._samples)
        return {
            "count": float(self.n),
            "mean": self.mean(),
            "min": self.min if self.n else 0.0,
            "max": self.max if self.n else 0.0,
            "p50": _percentile(vs, 50),
            "p90": _percentile(vs, 90),
            "p99": _percentile(vs, 99),
        }

    def __len__(self) -> int:
        return self.n


class MetricsRegistry:
    """Named counters/gauges/histograms plus interval time-series.

    ``maybe_sample(now)`` is called from trace emissions; whenever at
    least ``sample_interval`` simulated seconds elapsed since the last
    sample, counter and gauge values are appended to :attr:`series`.
    The series is capped (``_MAX_SAMPLES``) so a pathological interval
    cannot grow without bound.
    """

    _MAX_SAMPLES = 100_000

    def __init__(self, sample_interval: float = 1.0, histogram_capacity: int = 2048):
        if not sample_interval > 0:  # NaN fails too
            raise ValueError(
                f"sample_interval must be > 0, got {sample_interval}"
            )
        self.sample_interval = sample_interval
        self.histogram_capacity = histogram_capacity
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, ReservoirHistogram] = {}
        self.series: List[Tuple[float, Dict[str, float]]] = []
        self._last: Optional[float] = None

    # -- instrument factories (get-or-create) ---------------------------------------

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name, fn)
        return g

    def histogram(self, name: str, capacity: Optional[int] = None) -> ReservoirHistogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = ReservoirHistogram(
                name, capacity or self.histogram_capacity
            )
        return h

    # -- time-series sampling -------------------------------------------------------

    def maybe_sample(self, now: float) -> None:
        if self._last is not None and now - self._last < self.sample_interval:
            return
        self.sample(now)

    def sample(self, now: float, force: bool = False) -> None:
        """Append one snapshot; ``force`` ignores the interval gate."""
        if not force and len(self.series) >= self._MAX_SAMPLES:
            return
        snap = {name: c.value for name, c in self.counters.items()}
        for name, g in self.gauges.items():
            snap[name] = g.value()
        self.series.append((now, snap))
        self._last = now

    def series_stats(self, name: str) -> Dict[str, float]:
        """Summary of one counter/gauge's sampled time-series.

        Returns ``{"count", "t0", "t1", "min", "max", "last"}`` over
        the samples that carry ``name``.  **Sentinel:** a zero-length
        series (nothing sampled yet, or an unknown name) returns the
        all-zero summary rather than raising, mirroring the empty-
        histogram quantile contract; ``count`` distinguishes the two.
        """
        points = [
            (t, values[name])
            for t, values in self.series
            if name in values
        ]
        if not points:
            return {
                "count": 0.0,
                "t0": 0.0,
                "t1": 0.0,
                "min": 0.0,
                "max": 0.0,
                "last": 0.0,
            }
        vs = [v for _, v in points]
        return {
            "count": float(len(points)),
            "t0": points[0][0],
            "t1": points[-1][0],
            "min": min(vs),
            "max": max(vs),
            "last": vs[-1],
        }

    # -- export ---------------------------------------------------------------------

    def export(self) -> Dict[str, object]:
        return {
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
            "gauges": {
                name: g.value() for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: h.export() for name, h in sorted(self.histograms.items())
            },
            "series": [
                {"t": t, "values": dict(values)} for t, values in self.series
            ],
        }
