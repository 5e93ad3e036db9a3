"""Frozen host-speed reference kernel and the normalisation it drives.

The benchmark's host shares its cores with other tenants, and its speed
changes from one second to the next (by up to 2x on the reference host,
with the process's CPU time slowing as much as its wall time).  A raw
wall time therefore says as much about the host as about the simulator.

This module holds a small, fixed, pure-Python discrete-event loop
(generator processes resumed from a ``heapq`` calendar, the shape of
work the simulator does) that imports nothing from ``repro``.  A
:class:`HostSampler` times one short run of it -- a *slice* -- just
before a measured interval, every ``SAMPLE_INTERVAL_S`` of wall time
during it (from a ``SIGALRM`` timer, in the measuring thread itself)
and just after it.  A slice that takes twice ``REF_NOMINAL_S`` means the
host ran at half the reference speed at that moment, so::

    speed = mean(REF_NOMINAL_S / slice for every slice)
    normalised = (raw - time spent in slices) * speed ** REF_EXPONENT

is the time the interval would have taken on a host running the kernel
at its nominal speed throughout: every ``_s`` metric is in
*reference-host seconds*.  Sampling during the interval, rather than
only around it, is what makes this work: the host's speed changes
within a single one-second sample.  Changing the kernel, its size, the
sampling interval or either constant is a benchmark change and
invalidates every earlier measurement.
"""

from __future__ import annotations

import gc
import signal
import time
from heapq import heappop, heappush

#: Generator processes in one slice, and resumptions per process.
REF_PROCS = 8
REF_STEPS = 40
#: Events one slice dispatches: one per resumption, the last of which
#: ends the process.
REF_EVENTS = REF_PROCS * REF_STEPS
#: Slice time on the reference host (2-core x86-64 container, CPython
#: 3.11.7) in its quiet phases, pinned once; in-run medians there range
#: from 0.27 to 0.49 ms with the host's load.
REF_NOMINAL_S = 0.000300
#: How closely the simulator's speed follows the kernel's: in a phase
#: where the kernel runs k times slower, the simulator runs about
#: k ** 0.9 times slower on the reference host.  Fitted on 140-180 s
#: in-run traces of two workloads, where it halves the spread of 20 s
#: medians compared with full scaling (1.0).
REF_EXPONENT = 0.9
#: Wall-clock period of the in-interval slices (about 0.7% overhead,
#: which the normalisation subtracts).
SAMPLE_INTERVAL_S = 0.05


def _process(pid: int, steps: int, tally: dict):
    """A process that sleeps pseudo-random delays and records each wake."""
    x = pid * 2654435761 & 0x7FFFFFFF
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        woke = yield (x % 1000) * 1e-3 + 1e-6
        tally[pid % 16] = tally.get(pid % 16, 0.0) + woke


def reference_kernel(procs: int = REF_PROCS, steps: int = REF_STEPS) -> int:
    """Run the frozen event loop to exhaustion; returns events dispatched."""
    tally: dict = {}
    calendar = []
    seq = 0
    for pid in range(procs):
        proc = _process(pid, steps, tally)
        heappush(calendar, [next(proc), seq, proc])
        seq += 1
    events = 0
    while calendar:
        now, _, proc = heappop(calendar)
        events += 1
        try:
            delay = proc.send(now)
        except StopIteration:
            continue
        heappush(calendar, [now + delay, seq, proc])
        seq += 1
    return events


def time_reference() -> float:
    """Wall seconds of one slice, with the cyclic GC paused.

    The collector is paused so that the slice measures the host and not
    the size of whatever heap the caller has built up.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed(slices) -> float:
    """Mean host speed over ``slices``, relative to the reference host."""
    return sum(REF_NOMINAL_S / s for s in slices) / len(slices)


def scale(raw_s: float, inside_s: float, slices) -> float:
    """Factor turning raw seconds of an interval into reference-host
    seconds, net of the ``inside_s`` its own slices took."""
    return speed(slices) ** REF_EXPONENT * (raw_s - inside_s) / raw_s


class HostSampler:
    """Context manager timing an interval and the host's speed during it.

    After the ``with`` block: ``raw_s`` is the interval's wall time,
    ``slices`` every slice time taken (before, during and after) and
    ``factor`` converts a raw duration inside the interval to
    reference-host seconds, net of the time the in-interval slices took.
    """

    def __enter__(self) -> "HostSampler":
        self.slices = [time_reference()]
        self._inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(
            signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
        )
        self.t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        took = time_reference()
        self.slices.append(took)
        self._inside += took

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.raw_s = time.perf_counter() - self.t0
        signal.signal(signal.SIGALRM, self._previous)
        self.slices.append(time_reference())

    @property
    def factor(self) -> float:
        return scale(self.raw_s, self._inside, self.slices)

    @property
    def normalised_s(self) -> float:
        return self.raw_s * self.factor
