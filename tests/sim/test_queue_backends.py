"""Calendar pop order and dead-entry compaction.

Pop order: same-timestamp entries fire by priority, then by insertion
order, and a process that sleeps on a bare delay is indistinguishable
from one that yields ``Timeout(env, delay)`` -- seeded plans run both
ways must give identical traces, including same-instant ties, resource
queueing and cancel/reschedule churn around them.

Compaction: lazy deletion leaves dead entries in the calendar; the
kernel compacts whenever more than half of a non-trivial queue is dead,
so rebalance-style churn (the flow solver reschedules every affected
completion on every perturbation) cannot grow the calendar without
bound.
"""

import random

import pytest

from repro.sim import Environment, EventPriority, Resource, Timeout
from repro.sim.core import _COMPACT_MIN


def _trace_of(env, n_events, plan):
    """Run ``plan(env, log)`` and return the (time, tag) pop trace."""
    log = []
    plan(env, log)
    env.run()
    assert len(log) == n_events
    return log


def _sleep(env, delay):
    return delay


def _timeout(env, delay):
    return Timeout(env, delay)


def _process_plan(seed, wait, n_procs=24, n_steps=30, churn=False):
    """A seeded plan of processes whose every delay goes through ``wait``.

    Each process draws a list of steps -- a plain wait, or a wait while
    holding one of two slots of a shared resource -- with delays that
    often coincide (0, 0.25, 1) so same-instant ties are common, and logs
    ``(time, process, step)`` after each.  With ``churn``, a background
    of standalone timeouts is cancelled and rescheduled around them.
    """

    def plan(env, log):
        rng = random.Random(seed)
        slots = Resource(env, capacity=2)

        def worker(pid, steps):
            for i, (held, delay) in enumerate(steps):
                if held:
                    with slots.request() as req:
                        yield req
                        yield wait(env, delay)
                else:
                    yield wait(env, delay)
                log.append((env.now, pid, i))

        for pid in range(n_procs):
            steps = [
                (
                    rng.random() < 0.3,
                    rng.choice([0, 0.0, 0.25, 1.0, rng.random() * 5]),
                )
                for _ in range(n_steps)
            ]
            env.process(worker(pid, steps))
        if churn:
            timers = []
            for i in range(300):
                ev = env.timeout(rng.random() * 10, value=i)
                ev.callbacks.append(
                    lambda e: log.append((e.env.now, "timer", e._value))
                )
                timers.append(ev)
            for ev in timers[::3]:
                env.cancel(ev)
            for ev in timers[1::3]:
                env.reschedule(ev, rng.random() * 5)

    return plan


class TestPopOrderEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sleep_matches_timeout_on_random_plan(self, seed):
        """Bare-delay sleeps pop in exactly the Timeout order."""
        n = 24 * 30
        sleeps, timeouts = Environment(), Environment()
        slept = _trace_of(sleeps, n, _process_plan(seed, _sleep))
        timed = _trace_of(timeouts, n, _process_plan(seed, _timeout))
        assert slept == timed
        assert sleeps.events_processed == timeouts.events_processed
        assert sleeps.now == timeouts.now

    def test_sleep_matches_timeout_under_cancel_and_reschedule_churn(self):
        n = 24 * 30 + 200  # every step, plus the timers left alive
        sleeps, timeouts = Environment(), Environment()
        slept = _trace_of(sleeps, n, _process_plan(7, _sleep, churn=True))
        timed = _trace_of(
            timeouts, n, _process_plan(7, _timeout, churn=True)
        )
        assert slept == timed
        assert sleeps.events_processed == timeouts.events_processed

    def test_priority_ties_at_same_timestamp(self):
        """URGENT before NORMAL at one instant, insertion order within."""

        def plan(env, log):
            prios = [
                EventPriority.NORMAL,
                EventPriority.URGENT,
                EventPriority.NORMAL,
                EventPriority.URGENT,
            ]
            for i, prio in enumerate(prios):
                ev = env.event()
                ev._ok = True
                ev._value = i
                ev.callbacks.append(
                    lambda e: log.append((e.env.now, e._value))
                )
                env._schedule(ev, prio, 1.0)

        trace = _trace_of(Environment(), 4, plan)
        # URGENT pair first (insertion order), then the NORMAL pair.
        assert [tag for _, tag in trace] == [1, 3, 0, 2]


class TestCompaction:
    def test_reschedule_churn_keeps_queue_bounded(self):
        """S3: heavy reschedule churn cannot grow the calendar unboundedly.

        Every reschedule lazily kills one entry and pushes a fresh one;
        without compaction N reschedules leave N dead entries behind.
        The 50%-dead threshold bounds the calendar at O(live).
        """
        env = Environment()
        live = 64
        events = [env.timeout(1000.0 + i) for i in range(live)]
        for round_ in range(100):
            for ev in events:
                env.reschedule(ev, 1000.0 + round_)
        # 6400 reschedules happened; the queue must stay O(live), far
        # below the dead-entry pile lazy deletion alone would leave.
        assert env.queued <= 2 * live + 1
        assert env._dead * 2 <= env.queued + 1

    def test_no_compaction_below_minimum(self):
        """Tiny calendars skip compaction (not worth the heapify)."""
        env = Environment()
        ev = env.timeout(5.0)
        other = env.timeout(7.0)
        env.cancel(ev)
        # One dead of two entries: over 50% threshold but under the
        # size floor, so the dead entry is still in the queue.
        assert env.queued == 2
        assert _COMPACT_MIN > 2
        assert not other.processed

    def test_compaction_preserves_pop_order(self):
        env = Environment()
        keep = []
        events = []
        for i in range(_COMPACT_MIN * 2):
            ev = env.timeout(float(i), value=i)
            ev.callbacks.append(lambda e: keep.append(e._value))
            events.append(ev)
        # Cancel every other event to push past the 50% dead mark.
        for ev in events[::2]:
            env.cancel(ev)
        env.run()
        assert keep == list(range(1, _COMPACT_MIN * 2, 2))
