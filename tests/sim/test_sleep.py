"""Processes that sleep by yielding a bare delay.

``yield delay`` puts the process itself on the calendar where
``Timeout(env, delay)`` would have gone; the pop-order equivalence with
``Timeout`` is pinned by seeded plans in ``test_queue_backends.py``.
These are the kernel cases around it: accepted and rejected delays.
"""

import numpy as np
import pytest

from repro.sim import SimulationError


class TestAcceptedDelays:
    @pytest.mark.parametrize(
        "delay", [3, 2.5, np.float64(1.25), np.int64(2), 0, 0.0]
    )
    def test_sleeps_for_the_delay_and_resumes_with_none(self, env, delay):
        got = []

        def sleeper():
            got.append((yield delay))
            return env.now

        assert env.run(until=env.process(sleeper())) == float(delay)
        assert got == [None]

    def test_each_wake_is_one_event(self, env):
        def sleeper():
            for _ in range(5):
                yield 1

        env.process(sleeper())
        env.run()
        # Initialize, five wakes, the process's own completion.
        assert env.events_processed == 7
        assert env.now == 5.0


class TestRejectedDelays:
    @pytest.mark.parametrize("delay", [True, False])
    def test_bool_is_not_a_delay(self, env, delay):
        def bad():
            yield delay

        env.process(bad())
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_negative_delay(self, env):
        def bad():
            yield -1.0

        env.process(bad())
        with pytest.raises(ValueError, match="Negative delay -1.0"):
            env.run()

    def test_nan_delay(self, env):
        def bad():
            yield float("nan")

        env.process(bad())
        with pytest.raises(ValueError, match="Invalid delay nan"):
            env.run()
        assert env.now == 0.0
        assert env.queued == 0  # nothing was scheduled
