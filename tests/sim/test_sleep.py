"""Processes that sleep by yielding a bare delay.

``yield delay`` puts the process itself on the calendar where
``Timeout(env, delay)`` would have gone; the pop-order equivalence with
``Timeout`` is pinned by seeded plans in ``test_queue_backends.py``.
These are the kernel cases around it: accepted and rejected delays,
dispatch through ``step()`` and interrupting a sleeper.
"""

import numpy as np
import pytest

from repro.sim import Interrupt, SimulationError


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


class TestStep:
    def test_step_dispatches_a_wake(self, env):
        log = []

        def sleeper():
            yield 2.0
            log.append(env.now)

        proc = env.process(sleeper())
        env.step()  # Initialize: the process starts and falls asleep
        assert env.peek() == 2.0 and log == []
        env.step()  # the wake-up
        assert log == [2.0]
        assert env.now == 2.0
        assert env.events_processed == 2
        env.step()  # the process's completion
        assert not proc.is_alive


class TestInterruptSleeper:
    def test_interrupt_arrives_at_interrupt_instant(self, env):
        log = []

        def sleeper():
            try:
                yield 10.0
            except Interrupt as intr:
                log.append((env.now, intr.cause))
            yield 1.0
            log.append(env.now)

        proc = env.process(sleeper())

        def interrupter():
            yield 3.0
            proc.interrupt("wake up")

        env.process(interrupter())
        env.run()
        assert log == [(3.0, "wake up"), 4.0]
        # The withdrawn 10.0 wake never fired: the run ended at 4.0.
        assert env.now == 4.0

    def test_withdrawn_wake_is_a_counted_dead_entry(self, env):
        def sleeper():
            try:
                yield 10.0
            except Interrupt:
                pass

        proc = env.process(sleeper())
        env.step()  # start: asleep until 10.0
        assert env.queued == 1 and env._dead == 0
        proc.interrupt()
        # The wake entry stays in the heap, dead; the interrupt is live.
        assert env.queued == 2 and env._dead == 1
        env.run()
        assert env._dead == 0 and env.queued == 0
        assert env.now == 0.0
        # Initialize, the interrupt, the completion -- no wake.
        assert env.events_processed == 3
