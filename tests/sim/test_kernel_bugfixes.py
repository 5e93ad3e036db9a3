"""Regression tests for kernel bugs found during the profiling sweep.

Each test pins a behavior that used to be wrong:

- ``Environment.run(until=event)`` on an *already-processed failed*
  event returned the exception object instead of raising it (the
  during-run path raised; the early-return path leaked the exception as
  a value).
- NaN times passed every ``delay < 0`` / ``deadline < now`` check: a
  NaN calendar key breaks heap order (the clock runs backwards) and
  ``run(until=nan)`` ran everything and left ``now`` at NaN.

Plus the cancel/reschedule races the lazy-deletion calendar has to get
right.
"""

import pytest

from repro.sim import SimulationError, Timeout


class Boom(Exception):
    pass


class TestRunUntilProcessedFailure:
    def _processed_failed_event(self, env):
        """A failed event that has been processed (and defused)."""
        ev = env.event()
        ev.fail(Boom("kaboom"))

        def waiter():
            try:
                yield ev
            except Boom:
                pass  # delivered: the failure is defused

        env.process(waiter())
        env.run(until=2.0)
        assert ev.processed and not ev.ok
        return ev

    def test_raises_instead_of_returning_exception(self, env):
        """S1: the early-return path must raise like the in-run path."""
        ev = self._processed_failed_event(env)
        with pytest.raises(Boom, match="kaboom"):
            env.run(until=ev)

    def test_processed_success_still_returns_value(self, env):
        ev = env.event()
        ev.succeed("payload")
        env.run(until=1.0)
        assert ev.processed
        assert env.run(until=ev) == "payload"

    def test_failure_during_run_still_raises(self, env):
        ev = env.event()

        def failer():
            yield env.timeout(1.0)
            ev.fail(Boom("late"))

        env.process(failer())
        with pytest.raises(Boom, match="late"):
            env.run(until=ev)


class TestCancelTriggerRaces:
    def test_cancel_then_trigger(self, env):
        """A withdrawn event can be re-armed: cancel only unschedules."""
        ev = env.event()
        ev.succeed("first")
        env.cancel(ev)
        # The value stuck at trigger time; re-triggering is an error.
        with pytest.raises(SimulationError, match="already triggered"):
            ev.succeed("second")
        env.run()
        assert not ev.processed  # the cancelled entry never fired

    def test_cancelled_timeout_never_fires_waiter_deadlocks(self, env):
        ev = env.timeout(1.0)
        env.cancel(ev)

        def waiter():
            yield ev

        proc = env.process(waiter())
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=proc)

    def test_reschedule_then_cancel(self, env):
        """The re-keyed entry (not a stale one) is what cancel kills."""
        fired = []
        ev = env.timeout(1.0, value="x")
        ev.callbacks.append(lambda e: fired.append(e._value))
        env.reschedule(ev, 5.0)
        env.cancel(ev)
        env.run(until=10.0)
        assert fired == []
        assert env.queued == 0  # both the stale and the live entry purged

    def test_cancel_twice_raises(self, env):
        ev = env.timeout(1.0)
        env.cancel(ev)
        with pytest.raises(SimulationError, match="not scheduled"):
            env.cancel(ev)

    def test_reschedule_processed_event_raises(self, env):
        ev = env.timeout(1.0)
        env.run(until=2.0)
        assert ev.processed
        with pytest.raises(SimulationError, match="not scheduled"):
            env.reschedule(ev, 1.0)


NAN = float("nan")


class TestNanTimes:
    def test_timeout_rejects_nan(self, env):
        with pytest.raises(ValueError, match="Invalid delay nan"):
            Timeout(env, NAN)

    def test_reschedule_rejects_nan(self, env):
        ev = env.timeout(1.0)
        with pytest.raises(ValueError, match="Invalid delay nan"):
            env.reschedule(ev, NAN)
        env.run()
        assert env.now == 1.0  # the entry was left untouched

    def test_sleep_rejects_nan(self, env):
        def bad():
            yield NAN

        env.process(bad())
        with pytest.raises(ValueError, match="Invalid delay nan"):
            env.run()

    @pytest.mark.parametrize("sleep", [False, True])
    def test_clock_never_runs_backwards(self, env, sleep):
        """Delays 3, NaN, 1, 2 used to wake at 1, 2, NaN, 3."""
        woke = []

        def sleeper(delay):
            yield delay if sleep else env.timeout(delay)
            woke.append(env.now)

        for delay in (3.0, NAN, 1.0, 2.0):
            env.process(sleeper(delay))
        with pytest.raises(ValueError, match="Invalid delay nan"):
            env.run()
        env.run()
        assert woke == [1.0, 2.0, 3.0]

    def test_run_until_nan_rejected(self, env):
        env.timeout(5.0)
        with pytest.raises(ValueError, match="until=nan"):
            env.run(until=NAN)
        assert env.now == 0.0
        assert env.queued == 1  # nothing ran
