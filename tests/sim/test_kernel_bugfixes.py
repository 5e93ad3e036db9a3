"""Regression tests for kernel bugs found during the profiling sweep.

Each test pins a behavior that used to be wrong:

- ``Environment.run(until=event)`` on an *already-processed failed*
  event returned the exception object instead of raising it (the
  during-run path raised; the early-return path leaked the exception as
  a value).
- ``Event.trigger`` on a not-yet-triggered source forwarded the internal
  ``_PENDING`` sentinel into ``fail`` and surfaced as a baffling
  ``TypeError``; it now raises a clear :class:`SimulationError`.

- ``Process.interrupt`` compared the awaited event, not the process,
  with ``env.active_process``, so a process interrupting itself was not
  rejected: its pending wait then resumed it early and the run died.
- NaN times passed every ``delay < 0`` / ``deadline < now`` check: a
  NaN calendar key breaks heap order (the clock runs backwards) and
  ``run(until=nan)`` ran everything and left ``now`` at NaN.

Plus the cancel/reschedule/interrupt races the lazy-deletion calendar
has to get right.
"""

import pytest

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


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


class TestTriggerPendingSource:
    def test_trigger_from_pending_source_raises_clearly(self, env):
        """S2: forwarding a pending event is an error, not a TypeError."""
        src = env.event()
        dst = env.event()
        with pytest.raises(SimulationError, match="not been .*triggered"):
            dst.trigger(src)
        # Neither event changed state.
        assert not src.triggered and not dst.triggered

    def test_trigger_forwards_success_and_failure(self, env):
        ok_src = env.event().succeed(5)
        ok_dst = env.event()
        ok_dst.trigger(ok_src)
        assert ok_dst.triggered and ok_dst._ok

        bad_src = env.event().fail(Boom())
        bad_dst = env.event()
        bad_dst.trigger(bad_src)
        assert bad_dst.triggered and not bad_dst._ok
        # Defuse both failures so run() doesn't surface them.
        bad_src.defused = True
        bad_dst.defused = True
        env.run()


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


class TestInterruptRaces:
    def test_interrupt_beats_already_triggered_target(self, env):
        """Interrupting a process whose wait target already fired.

        The timeout is scheduled (triggered) for the same instant the
        interrupt lands; the URGENT interrupt must win and the stale
        timeout must NOT resume the process afterwards.
        """
        log = []

        def sleeper():
            try:
                yield env.timeout(1.0, value="slept")
                log.append("slept")
            except Interrupt as intr:
                log.append(("interrupted", intr.cause))
                # Keep living past the timeout instant to prove the old
                # target does not resume us a second time.
                yield env.timeout(5.0)
                log.append("resumed-later")

        def interrupter():
            yield env.timeout(1.0)
            proc.interrupt(cause="race")

        # Created first, so the interrupter's t=1.0 timeout pops before
        # the sleeper's: the interrupt lands while the sleeper's own
        # timeout is already triggered and sitting in the calendar.
        env.process(interrupter())
        proc = env.process(sleeper())
        env.run()
        assert log == [("interrupted", "race"), "resumed-later"]

    def test_interrupt_detaches_from_old_target(self, env):
        """The interrupted process's old target fires without effect."""
        target = env.timeout(3.0, value="late")

        def sleeper():
            try:
                yield target
            except Interrupt:
                return "out"

        proc = env.process(sleeper())

        def interrupter():
            yield env.timeout(1.0)
            proc.interrupt()

        env.process(interrupter())
        assert env.run(until=proc) == "out"
        env.run()
        assert target.processed  # fired later, resuming nobody


class TestSelfInterrupt:
    def test_process_cannot_interrupt_itself(self, env):
        log = []

        def selfish():
            try:
                env.active_process.interrupt()
            except SimulationError as exc:
                log.append(str(exc))
            yield env.timeout(5)
            log.append(env.now)

        env.process(selfish())
        env.run()
        assert log == ["A process cannot interrupt itself", 5.0]

    def test_uncaught_self_interrupt_fails_the_process(self, env):
        """Before the fix the interrupt was delivered at the next wait,
        the wait after that resumed at t=1 and the run then died with
        "already triggered"."""
        log = []

        def selfish():
            env.active_process.interrupt()
            try:
                yield env.timeout(1)
            except Interrupt:
                log.append(("interrupted", env.now))
            yield env.timeout(5)
            log.append(env.now)

        env.process(selfish())
        with pytest.raises(SimulationError, match="cannot interrupt itself"):
            env.run()
        assert log == []


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
