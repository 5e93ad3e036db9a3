"""Unit tests for the DES kernel: events, processes, ordering, conditions."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, SimulationError


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_timeout_advances_clock(self, env):
        env.process(self._wait(env, 3.5))
        env.run()
        assert env.now == 3.5

    @staticmethod
    def _wait(env, delay):
        yield env.timeout(delay)

    def test_run_until_time_stops_early(self, env):
        env.process(self._wait(env, 10.0))
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_past_raises(self, env):
        env.process(self._wait(env, 1.0))
        env.run()
        with pytest.raises(ValueError):
            env.run(until=0.5)

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_run_on_empty_calendar_returns_at_once(self, env):
        assert env.run() is None
        assert env.now == 0.0
        assert env.events_processed == 0

    def test_run_until_time_fires_events_at_the_deadline(self, env):
        at_deadline = env.timeout(4.0)
        after = env.timeout(4.5)
        env.run(until=4.0)
        assert at_deadline.processed
        assert not after.processed
        assert env.now == 4.0

    def test_timeouts_count_from_the_initial_time(self):
        env = Environment(initial_time=10.0)
        ev = env.timeout(2.5)
        env.run()
        assert ev.processed
        assert env.now == 12.5

    def test_events_processed_counts_live_dispatches_across_runs(self, env):
        for delay in (1.0, 2.0, 3.0):
            env.timeout(delay)
        env.cancel(env.timeout(2.5))
        env.run(until=1.5)
        assert env.events_processed == 1
        env.run()
        assert env.events_processed == 3  # the cancelled entry is not one


class TestEvents:
    def test_succeed_delivers_value(self, env):
        ev = env.event()
        results = []

        def waiter():
            results.append((yield ev))

        env.process(waiter())
        ev.succeed("payload")
        env.run()
        assert results == ["payload"]

    def test_double_trigger_raises(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_throws_into_waiter(self, env):
        ev = env.event()
        caught = []

        def waiter():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(waiter())
        ev.fail(RuntimeError("boom"))
        env.run()
        assert caught == ["boom"]

    def test_fail_with_non_exception_raises(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_unhandled_failure_surfaces(self, env):
        ev = env.event()
        ev.fail(RuntimeError("lost"))
        with pytest.raises(RuntimeError, match="lost"):
            env.run()

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().ok

    def test_repr_tracks_state(self, env):
        ev = env.event()
        assert "pending" in repr(ev)
        ev.succeed()
        assert "triggered" in repr(ev)
        env.run()
        assert "processed" in repr(ev)


class TestOrdering:
    def test_simultaneous_events_fifo(self, env):
        """Events scheduled for the same instant fire in schedule order."""
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_earlier_timeouts_first(self, env):
        order = []

        def proc(tag, delay):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc("late", 2.0))
        env.process(proc("early", 1.0))
        env.run()
        assert order == ["early", "late"]

    def test_determinism_across_runs(self):
        def run_once():
            env = Environment()
            trace = []

            def worker(i):
                for k in range(3):
                    yield env.timeout(0.5 * (i + 1))
                    trace.append((env.now, i, k))

            for i in range(4):
                env.process(worker(i))
            env.run()
            return trace

        assert run_once() == run_once()

    def test_resume_on_processed_event_precedes_same_instant_events(self, env):
        """Yielding a processed event resumes at URGENT priority."""
        done = env.event()
        done.succeed()
        env.run()
        order = []

        def late():
            yield done
            order.append("resumed")

        env.timeout(0).callbacks.append(lambda _: order.append("timeout"))
        env.process(late())
        env.run()
        assert order == ["resumed", "timeout"]


class TestProcesses:
    def test_return_value(self, env):
        def compute():
            yield env.timeout(1)
            return 42

        proc = env.process(compute())
        assert env.run(until=proc) == 42

    def test_process_waits_on_process(self, env):
        def inner():
            yield env.timeout(2)
            return "inner-done"

        def outer():
            result = yield env.process(inner())
            return result

        assert env.run(until=env.process(outer())) == "inner-done"

    def test_crashing_process_fails_waiters(self, env):
        def bad():
            yield env.timeout(1)
            raise ValueError("crash")

        def waiter():
            yield env.process(bad())

        with pytest.raises(ValueError, match="crash"):
            env.run(until=env.process(waiter()))

    def test_yield_non_event_raises(self, env):
        def bad():
            yield "not an event"

        env.process(bad())
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_yield_already_processed_event_resumes(self, env):
        ev = env.event()
        ev.succeed("early")
        env.run()  # process the event with no waiters

        def late_waiter():
            value = yield ev
            return value

        assert env.run(until=env.process(late_waiter())) == "early"

    def test_yield_already_processed_failure_throws(self, env):
        ev = env.event()
        ev.fail(RuntimeError("old news"))
        ev.defused = True
        env.run()

        def late_waiter():
            try:
                yield ev
            except RuntimeError as exc:
                return str(exc)

        assert env.run(until=env.process(late_waiter())) == "old news"

    def test_lifecycle_states(self, env):
        def worker():
            yield 1
            return "done"

        proc = env.process(worker(), name="w")
        assert not proc.triggered
        assert repr(proc) == "<Process 'w' alive>"
        env.run(until=0.5)
        assert not proc.triggered  # asleep, not finished
        env.run()
        assert proc.processed
        assert proc.value == "done"
        assert repr(proc) == "<Process 'w' done>"

    def test_name_defaults_to_the_generator_function(self, env):
        def worker():
            yield 1

        assert env.process(worker()).name == "worker"
        assert env.process(worker(), name="w7").name == "w7"

    def test_generator_function_rejected(self, env):
        def worker():
            yield 1

        with pytest.raises(TypeError, match="not a generator"):
            env.process(worker)  # forgot to call it

    def test_yield_event_from_another_environment_raises(self, env):
        other = Environment()

        def confused():
            yield other.timeout(1)

        env.process(confused())
        with pytest.raises(SimulationError, match="another environment"):
            env.run()

    def test_crash_nobody_waits_on_surfaces(self, env):
        def orphan():
            yield 1
            raise KeyError("unwatched")

        env.process(orphan())
        with pytest.raises(KeyError, match="unwatched"):
            env.run()
        assert env.now == 1.0


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def waiter():
            yield AllOf(env, [env.timeout(1), env.timeout(5), env.timeout(3)])
            return env.now

        assert env.run(until=env.process(waiter())) == 5.0

    def test_any_of_fires_on_first(self, env):
        def waiter():
            yield AnyOf(env, [env.timeout(7), env.timeout(2)])
            return env.now

        assert env.run(until=env.process(waiter())) == 2.0

    def test_operator_composition(self, env):
        def waiter():
            both = AllOf(env, [env.timeout(1), env.timeout(4)])
            yield both | env.timeout(10)
            return env.now

        assert env.run(until=env.process(waiter())) == 4.0

    def test_empty_all_of_fires_immediately(self, env):
        def waiter():
            yield AllOf(env, [])
            return env.now

        assert env.run(until=env.process(waiter())) == 0.0

    def test_all_of_fails_fast(self, env):
        bad = env.event()

        def failer():
            yield env.timeout(1)
            bad.fail(RuntimeError("member failed"))

        def waiter():
            yield AllOf(env, [bad, env.timeout(100)])

        env.process(failer())
        with pytest.raises(RuntimeError, match="member failed"):
            env.run(until=env.process(waiter()))
        assert env.now == 1.0

    def test_any_of_fails_when_the_first_member_to_fire_fails(self, env):
        bad = env.event()

        def waiter():
            yield AnyOf(env, [bad, env.timeout(5)])

        bad.fail(RuntimeError("first to fire failed"))
        with pytest.raises(RuntimeError, match="first to fire failed"):
            env.run(until=env.process(waiter()))
        assert env.now == 0.0

    def test_condition_mixing_environments_raises(self, env):
        with pytest.raises(SimulationError, match="mixes environments"):
            AllOf(env, [env.timeout(1), Environment().timeout(1)])

    def test_deadlock_detected(self, env):
        never = env.event()

        def waiter():
            yield never

        proc = env.process(waiter())
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=proc)
