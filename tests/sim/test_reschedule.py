"""Kernel calendar: lazy deletion, re-keying and __slots__ contracts."""

import pytest

from repro.sim import Environment, Event, EventPriority, Process, SimulationError, Timeout


class TestReschedule:
    def test_reschedule_later(self):
        env = Environment()
        t = env.timeout(1.0, value="late")
        fired = []
        t.callbacks.append(lambda ev: fired.append(env.now))
        env.reschedule(t, 5.0)
        env.run()
        assert fired == [5.0]

    def test_reschedule_earlier(self):
        env = Environment()
        t = env.timeout(10.0)
        fired = []
        t.callbacks.append(lambda ev: fired.append(env.now))
        env.reschedule(t, 0.5)
        env.run()
        assert fired == [0.5]
        assert env.now == 0.5  # the stale 10.0 entry never advances time

    def test_reschedule_repeatedly(self):
        env = Environment()
        t = env.timeout(1.0)
        fired = []
        t.callbacks.append(lambda ev: fired.append(env.now))
        for delay in (9.0, 4.0, 2.5):
            env.reschedule(t, delay)
        env.run()
        assert fired == [2.5]

    def test_reschedule_fires_event_once(self):
        env = Environment()
        t = env.timeout(1.0)
        fired = []
        t.callbacks.append(lambda ev: fired.append(env.now))
        env.reschedule(t, 2.0)
        env.run()
        assert len(fired) == 1

    def test_reschedule_processed_event_raises(self):
        env = Environment()
        t = env.timeout(1.0)
        env.run()
        with pytest.raises(SimulationError, match="cannot reschedule"):
            env.reschedule(t, 1.0)

    def test_reschedule_unscheduled_event_raises(self):
        env = Environment()
        ev = env.event()  # pending, never scheduled
        with pytest.raises(SimulationError, match="cannot reschedule"):
            env.reschedule(ev, 1.0)

    def test_reschedule_negative_delay_raises(self):
        env = Environment()
        t = env.timeout(1.0)
        with pytest.raises(ValueError, match="Negative delay"):
            env.reschedule(t, -1.0)

    def test_process_waiting_on_rescheduled_timeout(self):
        env = Environment()
        t = env.timeout(100.0, value="v")

        def waiter():
            got = yield t
            return (env.now, got)

        proc = env.process(waiter())
        env.reschedule(t, 2.0)
        assert env.run(until=proc) == (2.0, "v")

    def test_reschedule_without_priority_preserves_it(self):
        env = Environment()
        order = []
        a = env.event()
        a._ok, a._value = True, "a"
        env._schedule(a, EventPriority.URGENT, 5.0)
        b = env.timeout(1.0, value="b")
        a.callbacks.append(lambda ev: order.append(ev.value))
        b.callbacks.append(lambda ev: order.append(ev.value))
        # Re-keyed after 'b' to the same instant: only a kept URGENT
        # priority lets 'a' fire first.
        env.reschedule(a, 1.0)
        env.run()
        assert order == ["a", "b"]


class TestCancel:
    def test_cancelled_timeout_never_fires(self):
        env = Environment()
        t = env.timeout(1.0)
        fired = []
        t.callbacks.append(lambda ev: fired.append(env.now))
        env.cancel(t)
        env.run()  # terminates: the dead entry is purged
        assert fired == []
        assert not t.processed

    def test_cancel_processed_event_raises(self):
        env = Environment()
        t = env.timeout(1.0)
        env.run()
        with pytest.raises(SimulationError, match="cannot cancel"):
            env.cancel(t)

    def test_cancel_then_reschedule_raises(self):
        env = Environment()
        t = env.timeout(1.0)
        env.cancel(t)
        with pytest.raises(SimulationError, match="cannot reschedule"):
            env.reschedule(t, 2.0)


class TestLazyDeletion:
    def test_run_until_time_ignores_dead_entries(self):
        env = Environment()
        t = env.timeout(1.0)
        env.reschedule(t, 10.0)
        env.run(until=2.0)
        assert env.now == 2.0
        assert not t.processed

    def test_queue_drains_despite_dead_tail(self):
        env = Environment()
        t = env.timeout(5.0)
        fired = []
        t.callbacks.append(lambda ev: fired.append(env.now))
        env.reschedule(t, 1.0)
        env.run()  # must terminate: the dead 5.0 entry is purged
        assert fired == [1.0]


class TestSlotsDeclarations:
    """Hot-path kernel objects must not carry per-instance dicts."""

    @pytest.mark.parametrize("cls", [Event, Timeout, Process])
    def test_no_instance_dict(self, cls):
        assert "__slots__" in vars(cls)

    def test_event_instances_have_no_dict(self):
        env = Environment()
        with pytest.raises(AttributeError):
            env.event().arbitrary = 1
        with pytest.raises(AttributeError):
            env.timeout(1.0).arbitrary = 1

    def test_subclasses_can_still_extend(self):
        # Resource requests etc. subclass Event without __slots__ and
        # rely on getting a __dict__ back.
        class Custom(Event):
            pass

        env = Environment()
        ev = Custom(env)
        ev.arbitrary = 1
        assert ev.arbitrary == 1
