"""Edge-case tests for the DES kernel's less-travelled paths."""

import pytest

from repro.sim import AllOf, AnyOf, Store


class TestConditionValues:
    def test_all_of_value_maps_events(self, env):
        t1 = env.timeout(1, value="one")
        t2 = env.timeout(2, value="two")

        def waiter():
            result = yield AllOf(env, [t1, t2])
            return result

        result = env.run(until=env.process(waiter()))
        assert result[t1] == "one"
        assert result[t2] == "two"

    def test_any_of_value_contains_winner(self, env):
        fast = env.timeout(1, value="fast")
        slow = env.timeout(10, value="slow")

        def waiter():
            result = yield AnyOf(env, [fast, slow])
            return result

        result = env.run(until=env.process(waiter()))
        assert result == {fast: "fast"}

    def test_condition_over_processed_events(self, env):
        ev = env.timeout(1, value=7)
        env.run(until=2)  # the timeout is long processed

        def waiter():
            result = yield AllOf(env, [ev])
            return result

        assert env.run(until=env.process(waiter()))[ev] == 7


class TestRunSemantics:
    def test_run_until_event_returns_value(self, env):
        ev = env.timeout(3, value="done")
        assert env.run(until=ev) == "done"
        assert env.now == 3

    def test_run_until_already_processed_event(self, env):
        ev = env.timeout(1, value=42)
        env.run()
        assert env.run(until=ev) == 42

    def test_run_until_failed_event_raises(self, env):
        ev = env.event()

        def failer():
            yield env.timeout(1)
            ev.fail(ValueError("boom"))

        env.process(failer())
        with pytest.raises(ValueError, match="boom"):
            env.run(until=ev)

    def test_run_until_event_leaves_same_instant_successors_queued(self, env):
        stop = env.timeout(1, value="stop")
        after = env.timeout(1)
        assert env.run(until=stop) == "stop"
        assert not after.processed
        env.run()
        assert after.processed

    def test_run_to_time_with_empty_queue(self, env):
        env.run(until=5.0)
        assert env.now == 5.0

    def test_nested_process_chain_depth(self, env):
        """Deep chains of processes waiting on processes resolve."""

        def layer(depth):
            if depth == 0:
                yield env.timeout(1)
                return 0
            result = yield env.process(layer(depth - 1))
            return result + 1

        assert env.run(until=env.process(layer(50))) == 50
        assert env.now == 1.0


class TestStoreEdgeCases:
    def test_many_producers_one_consumer(self, env):
        store = Store(env)
        got = []

        def producer(i):
            yield env.timeout(i * 0.1)
            yield store.put(i)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        for i in range(5):
            env.process(producer(i))
        env.process(consumer())
        env.run()
        assert got == [0, 1, 2, 3, 4]

    def test_get_cancel_is_idempotent(self, env):
        store = Store(env)
        ev = store.get()
        ev.cancel()
        ev.cancel()
        assert len(store._get_queue) == 0
