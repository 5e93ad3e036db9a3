"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Resource, Store
from repro.sim.resources import StoreGet


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_serializes_access(self, env):
        res = Resource(env, capacity=1)
        finish_times = []

        def user():
            with res.request() as req:
                yield req
                yield env.timeout(2)
            finish_times.append(env.now)

        for _ in range(3):
            env.process(user())
        env.run()
        assert finish_times == [2.0, 4.0, 6.0]

    def test_parallel_slots(self, env):
        res = Resource(env, capacity=3)
        finish_times = []

        def user():
            with res.request() as req:
                yield req
                yield env.timeout(2)
            finish_times.append(env.now)

        for _ in range(3):
            env.process(user())
        env.run()
        assert finish_times == [2.0, 2.0, 2.0]

    def test_release_on_exception(self, env):
        res = Resource(env, capacity=1)

        def crasher():
            with res.request() as req:
                yield req
                yield env.timeout(1)
                raise RuntimeError("dies holding the slot")

        def follower():
            with res.request() as req:
                yield req
                return env.now

        p1 = env.process(crasher())
        p2 = env.process(follower())

        def shepherd():
            try:
                yield p1
            except RuntimeError:
                pass
            got = yield p2
            return got

        # The follower acquires as soon as the crasher dies.
        assert env.run(until=env.process(shepherd())) == 1.0

    def test_queue_statistics(self, env):
        res = Resource(env, capacity=1)

        def user():
            with res.request() as req:
                yield req
                yield env.timeout(1)

        for _ in range(4):
            env.process(user())
        env.run()
        assert res.total_requests == 4
        assert res.max_queue_len == 3
        # Waits: 0 + 1 + 2 + 3 = 6 seconds.
        assert res.total_wait_time == pytest.approx(6.0)

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        acquired = []

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def impatient():
            req = res.request()
            result = yield req | env.timeout(1)
            if req not in result:
                req.cancel()
                acquired.append(False)
            else:
                acquired.append(True)

        env.process(holder())
        env.process(impatient())
        env.run()
        assert acquired == [False]
        assert len(res.queue) == 0

    def test_waiters_granted_in_arrival_order(self, env):
        res = Resource(env, capacity=1)
        granted = []

        def holder():
            with res.request() as req:
                yield req
                yield 10

        def user(tag, arrival):
            yield arrival
            with res.request() as req:
                yield req
                granted.append((tag, env.now))
                yield 1

        env.process(holder())
        # Started in one order, arriving in another.
        for tag, arrival in (("late", 3), ("first", 1), ("mid", 2)):
            env.process(user(tag, arrival))
        env.run()
        assert granted == [("first", 10.0), ("mid", 11.0), ("late", 12.0)]

    def test_cancel_after_a_grant_at_the_timeout_instant_frees_the_slot(
        self, env
    ):
        """The slot frees at the very instant the waiter gives up.

        The grant is already made when the waiter sees only its timeout
        fired, so ``cancel`` has to hand back a held slot, not just
        leave the queue.
        """
        res = Resource(env, capacity=1)
        outcome = []

        def holder():
            with res.request() as req:
                yield req
                yield 1

        def impatient():
            req = res.request()
            result = yield req | env.timeout(1)
            outcome.append(req in result)
            req.cancel()

        env.process(holder())
        env.process(impatient())
        env.run()
        assert outcome == [False]
        assert res.count == 0
        assert res.queue == []
        assert res.request().triggered  # the next request gets it at once

    def test_release_hands_the_slot_to_the_next_waiter(self, env):
        res = Resource(env, capacity=1)
        held = res.request()
        waiter = res.request()
        env.run()
        assert held.processed
        assert not waiter.triggered
        release = res.release(held)
        assert res.users == [waiter]  # granted at the release instant
        env.run()
        assert release.processed and release.ok
        assert waiter.processed

    def test_release_is_one_scheduled_event(self, env):
        """``max_in_flight`` admission releases this way; each release is
        one dispatched kernel event."""
        res = Resource(env, capacity=1)
        req = res.request()
        env.run()
        before = env.events_processed
        res.release(req)
        env.run()
        assert env.events_processed == before + 1
        assert res.count == 0


class TestTryAcquire:
    def test_free_slot_granted_without_an_event(self, env):
        res = Resource(env, capacity=2)
        req = res.try_acquire()
        assert req.processed and req.ok
        assert res.users == [req]
        assert env.queued == 0

    def test_full_resource_refuses(self, env):
        res = Resource(env, capacity=1)
        held = res.try_acquire()
        assert res.try_acquire() is None
        assert res.users == [held]
        assert res.queue == []

    def test_counted_like_an_uncontended_request(self, env):
        def stats(res):
            return res.total_requests, res.max_queue_len, res.total_wait_time

        waited = Resource(env, capacity=1)
        waited.request()
        env.run()
        fast = Resource(env, capacity=1)
        fast.try_acquire()
        assert stats(fast) == stats(waited) == (1, 1, 0.0)

    def test_release_hands_the_slot_to_a_waiter(self, env):
        res = Resource(env, capacity=1)

        def user():
            with res.try_acquire():
                yield 2

        env.process(user())
        env.run(until=1)
        waiter = res.request()
        assert res.queue == [waiter]
        env.run()
        assert waiter.processed
        assert res.users == [waiter]
        assert res.total_wait_time == 1.0


class TestStore:
    def test_put_get_fifo(self, env):
        store = Store(env)
        got = []

        def producer():
            for i in range(3):
                yield store.put(i)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def consumer():
            item = yield store.get()
            return (env.now, item)

        def producer():
            yield env.timeout(5)
            yield store.put("late")

        c = env.process(consumer())
        env.process(producer())
        assert env.run(until=c) == (5.0, "late")

    def test_put_schedules_before_the_getter_it_satisfies(self, env):
        store = Store(env)
        getter = store.get()
        put = store.put("x")
        order = []
        for ev in (getter, put):
            ev.callbacks.append(lambda e: order.append(type(e).__name__))
        env.run()
        assert order == ["StorePut", "StoreGet"]
        assert getter.value == "x"

    def test_put_never_blocks(self, env):
        store = Store(env)

        def producer():
            for i in range(100):
                yield store.put(i)
            return env.now

        assert env.run(until=env.process(producer())) == 0.0
        assert store.items == list(range(100))

    def test_get_takes_a_buffered_item_at_once(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        get = store.get()
        assert get.triggered
        assert get.value == "a"
        assert store.items == ["b"]

    def test_waiting_getters_served_in_arrival_order(self, env):
        store = Store(env)
        got = []

        def consumer(tag, arrival):
            yield arrival
            got.append((tag, (yield store.get())))

        def producer():
            yield 5
            store.put("a")
            store.put("b")

        env.process(consumer("second", 2))
        env.process(consumer("first", 1))
        env.process(producer())
        env.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_cancelled_getter_is_skipped(self, env):
        store = Store(env)
        first = store.get()
        second = store.get()
        first.cancel()
        store.put("x")
        env.run()
        assert not first.triggered
        assert second.value == "x"
        assert store.items == []

    def test_directly_built_getter_can_be_cancelled(self, env):
        store = Store(env)
        getter = StoreGet(store)
        getter.cancel()
        store.put("x")
        env.run()
        assert not getter.triggered
        assert store.items == ["x"]
