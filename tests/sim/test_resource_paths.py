"""The flat ``Resource`` slot paths against the queue round-trip.

``Resource`` grants a request at once when a slot is free and nobody
waits, without passing it through the queue; ``try_acquire`` sets its
granted request's slots directly; and a release with nobody waiting
does not call ``_trigger``.  ``_RoundTrip`` keeps the old paths: every
request joins the queue and ``_trigger`` grants it, and every release
calls ``_trigger``.  Seeded plans of mixed requests, synchronous claims,
holds, releases and cancels before a grant must give the same kernel
JSONL trace, grant order and statistics on both.
"""

import random

import pytest

from repro.obs import Tracer
from repro.obs.export import events_jsonl
from repro.sim import Environment, Resource
from repro.sim.core import Event
from repro.sim.resources import Request


class _RoundTrip(Resource):
    """``Resource`` with every request and release through the queue."""

    def request(self):
        req = Request.__new__(Request)
        Event.__init__(req, self.env)
        req.resource = self
        req.issued_at = self.env.now
        self._request(req)
        return req

    def try_acquire(self):
        if self.queue or len(self.users) >= self._capacity:
            return None
        req = Request.__new__(Request)
        Event.__init__(req, self.env)
        req.resource = self
        req.issued_at = self.env.now
        req._ok = True
        req._value = None
        req.callbacks = None
        self.total_requests += 1
        self.max_queue_len = max(self.max_queue_len, len(self.queue) + 1)
        self.users.append(req)
        return req

    def _request(self, request):
        self.total_requests += 1
        self.queue.append(request)
        self.max_queue_len = max(self.max_queue_len, len(self.queue))
        self._trigger()

    def _release(self, request):
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue and not request.triggered:
            self.queue.remove(request)
        self._trigger()


#: Delays that often coincide, so same-instant ties are common.
DELAYS = (0, 0, 0.25, 0.25, 1.0, 1.5)
STEPS = ("hold", "claim", "release_event", "give_up", "wait")


def _run_plan(cls, seed, n_procs=10, n_steps=14):
    """Run one seeded plan on a ``cls`` resource; return its kernel
    JSONL trace, the (time, process, step, outcome) log and the stats."""
    rng = random.Random(seed)
    env = Environment()
    tracer = Tracer(env, categories=("kernel",))
    env.attach_tracer(tracer)
    res = cls(env, capacity=rng.randint(1, 3))
    log = []

    def worker(pid, steps):
        for i, (step, delay) in enumerate(steps):
            if step == "hold":
                with res.request() as req:
                    yield req
                    log.append((env.now, pid, i, "granted"))
                    yield delay
            elif step == "claim":
                req = res.try_acquire()
                log.append((env.now, pid, i, "hit" if req else "miss"))
                if req is None:
                    req = res.request()
                    yield req
                    log.append((env.now, pid, i, "granted"))
                yield delay
                req.cancel()
            elif step == "release_event":
                req = res.request()
                yield req
                log.append((env.now, pid, i, "granted"))
                yield delay
                yield res.release(req)
            elif step == "give_up":
                req = res.request()
                yield 0.1 + delay / 4
                if req.triggered:
                    log.append((env.now, pid, i, "granted late"))
                    yield req
                else:
                    log.append((env.now, pid, i, "gave up"))
                req.cancel()
            else:
                yield delay
        log.append((env.now, pid, "done"))

    for pid in range(n_procs):
        steps = [
            (rng.choice(STEPS), rng.choice(DELAYS)) for _ in range(n_steps)
        ]
        env.process(worker(pid, steps))
    env.run()
    stats = (
        res.total_requests,
        res.max_queue_len,
        res.total_wait_time,
        len(res.users),
        len(res.queue),
    )
    return list(events_jsonl(tracer)), log, stats


@pytest.mark.parametrize("seed", range(40))
def test_flat_paths_match_the_queue_round_trip(seed):
    assert _run_plan(Resource, seed) == _run_plan(_RoundTrip, seed)


def test_plans_reach_every_path():
    """Across the seeds, every path the flat code short-cuts is taken:
    fast grants, queued grants with a wait, claim hits and misses, and
    requests withdrawn before their grant."""
    outcomes, waited = set(), False
    for seed in range(40):
        _, log, stats = _run_plan(Resource, seed)
        outcomes |= {entry[-1] for entry in log}
        waited = waited or stats[2] > 0
        assert stats[3:] == (0, 0)  # every slot handed back
    assert {"granted", "hit", "miss", "gave up"} <= outcomes
    assert waited
