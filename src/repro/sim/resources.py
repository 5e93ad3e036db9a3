"""Shared resources for the simulation kernel.

Two families, each exactly what the model runs:

- :class:`Resource`: a bounded number of usage slots with a FIFO wait
  queue.  It models registry service concurrency
  (``metadata/registry.py``), network link slots (``cloud/network.py``),
  VM cores (``cloud/vm.py``) and the ``max_in_flight`` admission
  semaphore (``workload/admission.py``), which hands its slot back
  through :meth:`Resource.release`.
- :class:`Store`: an unbounded FIFO buffer of items.  The hybrid
  strategy's replication pump (``metadata/consistency.py``) sleeps on
  one until its flush timer fires or a full batch nudges it.

Requests are events; acquiring with a ``with`` block guarantees release
even if the holding process crashes::

    with resource.request() as req:
        yield req
        yield service_time
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.sim.core import _PENDING, Environment, Event

__all__ = ["Request", "Resource", "Store"]


class Request(Event):
    """A pending claim on one slot of a :class:`Resource`.

    Usable as a context manager so the slot is always released.
    """

    __slots__ = ("resource", "issued_at")

    def __init__(self, resource: "Resource"):
        # Event.__init__, inlined: a request is made for every registry
        # op, link slot and compute step.
        self.env = env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self._entry = None
        self.resource = resource
        #: Simulated time at which the request was issued (for queue stats).
        self.issued_at = env.now
        resource._request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> bool:
        self.cancel()
        return False

    def cancel(self) -> None:
        """Release the slot if held, or withdraw from the wait queue."""
        self.resource._release(self)


class Release(Event):
    """Immediate event confirming a release through :meth:`Resource.release`.

    The ``max_in_flight`` admission policy releases its slots this way,
    so each release is one scheduled (and traced) kernel event.
    """

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request):
        super().__init__(resource.env)
        self.request = request
        resource._release(request)
        self.succeed()


class Resource:
    """A bounded set of usage slots with a FIFO wait queue.

    Statistics are tracked for the experiment harness: total waits,
    cumulative waiting time and a high-water mark of queue length let the
    experiments quantify contention at the metadata registries (the
    centralized-bottleneck effect in Figs. 5 and 7).
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.users: List[Request] = []
        self.queue: List[Request] = []
        # -- contention statistics
        self.total_requests = 0
        self.total_wait_time = 0.0
        self.max_queue_len = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def try_acquire(self) -> Optional[Request]:
        """Claim a slot synchronously, or return ``None`` if it would wait.

        Succeeds only when a slot is free *and* nobody is queued (so it
        can never overtake a waiter).  The returned request is already
        granted and processed -- no calendar event is scheduled, which is
        what makes this the hot path for uncontended servers and links:
        the caller pays only its own service/transmission timeout instead
        of an extra same-instant grant hop through the event queue.
        Release exactly like a waited request (``cancel``/``_release`` or
        a ``with`` block).
        """
        if self.queue or len(self.users) >= self._capacity:
            return None
        req = Request.__new__(Request)
        req.env = env = self.env
        req.callbacks = None  # granted and processed
        req._value = None
        req._ok = True
        req.defused = False
        req._entry = None
        req.resource = self
        req.issued_at = env.now
        # Mirror the queued path's accounting: the request transits the
        # (empty) queue for an instant there, so the high-water mark
        # counts it.
        self.total_requests += 1
        if self.max_queue_len < 1:
            self.max_queue_len = 1
        self.users.append(req)
        return req

    def release(self, request: Request) -> Release:
        return Release(self, request)

    # -- internal ----------------------------------------------------------

    def _request(self, request: Request) -> None:
        self.total_requests += 1
        queue = self.queue
        if not queue and len(self.users) < self._capacity:
            # Granted at once: the queue round-trip would only add a
            # zero wait to ``total_wait_time``.
            if self.max_queue_len < 1:
                self.max_queue_len = 1
            self.users.append(request)
            request.succeed()
            return
        queue.append(request)
        self.max_queue_len = max(self.max_queue_len, len(queue))
        self._trigger()

    def _release(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue and not request.triggered:
            self.queue.remove(request)
        if self.queue:
            self._trigger()

    def _trigger(self) -> None:
        # Grants waiters in FIFO order; only a non-empty queue gets
        # here (a free slot with nobody waiting is granted in
        # ``_request``, and a release with nobody waiting is done).
        users = self.users
        queue = self.queue
        now = self.env.now
        while queue and len(users) < self._capacity:
            nxt = queue.pop(0)
            users.append(nxt)
            self.total_wait_time += now - nxt.issued_at
            nxt.succeed()


class StorePut(Event):
    """Confirms a put; the item goes to the oldest waiting getter, or
    into the store."""

    __slots__ = ()

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        # Scheduled before the getter the item satisfies.
        self.succeed()
        if store._get_queue:
            store._get_queue.pop(0).succeed(item)
        else:
            store.items.append(item)


class StoreGet(Event):
    """Takes the oldest item, waiting while the store is empty."""

    __slots__ = ("_store",)

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self._store = store
        if store.items:
            self.succeed(store.items.pop(0))
        else:
            store._get_queue.append(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-satisfied get (e.g. on timeout races)."""
        getters = self._store._get_queue
        if self in getters:
            getters.remove(self)


class Store:
    """An unbounded FIFO buffer of Python objects.

    ``put`` never blocks; ``get`` blocks while the store is empty, and
    waiting getters are served in arrival order.  Items and waiting
    getters never coexist: a put hands its item straight to a waiter.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.items: List[Any] = []
        self._get_queue: List[StoreGet] = []

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)
