"""Core event loop, events and processes for the simulation kernel.

The design mirrors the well-known process-interaction DES architecture:

- an :class:`Environment` owns an event calendar keyed by ``(time,
  priority, sequence)`` so simultaneous events fire in a stable,
  deterministic order;
- an :class:`Event` is a one-shot awaitable that moves through the states
  *pending -> triggered -> processed* and fans out to callbacks;
- a :class:`Process` wraps a Python generator; each ``yield`` suspends the
  process until the yielded event fires, and event values/exceptions are
  sent/thrown back into the generator.  A process that yields a bare
  non-negative number instead *sleeps* for that long: the calendar entry
  names the process itself, so the wake-up needs no event object, no
  callbacks list and no bound method.

Determinism is a hard requirement here (experiments must be exactly
reproducible), hence the explicit tie-breaking sequence counter and the
absence of any wall-clock or hash-order dependence.

Kernel-level optimizations serve high event-churn workloads (the
flow-level bandwidth model reschedules every affected transfer whenever
a flow starts or finishes, and every network leg and service time of
the metadata hot path is a wait):

- ``Event``/``Timeout``/``Process`` declare ``__slots__``;
- a sleep is scheduled at exactly the point, and with exactly the key,
  that ``Timeout(env, delay)`` would have been, so swapping one for the
  other changes no pop order (``tests/sim/test_queue_backends.py``);
- calendar entries are lazily deleted: :meth:`Environment.reschedule`
  invalidates the old heap entry in O(1) and pushes a re-keyed one in
  O(log n), instead of rebuilding the heap.  Dead entries are skipped
  (and purged) as they surface, and when more than half the calendar is
  dead the whole queue is compacted in one O(n) pass so rebalance churn
  can never grow the calendar without bound.

See ``docs/performance.md`` for the profiling workflow these choices
came from.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from itertools import count
from numbers import Real
from typing import (
    Any,
    Callable,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionEvent",
    "Environment",
    "Event",
    "EventPriority",
    "Process",
    "SimulationError",
    "Timeout",
]

_INF = float("inf")

#: Field names of the kernel's trace records, in the order each trace
#: site passes the values to ``tracer.kernel`` (``repro.obs.Tracer``).
_SCHEDULE = ("t", "prio", "kind", "depth")
_POP = ("t", "prio", "depth")
_RESCHEDULE = ("old_t", "t", "depth")
_CANCEL = ("t", "depth")


def _invalid_delay(delay: Any) -> ValueError:
    """The error for a delay that fails ``delay >= 0`` (negative or NaN)."""
    return ValueError(
        f"{'Negative' if delay < 0 else 'Invalid'} delay {delay!r}"
    )


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class EventPriority:
    """Symbolic priorities for same-timestamp event ordering.

    Lower values fire first.  ``URGENT`` is used by the kernel to start
    a process and to resume one that yielded an already-processed event,
    so both run ahead of normal activity scheduled at the same instant;
    ``NORMAL`` is the default for user events.
    """

    URGENT = 0
    NORMAL = 1


# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class _Wake:
    """The outcome a sleeping process is resumed with: success, ``None``."""

    __slots__ = ()
    _ok = True
    _value = None


_WAKE = _Wake()


class Event:
    """A one-shot occurrence that other entities can wait on.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling it on the environment's calendar; when the
    event loop pops it, the event becomes *processed* and its callbacks run.

    Attributes
    ----------
    env:
        Owning :class:`Environment`.
    callbacks:
        List of callables invoked with the event once processed.  ``None``
        after processing (appending then is an error, caught explicitly).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused", "_entry")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set when a failed event's exception was delivered to at least one
        #: waiter (or explicitly defused); undelivered failures surface at
        #: the end of the run so errors cannot vanish silently.
        self.defused = False
        #: Live calendar entry while scheduled (lazy-deletion handle).
        self._entry: Optional[list] = None

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("Event not yet triggered; 'ok' undefined")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance for failed events)."""
        if self._value is _PENDING:
            raise SimulationError("Event not yet triggered; no value")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, EventPriority.NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, EventPriority.NORMAL)
        return self

    # -- composition ------------------------------------------------------

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    A process that only waits out a delay should yield the bare number
    instead (see :class:`Process`); a ``Timeout`` is for waits that are
    composed (``AnyOf``), shared, rescheduled or cancelled.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:
            raise _invalid_delay(delay)
        # Flattened Event.__init__ + triggering: a timeout is born
        # triggered, so it pays to skip the two-level super() chain.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self._delay = delay
        # Inlined Environment._schedule (NORMAL priority).
        entry = [env.now + delay, 1, next(env._seq), self]
        self._entry = entry
        heappush(env._queue, entry)
        if env._trace_kernel:
            env.tracer.kernel(
                "schedule", _SCHEDULE,
                entry[0], 1, "Timeout", len(env._queue),
            )

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay}>"


class Initialize(Event):
    """Kernel event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self.defused = False
        # Inlined Environment._schedule (URGENT priority, zero delay).
        entry = [env.now, 0, next(env._seq), self]
        self._entry = entry
        heappush(env._queue, entry)
        if env._trace_kernel:
            env.tracer.kernel(
                "schedule", _SCHEDULE,
                entry[0], 0, "Initialize", len(env._queue),
            )


class Process(Event):
    """Wraps a generator; the process event fires when the generator ends.

    Yield semantics inside the generator:

    - ``yield some_event`` suspends until the event fires; its value is the
      result of the ``yield`` expression, or the exception is thrown in.
    - ``yield delay`` (a non-negative real number, numpy scalars
      included; ``bool`` is rejected) sleeps for ``delay``: the calendar
      entry ``Timeout(env, delay)`` would have made names the process
      instead, and the ``yield`` evaluates to ``None``.  While asleep
      the process's own ``_entry`` is that wake-up entry.
    - ``return value`` (or ``StopIteration``) makes the process event
      succeed with ``value``, waking anything waiting on the process.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's outcome."""
        env = self.env
        try:
            if event._ok:
                next_target = self._generator.send(event._value)
            else:
                # Exceptions delivered into a process count as handled.
                event.defused = True
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process crashed
            self.fail(exc)
            return

        cls = next_target.__class__
        if cls is float or cls is int or (
            cls is not bool
            and not isinstance(next_target, Event)
            and isinstance(next_target, Real)
        ):
            # Sleep: schedule the process itself where Timeout(env,
            # next_target) would have gone (same key, same sequence).
            if not next_target >= 0:
                raise _invalid_delay(next_target)
            entry = [env.now + next_target, 1, next(env._seq), self]
            self._entry = entry
            heappush(env._queue, entry)
            if env._trace_kernel:
                env.tracer.kernel(
                    "schedule", _SCHEDULE,
                    entry[0], 1, "Timeout", len(env._queue),
                )
            return
        if not isinstance(next_target, Event):
            raise SimulationError(
                f"Process {self.name!r} yielded non-event {next_target!r}"
            )
        if next_target.env is not env:
            raise SimulationError(
                f"Process {self.name!r} yielded event from another environment"
            )
        if next_target.callbacks is None:
            # Already processed: resume immediately at the same instant.
            immediate = Event(env)
            immediate._ok = next_target._ok
            immediate._value = next_target._value
            immediate.callbacks = [self._resume]
            env._schedule(immediate, EventPriority.URGENT)
        else:
            next_target.callbacks.append(self._resume)

    def __repr__(self) -> str:
        state = "alive" if self._value is _PENDING else "done"
        return f"<Process {self.name!r} {state}>"


class ConditionEvent(Event):
    """Base for events that fire when a predicate over child events holds."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events: Tuple[Event, ...] = tuple(events)
        self._fired: List[Event] = []
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("Condition mixes environments")
            if ev.callbacks is None:  # already processed
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        # An empty condition is trivially satisfied.
        if not self._events and self._value is _PENDING:
            self.succeed({})

    def _predicate(self, fired: int, total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._fired.append(event)
        if self._predicate(len(self._fired), len(self._events)):
            self.succeed(self._collect())

    def _collect(self) -> dict:
        """Map each child event that actually *fired* to its value.

        Note: a Timeout carries its value from construction, so "has a
        value" is not the same as "has fired" -- only events whose
        callbacks ran are included.
        """
        return {ev: ev._value for ev in self._fired}


class AllOf(ConditionEvent):
    """Fires when *all* child events have fired (fails fast on failure)."""

    def _predicate(self, fired: int, total: int) -> bool:
        return fired == total


class AnyOf(ConditionEvent):
    """Fires when *any* child event has fired."""

    def _predicate(self, fired: int, total: int) -> bool:
        return fired >= 1


#: Compaction is considered once the calendar holds this many entries.
_COMPACT_MIN = 64


class Environment:
    """The event loop: virtual clock plus a deterministic event calendar.

    Calendar entries are mutable 4-slot lists ``[time, priority, seq,
    event]``; cancelling or rescheduling an entry sets its event slot to
    ``None`` (lazy deletion) instead of removing it from the queue.  Dead
    entries are discarded as they surface at the queue head, and
    :meth:`cancel`/:meth:`reschedule` trigger a full O(n) compaction
    whenever more than half of a non-trivial calendar is dead, so heavy
    rebalance churn cannot grow the calendar without bound.  An entry
    whose event is a still-running :class:`Process` is that process's
    wake-up from a sleep; it is dispatched by resuming the process.

    Parameters
    ----------
    initial_time:
        Starting value of the virtual clock.
    """

    def __init__(self, initial_time: float = 0.0):
        #: Current simulated time (seconds by convention in this repo).
        #: A plain attribute, not a property: the kernel reads it on
        #: every schedule and the model layers on every op, so the
        #: descriptor overhead was measurable.  Treat it as read-only.
        self.now = float(initial_time)
        self._queue: List[list] = []
        self._seq = count()
        self._dead = 0
        #: Observability hook (a ``repro.obs.Tracer``), attached via
        #: :meth:`attach_tracer`; ``None`` while tracing is off.
        #: ``_trace_kernel`` caches ``tracer.wants("kernel")`` as a plain
        #: bool so the hot paths pay one attribute load and a falsy
        #: branch when disabled.
        self.tracer = None
        self._trace_kernel = False
        #: Events dispatched by :meth:`run` over this environment's
        #: lifetime -- the cheapest observability counter, maintained
        #: whether or not a tracer is attached.
        self.events_processed = 0

    # -- clock ------------------------------------------------------------

    @property
    def queued(self) -> int:
        """Calendar entries currently held (live + lazily-deleted)."""
        return len(self._queue)

    def attach_tracer(self, tracer) -> None:
        """Hook an observability tracer (``repro.obs.Tracer``) in.

        Must happen before the components under observation are built:
        they cache ``tracer.wants(category)`` booleans at construction.
        The tracer only *records*; it never schedules events or consumes
        randomness, so attaching one cannot change simulated behaviour.
        """
        self.tracer = tracer
        self._trace_kernel = bool(
            tracer is not None and tracer.enabled and tracer.wants("kernel")
        )

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling ---------------------------------------------------------

    def _schedule(
        self, event: Event, priority: int, delay: float = 0.0
    ) -> None:
        entry = [self.now + delay, priority, next(self._seq), event]
        event._entry = entry
        heappush(self._queue, entry)
        if self._trace_kernel:
            self.tracer.kernel(
                "schedule", _SCHEDULE,
                entry[0], priority, type(event).__name__, len(self._queue),
            )

    def reschedule(self, event: Event, delay: float) -> None:
        """Move a scheduled, not-yet-processed event to fire ``delay`` from now.

        O(log n): the old calendar entry is lazily deleted in place and a
        re-keyed entry is pushed.  This is the primitive the flow-level
        bandwidth model leans on -- every fair-share rebalance reschedules
        the completion of each affected transfer.  The entry keeps its
        priority.
        """
        if not delay >= 0:
            raise _invalid_delay(delay)
        entry = event._entry
        if entry is None or entry[3] is None or event.processed:
            raise SimulationError(f"{event!r} is not scheduled; cannot reschedule")
        entry[3] = None  # lazy-delete the stale entry
        self._schedule(event, entry[1], delay)
        if self._trace_kernel:
            self.tracer.kernel(
                "reschedule", _RESCHEDULE,
                entry[0], event._entry[0], len(self._queue),
            )
        self._note_dead()

    def cancel(self, event: Event) -> None:
        """Withdraw a scheduled, not-yet-processed event from the calendar.

        O(1) lazy deletion: the entry stays in the queue but is skipped
        (and purged) when it surfaces.  The event will never fire.
        """
        entry = event._entry
        if entry is None or entry[3] is None or event.processed:
            raise SimulationError(f"{event!r} is not scheduled; cannot cancel")
        entry[3] = None
        event._entry = None
        if self._trace_kernel:
            self.tracer.kernel(
                "cancel", _CANCEL, entry[0], len(self._queue)
            )
        self._note_dead()

    def _note_dead(self) -> None:
        """Account one lazily-deleted entry; compact past the 50% mark."""
        self._dead += 1
        size = len(self._queue)
        if size > _COMPACT_MIN and self._dead * 2 > size:
            self._compact()

    def _compact(self) -> None:
        """Drop every dead entry in one pass and restore the heap shape.

        Mutates the existing queue object in place (local aliases held
        by a running :meth:`run` loop stay valid).  Order is unaffected:
        entries are totally ordered by their unique ``(time, priority,
        seq)`` key, so re-heapifying the surviving entries cannot change
        the pop sequence.
        """
        queue = self._queue
        queue[:] = [e for e in queue if e[3] is not None]
        heapq.heapify(queue)
        self._dead = 0

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until the calendar drains, a time is reached, or an event fires.

        Parameters
        ----------
        until:
            ``None`` -- run to exhaustion; a number -- run until that
            simulated time; an :class:`Event` -- run until it fires, and
            return its value (or raise its exception if it failed --
            the same contract whether the event fires during this call
            or had already been processed before it).
        """
        stop_event: Optional[Event] = None
        if until is None:
            deadline = _INF
        elif isinstance(until, Event):
            stop_event = until
            deadline = _INF
            if stop_event.processed:
                # Mirror the post-loop path: a failed 'until' event
                # raises instead of handing back the exception object.
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
        else:
            deadline = float(until)
            if not deadline >= self.now:
                raise ValueError(
                    f"until={deadline} is NaN or in the past (now={self.now})"
                )

        # The hottest loop in the whole simulator: each pass purges one
        # dead entry from the head, or pops the live head entry and
        # dispatches it -- a sleeping process's wake-up resumes the
        # process, any other event runs its callbacks.
        queue = self._queue
        trace = self._trace_kernel
        processed = 0
        # The dispatch count is kept in a local and folded back in the
        # finally block (the loop exits by break, by draining or by a
        # raise) -- one C-level int add per event instead of an
        # attribute store, keeping the tracing-off cost unmeasurable.
        try:
            while queue:
                if stop_event is not None and stop_event.callbacks is None:
                    break  # the 'until' event has been processed
                entry = queue[0]
                if entry[3] is None:
                    heappop(queue)
                    self._dead -= 1
                    continue
                if entry[0] > deadline:
                    self.now = deadline
                    break
                heappop(queue)
                event = entry[3]
                self.now = entry[0]
                processed += 1
                if trace:
                    self.tracer.kernel(
                        "pop", _POP, entry[0], entry[1], len(queue)
                    )
                event._entry = None
                if event._ok is None:
                    event._resume(_WAKE)  # a sleeping process's wake-up
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event.defused:
                    # A failure nobody waited on: surface it, don't lose it.
                    raise event._value
            else:
                # Queue drained naturally.
                if stop_event is None and deadline != _INF:
                    self.now = deadline
        finally:
            self.events_processed += processed

        if stop_event is not None:
            if not stop_event.processed:
                raise SimulationError(
                    "Run ended before 'until' event fired (deadlock?)"
                )
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        return None

    def __repr__(self) -> str:
        return f"<Environment t={self.now} queued={len(self._queue)}>"
