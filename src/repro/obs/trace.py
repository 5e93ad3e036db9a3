"""Tracer core: typed events in simulated time, plus a span API.

A :class:`Tracer` hangs off an :class:`~repro.sim.core.Environment`
(``env.attach_tracer(tracer)``) and records two kinds of things:

- **events**: point-in-time facts ``(ts, category, name, args)`` --
  a kernel pop, a transfer retry, a placement decision;
- **spans**: intervals ``[start, end]`` with parent/child linkage --
  a workflow task, an input-staging phase, one RPC.

Everything is stamped with *simulated* time (``env.now``), never wall
time, so traces are deterministic and diffable across runs.

The disabled fast path is the module singleton :data:`NULL_TRACER`:
every method is a no-op, ``wants()`` is always ``False``, and
instrumented components cache ``wants(category)`` as a plain boolean at
construction so the per-event cost with tracing off is one attribute
load and a falsy branch.  The tracer itself never touches any RNG and
never schedules simulation events, so enabling it cannot perturb a run.

Point events are kept in one flat, append-only log of scalars, eight
slots a row: ``now``, ``cat``, ``name``, then either the kwargs dict of
an :meth:`Tracer.emit` (``None`` when it had none) and four unused
slots, or a field-name tuple and up to four values passed positionally
to :meth:`Tracer.record` (the kernel's calendar records and the
network's transfer open/done records).  A positional record therefore
builds no dict and keeps no tuple.  ``tracer.events`` turns rows into
``(ts, cat, name, args)`` tuples when it is read, and
:meth:`Tracer.events_of` yields only the rows of one category.

Event volume is bounded by ``max_events``; beyond the cap events and
spans are counted (``dropped``) but not retained.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["TRACE_CATEGORIES", "Span", "Tracer", "NullTracer", "NULL_TRACER"]

#: The closed event taxonomy; ``ObservabilitySpec.categories`` must be a
#: subset.  See docs/observability.md for the events each category emits.
TRACE_CATEGORIES: Tuple[str, ...] = (
    "kernel",     # schedule/pop/cancel/reschedule + queue depth
    "network",    # transfer open/done/abort/retry, per-leg RPC timing
    "flow",       # fair-share re-solves: component size, flows rescheduled
    "registry",   # metadata op start/finish, registry slot waits
    "scheduler",  # per-placement candidate scores
    "workload",   # tenant submit, admission enqueue/dequeue (reject reserved)
    "elastic",    # autoscaler decisions, VM provision/drain lifecycle
    "span",       # interval spans (tasks, staging, transfers, RPCs)
)


class Span:
    """One traced interval, closed by ``finish()`` or a ``with`` block.

    Only :meth:`Tracer.span` makes spans, filling every slot itself:
    ``id``, ``name``, ``cat``, the ``parent`` span id (or ``None``),
    ``start``, ``end`` (``None`` while open), the ``args`` dict and the
    owning ``_tracer``.
    """

    __slots__ = ("id", "name", "cat", "parent", "start", "end", "args", "_tracer")

    def finish(self, **extra: object) -> None:
        """Close the span at the current simulated time (idempotent)."""
        if self.end is None:
            self.end = self._tracer._env.now
            if extra:
                self.args.update(extra)

    def child(self, name: str, **args: object) -> "Span":
        """Open a child span parented to this one."""
        return self._tracer.span(name, parent=self, **args)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    def __repr__(self) -> str:
        return (
            f"<Span #{self.id} {self.name!r} [{self.start}, {self.end}]"
            f"{'' if self.parent is None else f' parent={self.parent}'}>"
        )


class _NullSpan:
    """Span stand-in returned by :class:`NullTracer`; does nothing."""

    __slots__ = ()
    id = -1
    parent = None

    def finish(self, **extra: object) -> None:
        pass

    def child(self, name: str, **args: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()

#: Slots per row of :attr:`Tracer._log`.
_STRIDE = 8

#: Allocates a :class:`Span` without a constructor call; the tracer
#: fills its slots.
_new_span = object.__new__


class Tracer:
    """Collects events and spans from an instrumented simulation.

    ``categories`` selects which parts of the taxonomy are live
    (``None`` = all).  Components query ``wants(cat)`` once at
    construction and skip emission entirely for dead categories, so a
    partially-enabled tracer only pays for what it records.
    """

    enabled = True

    def __init__(
        self,
        env,
        categories: Optional[Tuple[str, ...]] = None,
        max_events: int = 1_000_000,
        sample_interval: float = 1.0,
        histogram_capacity: int = 2048,
    ):
        if categories is not None:
            unknown = set(categories) - set(TRACE_CATEGORIES)
            if unknown:
                raise ValueError(
                    f"unknown trace categories: {sorted(unknown)}; "
                    f"known: {list(TRACE_CATEGORIES)}"
                )
        self._env = env
        self._cats = frozenset(
            TRACE_CATEGORIES if categories is None else categories
        )
        #: The point-event log, ``_STRIDE`` slots a row (module doc).
        self._log: list = []
        #: Rows already turned into ``events`` tuples (a prefix).
        self._events: List[Tuple[float, str, str, Optional[dict]]] = []
        self.spans: List[Span] = []
        #: Records per category, every category present from the start
        #: so that a recorder counts with one subscript (``counts``).
        self._counts: Dict[str, int] = dict.fromkeys(TRACE_CATEGORIES, 0)
        self.dropped = 0
        self._budget = max_events
        self._next_span_id = 0
        self.metrics = MetricsRegistry(
            sample_interval=sample_interval,
            histogram_capacity=histogram_capacity,
        )
        #: The simulated instant of the previous record.  Only the first
        #: record of an instant can pass the registry's sample gate
        #: ``now - last < sample_interval``: the interval is validated
        #: positive, and a passing record sets ``last`` to ``now``.  So
        #: the recorders call ``maybe_sample`` once per instant, which
        #: samples exactly as a call per record would.
        self._instant: Optional[float] = None

    # -- emission -----------------------------------------------------------------

    def wants(self, cat: str) -> bool:
        """True if ``cat`` events would be recorded; cache me as a bool."""
        return cat in self._cats

    @property
    def counts(self) -> Dict[str, int]:
        """Records per category that recorded any, dropped ones
        included: the budget caps what is kept, never what is counted."""
        return {cat: n for cat, n in self._counts.items() if n}

    def emit(self, cat: str, name: str, **args: object) -> None:
        """Record one point event at the current simulated time."""
        if cat not in self._cats:
            return
        self._counts[cat] += 1
        now = self._env.now
        if self._budget > 0:
            self._budget -= 1
            self._log += (
                now, cat, name, args or None, None, None, None, None
            )
        else:
            self.dropped += 1
        if now != self._instant:
            self._instant = now
            self.metrics.maybe_sample(now)

    def record(
        self, cat: str, name: str, keys: Tuple[str, ...], a, b, c=None, d=None
    ) -> None:
        """Record one ``cat`` event whose fields ``keys`` name the values
        ``a``..``d`` in order (as many as there are keys).

        The kernel's calendar sites and the network's ``transfer_open``
        and ``transfer_done`` sites call this instead of :meth:`emit`,
        and only while ``wants(cat)``: the row keeps the values
        themselves, so no dict is built until ``events`` is read.
        """
        self._counts[cat] += 1
        now = self._env.now
        if self._budget > 0:
            self._budget -= 1
            self._log += (now, cat, name, keys, a, b, c, d)
        else:
            self.dropped += 1
        if now != self._instant:
            self._instant = now
            self.metrics.maybe_sample(now)

    def span(self, name: str, cat: str = "span", parent=None, **args) -> Span:
        """Open a span at ``env.now``; close with ``finish()``/``with``.

        ``parent`` is an open :class:`Span` (or a span id).  There is
        deliberately *no* implicit current-span stack: simulation
        processes interleave at every yield, so parentage must be
        threaded explicitly by the instrumented code.
        """
        if cat not in self._cats:
            return NULL_SPAN
        self._counts[cat] += 1
        now = self._env.now
        span = _new_span(Span)
        span.id = self._next_span_id
        self._next_span_id += 1
        span.name = name
        span.cat = cat
        span.parent = parent.id if isinstance(parent, Span) else parent
        span.start = now
        span.end = None
        span.args = args
        span._tracer = self
        if self._budget > 0:
            self._budget -= 1
            self.spans.append(span)
        else:
            self.dropped += 1
        if now != self._instant:
            self._instant = now
            self.metrics.maybe_sample(now)
        return span

    # -- reading ------------------------------------------------------------------

    @staticmethod
    def _row(log: list, i: int) -> Tuple[float, str, str, Optional[dict]]:
        """The ``(ts, cat, name, args)`` tuple of the row at slot ``i``."""
        args = log[i + 3]
        if type(args) is tuple:  # positional row: field names, values
            args = dict(zip(args, log[i + 4:i + _STRIDE]))
        return log[i], log[i + 1], log[i + 2], args

    @property
    def events(self) -> List[Tuple[float, str, str, Optional[dict]]]:
        """Every retained point event as ``(ts, cat, name, args)``, in
        emission order.

        Built from the log on read and cached: a later read extends the
        same list with the rows recorded since, so an earlier result is
        a prefix of a later one.
        """
        cached = self._events
        log = self._log
        row = self._row
        for i in range(len(cached) * _STRIDE, len(log), _STRIDE):
            cached.append(row(log, i))
        return cached

    def events_of(
        self, cat: str
    ) -> Iterator[Tuple[float, str, str, Optional[dict]]]:
        """Yield the retained events of one category, in emission order,
        as ``events`` lists them, without turning the other categories'
        rows.

        A generator, so a reader that only loops holds one event tuple
        at a time instead of a list of them.
        """
        log = self._log
        cats = log[1::_STRIDE]
        row = self._row
        # list.index scans the category column in C, so only the rows
        # of ``cat`` cost interpreted work.
        i = -1
        while True:
            try:
                i = cats.index(cat, i + 1)
            except ValueError:  # no further row of ``cat``
                return
            yield row(log, i * _STRIDE)

    # -- export -------------------------------------------------------------------

    def export(self) -> Dict[str, object]:
        """Summary + metrics dump for ``ScenarioResult``/artifacts.

        Raw events are *not* embedded (use the Chrome/JSONL exporters in
        :mod:`repro.obs.export`); this is the bounded summary that is
        safe to persist with every run.
        """
        self.metrics.sample(self._env.now, force=True)
        return {
            "events": dict(sorted(self.counts.items())),
            "n_events": len(self._log) // _STRIDE,
            "n_spans": len(self.spans),
            "dropped": self.dropped,
            "metrics": self.metrics.export(),
        }


class NullTracer:
    """The disabled fast path: every operation is a no-op.

    Use the module singleton :data:`NULL_TRACER`; components written as
    ``tr = env.tracer or NULL_TRACER`` never need a None check.
    """

    enabled = False

    def wants(self, cat: str) -> bool:
        return False

    def emit(self, cat: str, name: str, **args: object) -> None:
        pass

    def span(self, name: str, cat: str = "span", parent=None, **args) -> _NullSpan:
        return NULL_SPAN

    def export(self) -> Dict[str, object]:
        return {}


NULL_TRACER = NullTracer()
