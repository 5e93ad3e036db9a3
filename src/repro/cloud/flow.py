"""Flow-level hierarchical max-min fair bandwidth sharing.

The slot model in :mod:`repro.cloud.network` grants every in-flight
transfer the *full* link bandwidth and only bounds how many may be in
flight at once.  Under load that systematically underestimates WAN
contention -- exactly the regime where the paper's centralized registry
saturates (Fig. 7) and the decentralized strategies keep scaling
(Fig. 8).  This module provides the standard DES alternative: finite
link capacities shared max-min fairly by the *active flows*, with two
extensions beyond plain per-link sharing:

- **hierarchical constraints**: a flow is simultaneously limited by its
  directed link's capacity, the source site's total *egress* cap and the
  destination site's total *ingress* cap (a site NIC/uplink is one pipe
  no matter how many distinct links leave it).  Links coupled through a
  site cap are balanced together by a :class:`FlowNetwork`;
- **weights**: each flow carries a ``weight`` and receives shares
  proportional to it wherever it is bottlenecked (weighted max-min),
  so priority traffic (metadata hot path) can be favored over bulk
  provisioning.

Mechanics
---------

A :class:`Flow` is ``size`` bytes in transit over one directed link.
While active it drains at ``flow.rate`` bytes/second.  Rates are
computed by *water-filling over constraint sets* (progressive filling):

1. every constraint (link capacity, site egress, site ingress, and each
   flow's own rate cap) bounds the sum of the rates of the flows it
   covers;
2. raise a common water level ``lambda``; flow ``f`` asks for
   ``lambda * f.weight``;
3. the constraint that saturates first freezes its flows at the current
   level; remove them, subtract their rates, repeat with the rest.

With one link, no caps and unit weights this degenerates to
``capacity / n`` each -- N concurrent equal-size transfers each observe
~1/N of the link.

Whenever a flow starts, finishes or is aborted, the affected links
*rebalance*: every active flow's remaining byte count is settled at its
old rate, rates are recomputed, and each flow's completion event is
rescheduled via :meth:`~repro.sim.core.Environment.reschedule` (O(log n)
per flow thanks to the kernel's lazily-deleted calendar entries; no heap
rebuilds).

Incremental re-solve
--------------------

Links only influence each other through *finite* site caps: a finite
egress cap couples the links leaving a site, a finite ingress cap the
links entering one, and those couplings compose transitively.
Water-filling therefore decomposes exactly over the connected
components of that coupling graph -- a changed flow can only move the
rates of flows in its own component.  :meth:`FlowNetwork.rebalance`
exploits this (``solver="incremental"``, the default): given the link
a change originated on, it settles and re-solves just that component
and leaves every other flow's rate, timer, and calendar entry alone.

A link whose source has no finite egress cap and whose destination has
no finite ingress cap is *uncoupled*: it is a component of its own.
``rebalance`` (for one changed link) and ``estimate_rate`` test for that
first, reading each of the two caps once, and then skip the component
search.  A lone flow on an uncoupled link is settled, given the
closed-form rate of the loop's single round and (re)timed directly; a
probe on an idle uncoupled link gets the closed form too.  Every rate,
timer instant, counter and trace record is the general path's.
``solver="global"`` restores the legacy full re-solve per change, and
``solver="verify"`` runs the incremental update *and* a shadow global
solve, asserting the rates agree (used by the equivalence tests; the
tolerance is loose only because the ``_LEVEL_RTOL`` tie threshold is
evaluated against a global minimum level in one mode and a
per-component one in the other).  See ``docs/performance.md``.

Fault semantics: :meth:`FairShareLink.abort` tears down an in-flight
flow (site outage, link flap).  The flow's waiter sees
:class:`FlowAborted`; bytes already transmitted at the abort instant are
settled and accounted as *delivered*, the rest as *aborted*, so
``delivered_bytes + aborted_bytes == bytes`` once every flow is closed
(conservation -- see ``tests/cloud/test_flow_properties.py``).

Units: time is seconds, sizes are bytes, rates/capacities are bytes per
second -- the repo-wide conventions (see ``docs/network-model.md``).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim import Environment, Event, SimulationError
# Defined with the network, whose fair transfers catch it, so that a
# slots-model run never loads the solver; re-exported here unchanged.
from repro.cloud.network import FlowAborted

__all__ = [
    "FairShareLink",
    "Flow",
    "FlowAborted",
    "FlowNetwork",
    "FlowStats",
]

#: Relative tolerance when deciding which constraints saturate at the
#: current water level (guards against last-ulp float noise splitting
#: simultaneous bottlenecks into separate freeze rounds).
_LEVEL_RTOL = 1e-12


class Flow:
    """One transfer's bandwidth share on a directed link.

    Wait on :attr:`done` (an event succeeding with the flow itself) for
    completion; an aborted flow fails it with :class:`FlowAborted`.
    ``rate`` is the current weighted fair share, updated on every
    rebalance of the owning link's :class:`FlowNetwork`.
    """

    __slots__ = (
        "link",
        "size",
        "remaining",
        "rate",
        "max_rate",
        "weight",
        "started_at",
        "last_update",
        "done",
        "_timer",
    )

    def __init__(
        self,
        link: "FairShareLink",
        size: int,
        max_rate: float,
        weight: float = 1.0,
    ):
        self.link = link
        self.size = size
        #: Bytes still to transmit (settled lazily at each rebalance).
        self.remaining = float(size)
        self.rate = 0.0
        self.max_rate = max_rate
        #: Relative share this flow receives at any bottleneck it hits.
        self.weight = weight
        self.started_at = link.env.now
        self.last_update = link.env.now
        #: Fires (with the flow as value) when the last byte is sent.
        self.done: Event = Event(link.env)
        #: Internal completion timer, rescheduled on every rebalance.
        self._timer: Optional[Event] = None

    @property
    def elapsed(self) -> float:
        return self.link.env.now - self.started_at

    @property
    def delivered(self) -> float:
        """Bytes transmitted so far (as of the last settle)."""
        return self.size - self.remaining

    def __repr__(self) -> str:
        return (
            f"<Flow {self.remaining:.0f}/{self.size}B "
            f"@{self.rate:.0f}B/s w={self.weight:g}>"
        )


class FlowStats:
    """Aggregate counters of one fair-share link (contention diagnostics).

    ``bytes`` counts bytes *opened* on the link; ``delivered_bytes`` and
    ``aborted_bytes`` partition them once flows close: an aborted flow
    contributes the bytes it had transmitted by the abort instant to
    ``delivered_bytes`` and the rest to ``aborted_bytes``, so for a
    drained link ``delivered_bytes + aborted_bytes == bytes``.
    """

    __slots__ = (
        "flows",
        "bytes",
        "max_concurrent",
        "rebalances",
        "aborted_flows",
        "aborted_bytes",
        "delivered_bytes",
    )

    def __init__(self) -> None:
        self.flows = 0
        self.bytes = 0
        self.max_concurrent = 0
        self.rebalances = 0
        self.aborted_flows = 0
        self.aborted_bytes = 0.0
        self.delivered_bytes = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "flows": self.flows,
            "bytes": self.bytes,
            "max_concurrent": self.max_concurrent,
            "rebalances": self.rebalances,
            "aborted_flows": self.aborted_flows,
            "aborted_bytes": self.aborted_bytes,
            "delivered_bytes": self.delivered_bytes,
        }


class FairShareLink:
    """A directed link whose active flows share ``capacity`` max-min fairly.

    Created by :meth:`FlowNetwork.link`, which owns the link: every
    rebalance is the network's, which couples all links through per-site
    egress/ingress caps.

    Parameters
    ----------
    network:
        Owning :class:`FlowNetwork`.
    src / dst:
        Endpoint site names (used by the network's site-cap grouping and
        fault teardown).
    capacity:
        Link capacity in bytes/second.
    max_flow_rate:
        Default per-flow rate cap (e.g. NIC or per-connection TCP limit),
        bytes/second; ``inf`` disables the cap.
    """

    def __init__(
        self,
        network: "FlowNetwork",
        src: str,
        dst: str,
        capacity: float,
        max_flow_rate: float = math.inf,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if max_flow_rate <= 0:
            raise ValueError("max_flow_rate must be positive")
        self.env = network.env
        self.capacity = float(capacity)
        self.max_flow_rate = float(max_flow_rate)
        self.network = network
        self.src = src
        self.dst = dst
        #: Active flows in start order (stable -> deterministic filling).
        self.flows: List[Flow] = []
        self.stats = FlowStats()

    # -- public API ---------------------------------------------------------

    @property
    def n_active(self) -> int:
        return len(self.flows)

    def open(
        self,
        size: int,
        max_rate: Optional[float] = None,
        weight: float = 1.0,
    ) -> Flow:
        """Start transmitting ``size`` bytes; returns the :class:`Flow`.

        The caller waits on ``flow.done``.  ``weight`` sets the flow's
        share at any bottleneck (weighted max-min); zero-size flows
        complete at the current instant (the event still goes through
        the calendar so callback ordering stays deterministic).
        """
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        cap = self.max_flow_rate if max_rate is None else float(max_rate)
        if cap <= 0:
            raise ValueError("max_rate must be positive")
        if weight <= 0:
            raise ValueError("weight must be positive")
        flow = Flow(self, size, cap, weight=float(weight))
        self.stats.flows += 1
        self.stats.bytes += size
        if size == 0:
            self.stats.delivered_bytes += 0.0
            flow.done.succeed(flow)
            return flow
        self.flows.append(flow)
        self.stats.max_concurrent = max(
            self.stats.max_concurrent, len(self.flows)
        )
        self.network.rebalance(changed=self)
        return flow

    def abort(self, flow: Flow, reason: str = "") -> None:
        """Tear down an in-flight flow (e.g. site failure mid-transfer).

        Bytes already on the wire are settled first: they count as
        delivered in :attr:`stats`, the unsent remainder as aborted.
        The flow's ``done`` event fails with :class:`FlowAborted`.
        """
        if flow not in self.flows:
            raise SimulationError(f"{flow!r} is not active on this link")
        # Settle at the abort instant so the delivered/aborted split is
        # exact (the latent-bug fix: counters used to ignore partials).
        self._settle(self.env.now)
        self._close_aborted(flow, reason)
        self.network.rebalance(changed=self)

    # -- internals ----------------------------------------------------------

    def _close_aborted(self, flow: Flow, reason: str) -> None:
        """Account, detach and fail one settled flow (no rebalance)."""
        self.stats.aborted_flows += 1
        self.stats.aborted_bytes += flow.remaining
        self.stats.delivered_bytes += flow.delivered
        self._detach(flow)
        if not flow.done.triggered:
            flow.done.fail(FlowAborted(flow, reason))

    def _detach(self, flow: Flow) -> None:
        self.flows.remove(flow)
        timer = flow._timer
        flow._timer = None
        # Withdraw the pending completion timer so it never fires.
        if timer is not None and not timer.processed:
            self.env.cancel(timer)

    def _settle(self, now: float) -> None:
        """Charge every active flow for bytes sent since its last update."""
        for flow in self.flows:
            if flow.rate > 0.0:
                flow.remaining = max(
                    0.0, flow.remaining - flow.rate * (now - flow.last_update)
                )
            flow.last_update = now

    def _reschedule(self, old_rates: List[float]) -> None:
        """(Re)schedule completion timers for flows whose rate changed."""
        for flow, old_rate in zip(self.flows, old_rates):
            self._retime(flow, old_rate)

    def _retime(self, flow: Flow, old_rate: float) -> None:
        """(Re)schedule one flow's completion timer if its rate changed."""
        if flow._timer is not None and flow.rate == old_rate:
            # Unchanged rate -> the scheduled completion instant is
            # still exact (e.g. rate-capped flows riding out churn).
            return
        delay = flow.remaining / flow.rate if flow.rate > 0 else math.inf
        if flow._timer is None:
            timer = self.env.timeout(delay)
            timer.callbacks.append(self._make_completion(flow))
            flow._timer = timer
        else:
            self.env.reschedule(flow._timer, delay)

    def _make_completion(self, flow: Flow):
        def _complete(_event: Event) -> None:
            # The timer only pops at the (re)scheduled completion instant.
            flow.remaining = 0.0
            flow.last_update = self.env.now
            self.flows.remove(flow)
            flow._timer = None
            self.stats.delivered_bytes += flow.size
            # Coupled links may gain headroom even when this one drained,
            # so the network always rebalances.
            self.network.rebalance(changed=self)
            flow.done.succeed(flow)

        return _complete

    def __repr__(self) -> str:
        return (
            f"<FairShareLink {self.src}->{self.dst} "
            f"cap={self.capacity:.0f}B/s active={len(self.flows)}>"
        )


class FlowNetwork:
    """All fair-share links of one deployment, coupled by site caps.

    Owns every :class:`FairShareLink` created through :meth:`link` and
    recomputes *all* flow rates together whenever any flow starts,
    finishes or aborts: a flow is bounded by its link's capacity, its
    source site's egress cap and its destination site's ingress cap
    simultaneously, so links sharing a capped site cannot be balanced in
    isolation.

    ``site_caps`` maps a site name to its ``(egress, ingress)`` caps in
    bytes/second (``inf`` disables a cap); it is consulted live on every
    rebalance, so topology-level cap changes take effect immediately.

    ``solver`` picks the re-solve strategy: ``"incremental"`` (default)
    re-solves only the constraint component reachable from the changed
    link (see the module docstring), ``"global"`` re-solves everything
    on every change (the legacy behavior, kept as a debug mode), and
    ``"verify"`` runs the incremental update plus a shadow global solve
    asserting the two agree.

    The network is also the fault-teardown surface: :meth:`site_outage`
    aborts every in-flight flow touching a site and marks it *down* for
    the outage window (:meth:`down_remaining` lets the transport delay
    new flows until recovery); :meth:`flap_link` kills the flows of one
    link without a down window.
    """

    def __init__(
        self,
        env: Environment,
        site_caps: Optional[
            Callable[[str], Tuple[float, float]]
        ] = None,
        solver: str = "incremental",
    ):
        if solver not in ("incremental", "global", "verify"):
            raise ValueError(
                f"unknown solver {solver!r}; expected 'incremental', "
                "'global' or 'verify'"
            )
        self.env = env
        self.solver = solver
        self._links: Dict[Tuple[str, str], FairShareLink] = {}
        #: ``self._links`` keys in sorted order.  Links are get-or-create
        #: and never removed, so this only changes in :meth:`link`; every
        #: rebalance and rate estimate walks it, so re-sorting per solve
        #: was a measurable slice of the churn-scenario profiles.
        self._sorted_keys: List[Tuple[str, str]] = []
        self._site_caps = site_caps or (lambda site: (math.inf, math.inf))
        self._down_until: Dict[str, float] = {}
        #: Global rebalance count (diagnostics).
        self.rebalances = 0
        # Observability: re-solve scope events under the "flow" category.
        tr = getattr(env, "tracer", None)
        self._tracer = tr
        self._trace_flow = (
            tr is not None and tr.enabled and tr.wants("flow")
        )

    # -- construction -------------------------------------------------------

    def link(
        self,
        src: str,
        dst: str,
        capacity: float,
        max_flow_rate: float = math.inf,
    ) -> FairShareLink:
        """Get-or-create the directed link ``src -> dst``."""
        key = (src, dst)
        flink = self._links.get(key)
        if flink is None:
            flink = FairShareLink(
                self, src, dst, capacity, max_flow_rate=max_flow_rate
            )
            self._links[key] = flink
            self._sorted_keys = sorted(self._links)
        return flink

    @property
    def links(self) -> Dict[Tuple[str, str], FairShareLink]:
        return dict(self._links)

    def active_flows(self) -> List[Flow]:
        """Every in-flight flow, in deterministic (link, start) order."""
        links = self._links
        return [
            f for key in self._sorted_keys for f in links[key].flows
        ]

    # -- site caps & outage state -------------------------------------------

    def egress_cap(self, site: str) -> float:
        return self._site_caps(site)[0]

    def ingress_cap(self, site: str) -> float:
        return self._site_caps(site)[1]

    def down_remaining(self, site: str) -> float:
        """Seconds until ``site`` recovers from an outage (0 if up)."""
        return max(0.0, self._down_until.get(site, 0.0) - self.env.now)

    # -- fault teardown -----------------------------------------------------

    def site_outage(self, site: str, duration: float = 0.0) -> int:
        """Abort every flow into or out of ``site``; mark it down.

        Returns the number of flows torn down.  ``duration`` extends the
        site's down window (new flows touching the site should wait it
        out -- the transport consults :meth:`down_remaining`).
        """
        if duration > 0:
            self._down_until[site] = max(
                self._down_until.get(site, 0.0), self.env.now + duration
            )
        return self._abort_where(
            lambda link: link.src == site or link.dst == site,
            reason=f"site outage at {site}",
        )

    def region_outage(
        self, sites: Iterable[str], duration: float = 0.0
    ) -> int:
        """Correlated outage: take several sites down *atomically*.

        Marks every site's down window first, then tears down all flows
        touching any of them in one batch -- a single settle/close/
        re-solve pass (:meth:`_abort_where`), exactly as if the whole
        region went dark in one instant.  Calling :meth:`site_outage`
        per site would instead re-solve once per site, letting the
        survivors of teardown *k* briefly speed up before teardown
        *k + 1* -- rates no real correlated failure ever exhibits.
        """
        down = sorted(set(sites))
        if not down:
            return 0
        if duration > 0:
            until = self.env.now + duration
            for site in down:
                self._down_until[site] = max(
                    self._down_until.get(site, 0.0), until
                )
        member = frozenset(down)
        return self._abort_where(
            lambda link: link.src in member or link.dst in member,
            reason=f"region outage at {{{', '.join(down)}}}",
        )

    def flap_link(
        self, a: str, b: str, bidirectional: bool = True
    ) -> int:
        """Abort the in-flight flows of link ``a -> b`` (and ``b -> a``).

        Models a transient link flap: flows die, their waiters retry;
        the link itself is immediately usable again.
        """
        keys = {(a, b), (b, a)} if bidirectional else {(a, b)}
        return self._abort_where(
            lambda link: (link.src, link.dst) in keys,
            reason=f"link flap {a}<->{b}",
        )

    def _abort_where(self, pred, reason: str) -> int:
        links = self._links
        doomed = [
            (links[key], flow)
            for key in self._sorted_keys
            if pred(links[key])
            for flow in list(links[key].flows)
        ]
        if not doomed:
            return 0
        # Settle every affected link first (exact delivered/aborted
        # split), close all doomed flows, then rebalance once -- one
        # global re-solve for the whole teardown instead of one per flow.
        now = self.env.now
        for link in {link for link, _ in doomed}:
            link._settle(now)
        for link, flow in doomed:
            link._close_aborted(flow, reason)
        self.rebalance(changed=[link for link, _ in doomed])
        return len(doomed)

    # -- rate computation ---------------------------------------------------

    def _active_links(self) -> List[FairShareLink]:
        links = self._links
        return [
            links[key] for key in self._sorted_keys if links[key].flows
        ]

    def _component(
        self, seed_keys: Iterable[Tuple[str, str]]
    ) -> List[FairShareLink]:
        """Active links in the constraint component of ``seed_keys``.

        Links couple only through *finite* site caps: a finite egress
        cap joins all links sharing a source site, a finite ingress cap
        all links sharing a destination, transitively.  Expands those
        couplings to a fixpoint starting from the seed link keys (the
        seeds' sites count even if the seed link itself has drained --
        its departure is exactly what frees headroom for the others).
        Returns the component in sorted-key order, so a solve over it
        builds constraints in the same order a global solve would.
        """
        caps = self._site_caps
        seed_keys = set(seed_keys)
        egress: set = set()
        ingress: set = set()
        for src, dst in seed_keys:
            if math.isfinite(caps(src)[0]):
                egress.add(src)
            if math.isfinite(caps(dst)[1]):
                ingress.add(dst)
        active = self._active_links()
        in_comp: set = set()
        grew = True
        while grew:
            grew = False
            for link in active:
                if link in in_comp:
                    continue
                if (
                    (link.src, link.dst) in seed_keys
                    or link.src in egress
                    or link.dst in ingress
                ):
                    in_comp.add(link)
                    grew = True
                    if link.src not in egress and math.isfinite(
                        caps(link.src)[0]
                    ):
                        egress.add(link.src)
                    if link.dst not in ingress and math.isfinite(
                        caps(link.dst)[1]
                    ):
                        ingress.add(link.dst)
        return [link for link in active if link in in_comp]

    def _uncoupled_caps(
        self, src: str, dst: str
    ) -> Optional[Tuple[float, float]]:
        """The ``(egress, ingress)`` site caps of link ``src -> dst`` if
        the link is its own constraint component, else ``None``.

        A link couples to others only through a finite egress cap at its
        source or a finite ingress cap at its destination (see
        :meth:`_component`).  With neither, the component of the link is
        the link alone, and no search is needed.  Each cap is read live,
        once; the caller passes them on to :func:`_lone_rate`.
        """
        egress = self._site_caps(src)[0]
        ingress = self._site_caps(dst)[1]
        if math.isfinite(egress) or math.isfinite(ingress):
            return None
        return egress, ingress

    def rebalance(self, changed=None) -> None:
        """Settle affected links, re-solve their rates, reschedule.

        ``changed`` names where the perturbation happened: a
        :class:`FairShareLink`, an iterable of them, or ``None`` for "no
        idea -- re-solve everything".  Under the incremental solver only
        the constraint component of the changed links is touched; the
        global solver ignores the hint.  A single changed link that is
        uncoupled (:meth:`_uncoupled_caps`) is its own component: with
        one flow it takes :meth:`_rebalance_lone`.
        """
        now = self.env.now
        self.rebalances += 1
        if changed is None or self.solver == "global":
            scope = "global"
            links = self._active_links()
        elif isinstance(changed, FairShareLink):
            scope = "component"
            caps = self._uncoupled_caps(changed.src, changed.dst)
            if caps is None:
                links = self._component([(changed.src, changed.dst)])
            elif len(changed.flows) == 1:
                self._rebalance_lone(changed, caps)
                return
            else:
                links = [changed] if changed.flows else []
        else:
            scope = "component"
            links = self._component(
                {(link.src, link.dst) for link in changed}
            )
        if self._trace_flow:
            self._tracer.emit(
                "flow", "rebalance",
                scope=scope,
                links=len(links),
                flows=sum(len(link.flows) for link in links),
            )
        if not links:
            # Nothing active in the component (typically a lone flow
            # just drained): no rate to settle, re-solve or reschedule.
            if self.solver == "verify":
                self._verify_against_global()
            return
        for link in links:
            link.stats.rebalances += 1
            link._settle(now)
        old = {
            link: [flow.rate for flow in link.flows] for link in links
        }
        rates = self._solve(links)
        for link in links:
            for flow in link.flows:
                flow.rate = rates[id(flow)]
            link._reschedule(old[link])
        if self.solver == "verify":
            self._verify_against_global()

    def _rebalance_lone(
        self, link: FairShareLink, caps: Tuple[float, float]
    ) -> None:
        """:meth:`rebalance` of an uncoupled link carrying one flow.

        Records, settles, solves and reschedules exactly as the general
        path would for this one-link component, without its rate maps
        and lists: the rate is :func:`_lone_rate` of the ``caps`` just
        read, and the timer step is :meth:`FairShareLink._retime`.
        """
        flow = link.flows[0]
        if self._trace_flow:
            self._tracer.emit(
                "flow", "rebalance", scope="component", links=1, flows=1
            )
        link.stats.rebalances += 1
        link._settle(self.env.now)
        old_rate = flow.rate
        flow.rate = _lone_rate(
            link.capacity, flow.weight, flow.max_rate, *caps
        )
        link._retime(flow, old_rate)
        if self.solver == "verify":
            self._verify_against_global()

    def _verify_against_global(self) -> None:
        """Assert the live rates match a from-scratch global solve.

        The tolerance is loose (1e-9 relative) because the
        ``_LEVEL_RTOL`` tie threshold compares against a *global*
        minimum water level in global mode but a per-component one in
        incremental mode, so rates near a cross-component tie may
        differ by O(``_LEVEL_RTOL``).
        """
        links = self._active_links()
        rates = self._solve(links)
        for link in links:
            for flow in link.flows:
                want = rates[id(flow)]
                if not math.isclose(
                    flow.rate, want, rel_tol=1e-9, abs_tol=1e-6
                ):
                    raise SimulationError(
                        f"incremental solver diverged on {flow!r} "
                        f"({link.src}->{link.dst}): incremental rate "
                        f"{flow.rate!r} vs global {want!r}"
                    )

    def estimate_rate(
        self,
        src: str,
        dst: str,
        capacity: float,
        max_flow_rate: float = math.inf,
        weight: float = 1.0,
        extra_flows: int = 0,
    ) -> float:
        """Rate a prospective ``src -> dst`` flow would get right now.

        Runs the real water-filling with a probe flow added, so site
        egress/ingress caps and the load of *other* links sharing those
        caps are all reflected.  Pure: no RNG, no state changes.  Under
        the incremental solver the probe only interacts with its own
        constraint component, so only that component is solved; a single
        probe on an idle uncoupled link gets :func:`_lone_rate` directly.
        """
        caps = None
        if self.solver == "global":
            links = self._active_links()
        else:
            caps = self._uncoupled_caps(src, dst)
            if caps is None:
                links = self._component([(src, dst)])
            else:
                link = self._links.get((src, dst))
                links = [link] if link is not None and link.flows else []
        probe = _Probe(src, dst, max_flow_rate, weight)
        extra = [probe] * max(1, extra_flows)
        extra_capacity = ((src, dst), capacity)
        if caps is not None and not links and len(extra) == 1:
            rate = _lone_rate(capacity, weight, max_flow_rate, *caps)
        else:
            rate = self._solve(links, extra, extra_capacity)[id(probe)]
        if self.solver == "verify":
            want = self._solve(
                self._active_links(), extra, extra_capacity
            )[id(probe)]
            if not math.isclose(rate, want, rel_tol=1e-9, abs_tol=1e-6):
                raise SimulationError(
                    f"incremental estimate_rate diverged for {src}->{dst}: "
                    f"{rate!r} vs global {want!r}"
                )
        return rate

    def _solve(
        self,
        links: List[FairShareLink],
        extra: Optional[List["_Probe"]] = None,
        extra_capacity: Optional[Tuple[Tuple[str, str], float]] = None,
    ) -> Dict[int, float]:
        """Rates of ``links``' flows plus the ``extra`` probes.

        Returns ``id(flow) -> rate``.  A solve over one record (a lone
        flow, or one probe and no active link) takes the closed form of
        :func:`_lone_rate`; anything else runs :meth:`_water_fill`.
        """
        caps = self._site_caps
        if extra:
            if not links and len(extra) == 1:
                probe = extra[0]
                return {
                    id(probe): _lone_rate(
                        extra_capacity[1], probe.weight, probe.max_rate,
                        caps(probe.src)[0], caps(probe.dst)[1],
                    )
                }
        elif len(links) == 1 and len(links[0].flows) == 1:
            link = links[0]
            flow = link.flows[0]
            return {
                id(flow): _lone_rate(
                    link.capacity, flow.weight, flow.max_rate,
                    caps(link.src)[0], caps(link.dst)[1],
                )
            }
        return self._water_fill(links, extra, extra_capacity)

    def _water_fill(
        self,
        links: List[FairShareLink],
        extra: Optional[List["_Probe"]] = None,
        extra_capacity: Optional[Tuple[Tuple[str, str], float]] = None,
    ) -> Dict[int, float]:
        """Water-filling over constraint sets; returns ``id(flow) -> rate``.

        Constraints are built in a stable order (links by key, then
        egress sites, then ingress sites, each sorted by name) and every
        iteration freezes the flows of all constraints saturating at the
        minimum water level, so the outcome is fully deterministic.

        Membership maps are built in one pass and each constraint's
        member list is pruned as flows freeze; member lists stay in
        ascending record order throughout, so every capacity/weight
        summation runs in the same order (and yields the same floats) as
        the original scan-per-round formulation.
        """
        # Parallel per-flow arrays: owning object, weight, rate cap,
        # cap/weight saturation level.
        objs: List = []
        weights: List[float] = []
        caps: List[float] = []
        ratios: List[float] = []
        link_caps: Dict[Tuple[str, str], float] = {}
        link_members: Dict[Tuple[str, str], List[int]] = {}
        src_members: Dict[str, List[int]] = {}
        dst_members: Dict[str, List[int]] = {}

        def _add(obj, key, src, dst, weight, max_rate) -> None:
            i = len(objs)
            objs.append(obj)
            weights.append(weight)
            caps.append(max_rate)
            ratios.append(max_rate / weight)
            link_members.setdefault(key, []).append(i)
            src_members.setdefault(src, []).append(i)
            dst_members.setdefault(dst, []).append(i)

        for link in links:
            key = (link.src, link.dst)
            link_caps[key] = link.capacity
            for flow in link.flows:
                _add(flow, key, link.src, link.dst, flow.weight,
                     flow.max_rate)
        if extra:
            key, cap = extra_capacity
            # A live link's configured capacity wins over the probe's.
            link_caps.setdefault(key, cap)
            for probe in extra:
                _add(probe, key, probe.src, probe.dst, probe.weight,
                     probe.max_rate)

        # Constraint sets: [remaining capacity, live member indices].
        constraints: List[List] = []
        for key in sorted(link_caps):
            members = link_members.get(key)
            if members:
                constraints.append([link_caps[key], members])
        site_caps = self._site_caps
        for site in sorted(src_members):
            cap = site_caps(site)[0]
            if math.isfinite(cap):
                constraints.append([cap, src_members[site]])
        for site in sorted(dst_members):
            cap = site_caps(site)[1]
            if math.isfinite(cap):
                constraints.append([cap, dst_members[site]])

        n = len(objs)
        by_idx = [0.0] * n
        alive = list(range(n))
        while alive:
            # Water level at which each constraint (or per-flow cap)
            # saturates, counting only still-undetermined flows.
            level = math.inf
            sat = []  # cached (weight sum, saturation level) per constraint
            for cap, members in constraints:
                w = 0.0
                for i in members:
                    w += weights[i]
                if w > 0:
                    lvl = max(0.0, cap) / w
                    if lvl < level:
                        level = lvl
                    sat.append(lvl)
                else:
                    sat.append(math.inf)
            for i in alive:
                if ratios[i] < level:
                    level = ratios[i]
            if not math.isfinite(level):
                # Nothing bounds the level (infinite capacity, no finite
                # site cap, no rate cap): such records get rate 0.0.
                level = 0.0

            threshold = level * (1.0 + _LEVEL_RTOL)
            frozen = set()
            for lvl, (cap, members) in zip(sat, constraints):
                if lvl <= threshold:
                    frozen.update(members)
            for i in alive:
                if ratios[i] <= threshold:
                    frozen.add(i)
            if not frozen:  # pragma: no cover - the argmin constraint
                # always has at least one undetermined member.
                frozen = set(alive)

            for i in frozen:
                by_idx[i] = min(caps[i], level * weights[i])
            alive = [i for i in alive if i not in frozen]
            for constraint in constraints:
                members = constraint[1]
                live = [i for i in members if i not in frozen]
                if len(live) != len(members):
                    used = 0.0
                    for i in members:
                        if i in frozen:
                            used += by_idx[i]
                    constraint[0] = max(0.0, constraint[0] - used)
                    constraint[1] = live
        return {id(objs[i]): by_idx[i] for i in range(n)}

    def __repr__(self) -> str:
        active = sum(len(l.flows) for l in self._links.values())
        return (
            f"<FlowNetwork links={len(self._links)} "
            f"active_flows={active}>"
        )


def _lone_rate(
    capacity: float,
    weight: float,
    max_rate: float,
    egress: float,
    ingress: float,
) -> float:
    """:meth:`FlowNetwork._water_fill`'s single round for a one-record
    solve.

    The lone record freezes in the first round, at the lowest saturation
    level among its link ``capacity``, its source's ``egress`` cap, its
    destination's ``ingress`` cap and its own ``max_rate``.  The level
    comes from the loop's float operations in the loop's order, so the
    rate is bit-identical; an infinite site cap, which the loop leaves
    out, gives an infinite level that never wins.  The caller reads the
    site caps live and passes them in.
    """
    level = math.inf
    for cap in (capacity, egress, ingress):
        lvl = max(0.0, cap) / weight
        if lvl < level:
            level = lvl
    ratio = max_rate / weight
    if ratio < level:
        level = ratio
    if not math.isfinite(level):
        level = 0.0
    return min(max_rate, level * weight)


class _Probe:
    """Phantom flow used by :meth:`FlowNetwork.estimate_rate`."""

    __slots__ = ("src", "dst", "max_rate", "weight")

    def __init__(self, src: str, dst: str, max_rate: float, weight: float):
        self.src = src
        self.dst = dst
        self.max_rate = max_rate
        self.weight = weight
