"""WAN/LAN network model: latency, bandwidth and request/response RPC.

Every message between two sites pays:

``delay = base_latency + jitter + transmission``

where ``base_latency`` comes from the topology's link spec and jitter is
a truncated-normal perturbation drawn from a dedicated RNG stream (so
network noise never disturbs workload generation).  The stream is a
:class:`~repro.util.rng.BlockStream`: one draw per jittered leg, the
value numpy's scalar ``normal(0.0, jitter)`` would give, taken from a
block drawn ahead.  The *transmission* term depends on the configured
bandwidth model:

- ``"slots"`` (default, the original model): every in-flight transfer
  gets the full link bandwidth (``size / bandwidth``); inter-DC links
  bound *concurrency* instead -- a limited number of in-flight transfers
  share the link.
- ``"fair"``: flow-level max-min fair sharing (see
  :mod:`repro.cloud.flow`): each directed inter-site link has finite
  capacity and all active flows share it, so N concurrent transfers each
  observe ~1/N of the link.  This is the model to use when WAN
  contention matters (Fig. 7 saturation, Fig. 8 scalability).

See ``docs/network-model.md`` for when to prefer each model.  Local
(intra-DC) traffic is never capped in either model: the paper's
bottlenecks are WAN links and registry service capacity, not top-of-rack
switches.

Two interaction styles are offered:

- :meth:`Network.transfer` -- fire a one-way message / bulk transfer and
  wait for its arrival (used by the storage layer and lazy metadata
  propagation);
- :meth:`Network.rpc` -- request/response round trip with a server-side
  service callback (used by metadata registry clients).

Accounting notes: per-message latency statistics are *end-to-end*
(send to arrival, including any queueing for a link slot), and the
planning estimators (:meth:`Network.round_trip`,
:meth:`Network.estimated_transfer_time`) are jitter-free and never touch
the RNG stream, so using them for planning cannot perturb subsequent
network noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    Iterable,
    Optional,
    Tuple,
)

from repro.sim import Environment, Resource, SimulationError
from repro.cloud.topology import CloudTopology
from repro.obs import NULL_TRACER
from repro.util.rng import RngStreams

if TYPE_CHECKING:  # the solver is imported where the fair model builds it
    from repro.cloud.flow import FairShareLink, Flow, FlowNetwork

__all__ = [
    "BANDWIDTH_MODELS",
    "FlowAborted",
    "Network",
    "NetworkMessage",
    "NetworkStats",
    "RpcError",
]

#: Recognized values of the ``bandwidth_model`` switch.
BANDWIDTH_MODELS = ("slots", "fair")

#: Field names of the transfer trace records, in the order
#: :meth:`Network.transfer` passes the values to ``tracer.record``.
_OPEN = ("src", "dst", "size")
_DONE = ("src", "dst", "size", "latency")


class RpcError(Exception):
    """Raised to RPC callers when the remote service fails the request."""


class FlowAborted(SimulationError):
    """An in-flight flow was torn down (site outage, link flap).

    Raised by :mod:`repro.cloud.flow` (which re-exports it) and caught
    by the fair transfer path here and in the storage layer; it lives
    here so those catchers do not load the solver.
    """

    def __init__(self, flow: "Flow", reason: str = ""):
        super().__init__(
            f"{flow!r} aborted" + (f": {reason}" if reason else "")
        )
        self.flow = flow
        self.reason = reason


@dataclass(slots=True)
class NetworkMessage:
    """A message in flight between two sites (metadata op, file chunk...)."""

    src: str
    dst: str
    size: int  # bytes
    payload: Any = None
    sent_at: float = 0.0


@dataclass
class NetworkStats:
    """Aggregate transfer statistics, broken down by distance class.

    ``total_latency`` is end-to-end: send to arrival, *including* time
    spent queueing for a link slot under the slot model (or transmitting
    at a reduced fair share under the flow model).

    Fault accounting (fair model only): ``aborted_transfers`` counts
    transfers torn down mid-flight (site outage, link flap) with
    ``aborted_bytes`` the bytes they had *not* yet delivered;
    ``retried_transfers``/``retried_bytes`` count the re-issues the
    storage layer made to recover (see
    :meth:`TransferService.fetch <repro.storage.transfer.TransferService.fetch>`).
    """

    messages: int = 0
    bytes: int = 0
    local_messages: int = 0
    same_region_messages: int = 0
    geo_distant_messages: int = 0
    total_latency: float = 0.0
    aborted_transfers: int = 0
    aborted_bytes: float = 0.0
    retried_transfers: int = 0
    retried_bytes: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "local_messages": self.local_messages,
            "same_region_messages": self.same_region_messages,
            "geo_distant_messages": self.geo_distant_messages,
            "total_latency": self.total_latency,
            "aborted_transfers": self.aborted_transfers,
            "aborted_bytes": self.aborted_bytes,
            "retried_transfers": self.retried_transfers,
            "retried_bytes": self.retried_bytes,
        }


class Network:
    """Latency/bandwidth network over a :class:`CloudTopology`.

    Parameters
    ----------
    env:
        Simulation environment.
    topology:
        Site layout and link specs.
    rng:
        Stream registry; the network draws its jitter from the
        ``"network"`` block stream (:meth:`RngStreams.blocks`), so that
        name cannot also be drawn raw.
    link_concurrency:
        Slot model only: max concurrent transfers per directed inter-DC
        link pair.
    bandwidth_model:
        ``"slots"`` (original concurrency-cap model) or ``"fair"``
        (flow-level hierarchical max-min fair sharing: link capacity
        plus per-site egress/ingress caps, weighted shares).
    rpc_weight:
        Fair model only: flow weight of RPC request/response legs
        (metadata hot path) relative to the default bulk-transfer weight
        of 1.0 -- weighted max-min gives a weight-w flow w times the
        share of a weight-1 flow at a shared bottleneck.
    flow_solver:
        Fair model only: the :class:`FlowNetwork` re-solve strategy --
        ``"incremental"`` (default), ``"global"`` or ``"verify"`` (see
        :mod:`repro.cloud.flow`).
    """

    #: Per-message fixed processing overhead (serialization, NIC), seconds.
    PER_MESSAGE_OVERHEAD = 50e-6

    def __init__(
        self,
        env: Environment,
        topology: CloudTopology,
        rng: Optional[RngStreams] = None,
        link_concurrency: int = 64,
        bandwidth_model: str = "slots",
        rpc_weight: float = 1.0,
        flow_solver: str = "incremental",
    ):
        if bandwidth_model not in BANDWIDTH_MODELS:
            raise ValueError(
                f"unknown bandwidth_model {bandwidth_model!r}; "
                f"expected one of {BANDWIDTH_MODELS}"
            )
        if not rpc_weight > 0:  # NaN fails too
            raise ValueError("rpc_weight must be positive")
        self.env = env
        self.topology = topology
        self.rng = (rng or RngStreams(seed=0)).blocks("network")
        self.link_concurrency = link_concurrency
        self.bandwidth_model = bandwidth_model
        #: Hot-path twin of ``bandwidth_model == "fair"`` (transfer runs
        #: hundreds of thousands of times per scenario).
        self._fair = bandwidth_model == "fair"
        self.rpc_weight = float(rpc_weight)
        self._link_slots: Dict[Tuple[str, str], Resource] = {}
        #: Route cache: (src, dst) -> (LinkSpec, distance-class name).
        #: Safe because topology mutators (latency spikes, cap edits)
        #: update the cached LinkSpec objects in place and site regions
        #: never change after construction.
        self._routes: Dict[Tuple[str, str], Tuple[Any, str]] = {}
        #: Fair model: all links and their site-cap coupling, lazily
        #: populated per directed pair (None under the slot model).
        self.flow_net: Optional[FlowNetwork] = None
        if self._fair:
            from repro.cloud.flow import FlowNetwork

            self.flow_net = FlowNetwork(
                env, site_caps=topology.site_caps, solver=flow_solver
            )
        self.stats = NetworkStats()
        # Observability: category flags cached as plain booleans (the
        # tracer must already be attached to env -- see
        # Environment.attach_tracer).  WAN transfer/RPC events live
        # under "network"; interval spans under "span".
        tr = getattr(env, "tracer", None) or NULL_TRACER
        self._tracer = tr
        self._trace_net = tr.enabled and tr.wants("network")
        self._trace_span = tr.enabled and tr.wants("span")
        self._h_transfer = (
            tr.metrics.histogram("network.transfer_latency_s")
            if self._trace_net
            else None
        )
        self._h_rpc = (
            tr.metrics.histogram("network.rpc_latency_s")
            if self._trace_net
            else None
        )

    # -- delay model --------------------------------------------------------

    def _route(self, src: str, dst: str) -> Tuple[Any, str]:
        """Cached ``(LinkSpec, distance-class name)`` for a site pair."""
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            route = (
                self.topology.link(src, dst),
                self.topology.distance(src, dst).name,
            )
            self._routes[key] = route
        return route

    def expected_one_way_delay(
        self, src: str, dst: str, size: int = 0
    ) -> float:
        """Jitter-free expected one-way delay at an *unloaded* link.

        A pure estimator: consumes no randomness and ignores current
        contention (see :meth:`estimated_transfer_time` for a load-aware
        variant).
        """
        link = self._route(src, dst)[0]
        delay = link.latency + self.PER_MESSAGE_OVERHEAD
        if size > 0:
            delay += size / link.bandwidth
        return delay

    def one_way_delay(self, src: str, dst: str, size: int = 0) -> float:
        """Sample the one-way delay for a message of ``size`` bytes.

        Draws from the network RNG stream when the link has jitter; use
        the ``expected_*`` estimators for planning.
        """
        route = self._routes.get((src, dst))
        link = route[0] if route is not None else self._route(src, dst)[0]
        delay = link.latency + self.PER_MESSAGE_OVERHEAD
        if size > 0:
            delay += size / link.bandwidth
        if link.jitter > 0:
            delay += max(0.0, self.rng.normal(0.0, link.jitter))
        return delay

    def _jitter(self, link) -> float:
        if link.jitter <= 0:
            return 0.0
        # Truncated normal: latency noise can only add, never make the
        # speed of light faster.
        return max(0.0, self.rng.normal(0.0, link.jitter))

    def round_trip(self, src: str, dst: str) -> float:
        """Expected request/response latency for an empty payload.

        Jitter-free planning estimator: calling it does **not** consume
        the network RNG stream, so planners can probe it freely without
        perturbing subsequent network noise (run-to-run comparability).
        """
        return self.expected_one_way_delay(src, dst) + self.expected_one_way_delay(
            dst, src
        )

    def estimated_transfer_time(
        self, src: str, dst: str, size: int = 0, weight: float = 1.0
    ) -> float:
        """Expected delivery time of ``size`` bytes *given current load*.

        Under the fair model the transmission term uses the fair share a
        new flow of ``weight`` would receive right now; under the slot
        model it is the plain full-bandwidth figure.  Jitter-free,
        RNG-untouched.
        """
        if size <= 0 or src == dst or not self._fair:
            return self.expected_one_way_delay(src, dst, size)
        link = self._route(src, dst)[0]
        rate = self.flow_net.estimate_rate(
            src, dst,
            capacity=link.bandwidth,
            max_flow_rate=link.max_flow_rate,
            weight=weight,
        )
        # A site in an outage window delays new flows until it recovers.
        down = self._down(src, dst) if self.flow_net.down_until else 0.0
        return down + link.latency + self.PER_MESSAGE_OVERHEAD + size / rate

    # -- link state ---------------------------------------------------------

    def _slots(self, src: str, dst: str) -> Optional[Resource]:
        if src == dst:
            return None
        key = (src, dst)
        if key not in self._link_slots:
            self._link_slots[key] = Resource(
                self.env, capacity=self.link_concurrency
            )
        return self._link_slots[key]

    def _flow_link(self, src: str, dst: str) -> FairShareLink:
        spec = self._route(src, dst)[0]
        return self.flow_net.link(
            src,
            dst,
            capacity=spec.bandwidth,
            max_flow_rate=spec.max_flow_rate,
        )

    # -- fault surface (fair model) ----------------------------------------

    def abort_site_flows(self, site: str, duration: float = 0.0) -> int:
        """Tear down in-flight fair flows through ``site``; mark it down.

        Fault injectors call this when a whole site fails.  Waiters of
        the aborted flows see :class:`~repro.cloud.flow.FlowAborted`;
        new transfers touching the site wait out the remaining
        ``duration`` before transmitting.  No-op (returns 0) under the
        slot model, whose outages are modeled at the registry instead.
        """
        self.topology.get(site)  # validate the site name
        if self.flow_net is None:
            return 0
        return self.flow_net.site_outage(site, duration)

    def abort_region_flows(
        self, sites: Iterable[str], duration: float = 0.0
    ) -> int:
        """Tear down fair flows through *all* ``sites`` in one batch.

        The correlated-failure form of :meth:`abort_site_flows`: every
        site is marked down for ``duration`` and all affected flows die
        in a single settle/re-solve pass, so surviving flows never see
        intermediate rates between the per-site teardowns.  No-op under
        the slot model.
        """
        names = sorted(set(sites))
        for site in names:
            self.topology.get(site)  # validate before mutating anything
        if self.flow_net is None or not names:
            return 0
        return self.flow_net.region_outage(names, duration)

    def flap_link(self, a: str, b: str, bidirectional: bool = True) -> int:
        """Abort in-flight fair flows on the ``a <-> b`` link(s)."""
        self.topology.get(a)
        self.topology.get(b)
        if self.flow_net is None:
            return 0
        return self.flow_net.flap_link(a, b, bidirectional=bidirectional)

    def count_retry(self, size: int) -> None:
        """Account one transfer re-issued after an abort (storage layer)."""
        self.stats.retried_transfers += 1
        self.stats.retried_bytes += size
        if self._trace_net:
            self._tracer.emit("network", "transfer_retry", size=size)

    # -- primitives -----------------------------------------------------------

    def transfer(
        self,
        src: str,
        dst: str,
        size: int = 0,
        payload: Any = None,
        weight: float = 1.0,
        retry_on_abort: bool = False,
        span_parent=None,
    ) -> Generator:
        """Process: move ``size`` bytes from ``src`` to ``dst``.

        ``span_parent`` optionally links this transfer's trace span
        under a caller-owned span (RPC legs, staging phases); ignored
        when tracing is off.

        Yields until the message has fully arrived; returns the
        :class:`NetworkMessage` that was delivered.  Latency statistics
        account the full send-to-arrival interval.

        Fair model specifics: ``weight`` sets the flow's share at any
        shared bottleneck (weighted max-min); a transfer touching a site
        in an outage window first waits for the site to recover; and a
        mid-flight teardown (site outage, link flap) is accounted in
        ``aborted_transfers``/``aborted_bytes`` and then either
        retransmitted here (``retry_on_abort=True`` -- the
        connection-retrying client behaviour RPC legs rely on, since the
        source of an RPC cannot be re-chosen) or re-raised as
        :class:`~repro.cloud.flow.FlowAborted` to callers that can
        re-source, like the storage layer.
        """
        msg = NetworkMessage(src, dst, size, payload, sent_at=self.env.now)
        # Inter-site traffic only: local messages dominate event volume
        # and carry no WAN signal.
        trace = self._trace_net and src != dst
        if trace:
            self._tracer.record(
                "network", "transfer_open", _OPEN, src, dst, size
            )
        sp = (
            self._tracer.span(
                "transfer", parent=span_parent, src=src, dst=dst, size=size
            )
            if self._trace_span and src != dst
            else None
        )
        if self._fair and src != dst and size > 0:
            while True:
                # A down endpoint queues the transfer until recovery
                # (the behaviour of a connection-retrying client).
                if self.flow_net.down_until:
                    down = self._down(src, dst)
                    if down > 0:
                        yield down
                        continue
                # Transmission at the link's max-min fair share, then
                # propagation (+ jitter): the last byte arrives one link
                # latency after it was transmitted.
                flow = self._flow_link(src, dst).open(size, weight=weight)
                try:
                    yield flow.done
                    break
                except FlowAborted:
                    self._flow_aborted(src, dst, flow, trace)
                    if not retry_on_abort:
                        if sp is not None:
                            sp.finish(aborted=True)
                        raise
                    self.count_retry(size)
            yield self._arrival(src, dst)
        else:
            leg = self._start_leg(src, dst, size)
            if leg is None:
                yield from self._queued_leg(src, dst, size)
            else:
                delay, held = leg
                try:
                    yield delay
                finally:
                    if held is not None:
                        held.cancel()
        self._account(src, dst, size, msg.sent_at)
        if trace:
            latency = self.env.now - msg.sent_at
            self._tracer.record(
                "network", "transfer_done", _DONE, src, dst, size, latency
            )
            self._h_transfer.add(latency)
        if sp is not None:
            sp.finish()
        return msg

    def rpc(
        self,
        src: str,
        dst: str,
        service: "Generator | Any",
        request_size: int = 256,
        response_size: int = 256,
    ) -> Generator:
        """Process: request/response round trip with remote service work.

        ``service`` is either a generator (simulated server-side work,
        e.g. queuing at the registry and paying service time) whose return
        value becomes the RPC result, or a plain callable evaluated at the
        server.  Local calls (``src == dst``) still pay the (tiny) local
        link latency both ways -- clients and registries are distinct VMs
        even within one site.  Under the fair model both legs ride flows
        at the network's ``rpc_weight`` (metadata hot-path priority) and
        retransmit on fault teardown -- an RPC's endpoints are fixed, so
        unlike a storage fetch it cannot re-source around a failure.

        Untraced RPCs run both legs in the returned generator's own
        frame (see :meth:`_one_frame_rpc`); traced ones run each leg
        through :meth:`transfer`.  Both give the same timings, RNG draws,
        flows and :class:`NetworkStats`.
        """
        if self._trace_net or self._trace_span:
            return self._transfer_rpc(
                src, dst, service, request_size, response_size
            )
        return self._one_frame_rpc(
            src, dst, service, request_size, response_size
        )

    def _one_frame_rpc(
        self, src, dst, service, request_size, response_size
    ) -> Generator:
        """:meth:`rpc` with both legs in this frame (untraced).

        Each leg is :meth:`transfer`'s body inlined.  A fair-model WAN
        leg waits out any down window (:meth:`_down`), rides a flow at
        ``rpc_weight`` and retransmits on teardown (:meth:`_flow_aborted`,
        :meth:`count_retry`), then propagates (:meth:`_arrival`).  Any
        other leg starts with :meth:`_start_leg` and sleeps out its delay,
        or queues for the link via :meth:`_queued_leg` when contended.
        Each leg ends in :meth:`_account`.
        """
        env = self.env
        fair = self._fair
        sent = env.now
        if fair and src != dst and request_size > 0:
            while True:
                if self.flow_net.down_until:
                    down = self._down(src, dst)
                    if down > 0:
                        yield down
                        continue
                flow = self._flow_link(src, dst).open(
                    request_size, weight=self.rpc_weight
                )
                try:
                    yield flow.done
                    break
                except FlowAborted:
                    self._flow_aborted(src, dst, flow, False)
                    self.count_retry(request_size)
            yield self._arrival(src, dst)
        else:
            leg = self._start_leg(src, dst, request_size)
            if leg is None:
                yield from self._queued_leg(src, dst, request_size)
            else:
                delay, held = leg
                try:
                    yield delay
                finally:
                    if held is not None:
                        held.cancel()
        self._account(src, dst, request_size, sent)
        if hasattr(service, "send"):
            result = yield from service
        elif callable(service):
            result = service()
        else:
            result = service
        sent = env.now
        if fair and src != dst and response_size > 0:
            while True:
                if self.flow_net.down_until:
                    down = self._down(dst, src)
                    if down > 0:
                        yield down
                        continue
                flow = self._flow_link(dst, src).open(
                    response_size, weight=self.rpc_weight
                )
                try:
                    yield flow.done
                    break
                except FlowAborted:
                    self._flow_aborted(dst, src, flow, False)
                    self.count_retry(response_size)
            yield self._arrival(dst, src)
        else:
            leg = self._start_leg(dst, src, response_size)
            if leg is None:
                yield from self._queued_leg(dst, src, response_size)
            else:
                delay, held = leg
                try:
                    yield delay
                finally:
                    if held is not None:
                        held.cancel()
        self._account(dst, src, response_size, sent)
        return result

    def _transfer_rpc(
        self, src, dst, service, request_size, response_size
    ) -> Generator:
        """:meth:`rpc` with each leg a :meth:`transfer` (traced runs)."""
        trace = self._trace_net
        sp = (
            self._tracer.span("rpc", src=src, dst=dst)
            if self._trace_span
            else None
        )
        t0 = self.env.now
        # Request leg.
        yield from self.transfer(
            src, dst, request_size,
            weight=self.rpc_weight, retry_on_abort=True, span_parent=sp,
        )
        t1 = self.env.now
        # Server-side processing.
        if hasattr(service, "send"):
            result = yield from service
        elif callable(service):
            result = service()
        else:
            result = service
        t2 = self.env.now
        # Response leg.
        yield from self.transfer(
            dst, src, response_size,
            weight=self.rpc_weight, retry_on_abort=True, span_parent=sp,
        )
        if trace:
            t3 = self.env.now
            self._tracer.emit(
                "network", "rpc",
                src=src, dst=dst,
                request_s=t1 - t0, service_s=t2 - t1, response_s=t3 - t2,
            )
            self._h_rpc.add(t3 - t0)
        if sp is not None:
            sp.finish(request_s=t1 - t0, service_s=t2 - t1)
        return result

    # -- legs (shared by transfer and the one-frame rpc) ----------------------

    def _down(self, src: str, dst: str) -> float:
        """Seconds until both ends of a fair-model leg are up.

        Callers skip it while ``flow_net.down_until`` is empty, that is
        until some site has been down.
        """
        flow_net = self.flow_net
        return max(flow_net.down_remaining(src), flow_net.down_remaining(dst))

    def _flow_aborted(
        self, src: str, dst: str, flow: Flow, trace: bool
    ) -> None:
        """Account one fair-model leg whose flow was torn down."""
        self.stats.aborted_transfers += 1
        self.stats.aborted_bytes += flow.remaining
        if trace:
            self._tracer.emit(
                "network", "transfer_abort",
                src=src, dst=dst, remaining=flow.remaining,
            )

    def _arrival(self, src: str, dst: str) -> float:
        """A fair-model leg's propagation once its last byte is sent:
        link latency, per-message overhead and a jitter draw."""
        link = self._route(src, dst)[0]
        return link.latency + self.PER_MESSAGE_OVERHEAD + self._jitter(link)

    def _start_leg(self, src: str, dst: str, size: int):
        """Start a slots-model leg that needs no queueing.

        Returns ``(delay, held)``: the sampled one-way delay and the link
        slot claimed for it through :meth:`Resource.try_acquire` (``None``
        for a local leg, which takes no slot).  Returns ``None`` when the
        link is contended; the caller then runs :meth:`_queued_leg`.
        """
        if src == dst:
            return self.one_way_delay(src, dst, size), None
        held = self._slots(src, dst).try_acquire()
        if held is None:
            return None
        return self.one_way_delay(src, dst, size), held

    def _queued_leg(self, src: str, dst: str, size: int) -> Generator:
        """Process: a contended slots-model leg -- queue, then transmit."""
        with self._link_slots[(src, dst)].request() as req:
            yield req
            # Sample the delay only once the slot is held: the draw order
            # still follows the FIFO grant order, but the sampled jitter
            # belongs to the actual transmission, not the enqueue instant.
            yield self.one_way_delay(src, dst, size)

    def _account(self, src: str, dst: str, size: int, sent_at: float) -> None:
        """Record one delivered message in :attr:`stats`."""
        stats = self.stats
        stats.messages += 1
        stats.bytes += size
        stats.total_latency += self.env.now - sent_at
        route = self._routes.get((src, dst))
        dist = route[1] if route is not None else self._route(src, dst)[1]
        if dist == "LOCAL":
            stats.local_messages += 1
        elif dist == "SAME_REGION":
            stats.same_region_messages += 1
        else:
            stats.geo_distant_messages += 1

    def reset_stats(self) -> None:
        self.stats = NetworkStats()
