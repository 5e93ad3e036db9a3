"""Fault injection for resilience experiments.

The paper's opening motivation for multi-site deployments includes
"resilience to failures"; its cache tier is explicitly HA (primary +
replica, Section III-B).  This module schedules failures against a
running deployment so tests and experiments can measure how the
metadata service behaves through them:

- :class:`CacheFailureInjector` -- kills registry cache primaries (and
  optionally replicas) on a schedule, exercising the promote-and-
  repopulate path;
- :class:`LatencySpikeInjector` -- temporarily inflates one WAN link's
  latency (a transatlantic brown-out), exercising the sensitivity of
  each strategy to a single slow path;
- :class:`SiteOutage` -- takes a whole site offline for a window: its
  registry's service slots are held (requests queue and drain when the
  site returns) and, under the flow-level fair bandwidth model, every
  in-flight transfer through the site is torn down
  (:class:`~repro.cloud.flow.FlowAborted` at the waiters; the storage
  layer retries from the next-best source) while new transfers wait out
  the window;
- :class:`LinkFlapInjector` -- transient flaps of one WAN link: each
  flap kills the link's in-flight fair flows without a down window
  (connections die, retries reconnect immediately);
- :class:`RegionOutage` -- a *correlated* failure: several sites (an
  explicit set, or everything tagged with one region) go dark together,
  with one atomically batched flow teardown and a shared down window --
  the region-wide incident that per-site independence assumptions miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence

from repro.sim import Environment
from repro.cloud.network import Network
from repro.cloud.topology import CloudTopology

__all__ = [
    "CacheFailureInjector",
    "FaultEvent",
    "LatencySpikeInjector",
    "LinkFlapInjector",
    "RegionOutage",
    "SiteOutage",
]


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for post-run reporting."""

    at: float
    kind: str
    target: str
    detail: str = ""


class CacheFailureInjector:
    """Kill cache primaries at fixed simulated times.

    >>> injector = CacheFailureInjector(env, strategy.registries,
    ...                                 schedule=[(5.0, "west-europe")])
    """

    def __init__(
        self,
        env: Environment,
        registries: Dict[str, "object"],
        schedule: List[tuple],
    ):
        self.env = env
        self.registries = registries
        self.events: List[FaultEvent] = []
        for at, site in schedule:
            if site not in registries:
                raise ValueError(f"no registry at {site!r}")
            env.process(
                self._fail_at(at, site), name=f"fault-cache-{site}"
            )

    def _fail_at(self, at: float, site: str) -> Generator:
        yield at
        self.registries[site].cache.fail_primary()
        self.events.append(
            FaultEvent(self.env.now, "cache-primary-failure", site)
        )


class LatencySpikeInjector:
    """Inflate one link's latency for a window, then restore it."""

    def __init__(
        self,
        env: Environment,
        topology: CloudTopology,
        a: str,
        b: str,
        start: float,
        duration: float,
        factor: float = 10.0,
    ):
        if duration <= 0 or factor <= 0:
            raise ValueError("duration and factor must be positive")
        self.env = env
        self.topology = topology
        self.events: List[FaultEvent] = []
        env.process(
            self._spike(a, b, start, duration, factor),
            name=f"fault-latency-{a}-{b}",
        )

    def _spike(
        self, a: str, b: str, start: float, duration: float, factor: float
    ) -> Generator:
        yield start
        fwd = self.topology.link(a, b)
        bwd = self.topology.link(b, a)
        original = (fwd.latency, bwd.latency)
        fwd.latency *= factor
        bwd.latency *= factor
        self.events.append(
            FaultEvent(
                self.env.now,
                "latency-spike-start",
                f"{a}<->{b}",
                f"x{factor}",
            )
        )
        yield duration
        fwd.latency, bwd.latency = original
        self.events.append(
            FaultEvent(self.env.now, "latency-spike-end", f"{a}<->{b}")
        )


class SiteOutage:
    """Take a whole site offline for a window.

    Control plane: *all* service slots of the site's registry are
    acquired for the outage duration -- in-flight requests finish, new
    ones queue and drain when the outage lifts (the observable behaviour
    of a rebooting cache instance behind a connection-retrying client).

    Data plane (pass ``network``, fair bandwidth model only): at the
    outage start every in-flight transfer into or out of the site is
    aborted -- waiters see :class:`~repro.cloud.flow.FlowAborted`, the
    storage layer retries from the next-best source -- and new transfers
    touching the site wait out the remaining window.

    ``registry`` may be ``None`` for data-plane-only outages (pass
    ``site`` explicitly then).
    """

    def __init__(
        self,
        env: Environment,
        registry=None,
        start: float = 0.0,
        duration: float = 0.0,
        network: Optional[Network] = None,
        site: Optional[str] = None,
    ):
        if duration <= 0:
            raise ValueError("duration must be positive")
        if registry is None and site is None:
            raise ValueError("need a registry or an explicit site")
        self.env = env
        self.registry = registry
        self.network = network
        self.site = site or registry.site
        #: Fair flows torn down at the outage start (set by the process).
        self.aborted_flows = 0
        self.events: List[FaultEvent] = []
        env.process(
            self._outage(start, duration),
            name=f"fault-outage-{self.site}",
        )

    def _outage(self, start: float, duration: float) -> Generator:
        yield start
        if self.network is not None:
            # Data plane first: connections through the site die at the
            # instant the site goes dark.
            self.aborted_flows = self.network.abort_site_flows(
                self.site, duration
            )
        if self.registry is None:
            self.events.append(
                FaultEvent(
                    self.env.now,
                    "site-outage-start",
                    self.site,
                    f"aborted_flows={self.aborted_flows}",
                )
            )
            yield duration
            self.events.append(
                FaultEvent(self.env.now, "site-outage-end", self.site)
            )
            return
        server = self.registry._server
        requests = [server.request() for _ in range(server.capacity)]
        from repro.sim import AllOf

        yield AllOf(self.env, requests)
        self.events.append(
            FaultEvent(
                self.env.now,
                "site-outage-start",
                self.site,
                f"aborted_flows={self.aborted_flows}",
            )
        )
        yield duration
        for req in requests:
            req.cancel()
        self.events.append(
            FaultEvent(self.env.now, "site-outage-end", self.site)
        )


class RegionOutage:
    """Take a whole *set* of sites offline together (correlated failure).

    Composes :class:`SiteOutage` semantics across every member site,
    atomically:

    - **data plane** (pass ``network``, fair bandwidth model only): all
      in-flight transfers touching *any* member die in **one batched
      teardown** -- a single settle/re-solve pass via
      :meth:`Network.abort_region_flows
      <repro.cloud.network.Network.abort_region_flows>`, so survivors
      never observe intermediate rates between per-site teardowns --
      and every member shares one down window;
    - **control plane** (pass ``registries``, e.g.
      ``strategy.registries``): each member site's registry has all of
      its service slots held for the window; in-flight requests finish,
      new ones queue and drain at recovery.

    Membership is an explicit ``sites`` sequence, or every datacenter
    tagged with ``region`` (resolved through
    :meth:`CloudTopology.sites_in_region
    <repro.cloud.topology.CloudTopology.sites_in_region>`; requires
    ``topology``).
    """

    def __init__(
        self,
        env: Environment,
        sites: Optional[Sequence[str]] = None,
        region: Optional[str] = None,
        topology: Optional[CloudTopology] = None,
        registries: Optional[Dict[str, "object"]] = None,
        start: float = 0.0,
        duration: float = 0.0,
        network: Optional[Network] = None,
    ):
        if duration <= 0:
            raise ValueError("duration must be positive")
        if (sites is None) == (region is None):
            raise ValueError("pass exactly one of sites= or region=")
        if region is not None:
            if topology is None:
                raise ValueError("region= needs a topology to resolve it")
            sites = topology.sites_in_region(region)
        if not sites:
            raise ValueError("need at least one site")
        self.env = env
        self.sites = sorted(set(sites))
        self.network = network
        self.registries = {
            site: registries[site]
            for site in self.sites
            if registries is not None and site in registries
        }
        #: Fair flows torn down at the outage start (set by the process).
        self.aborted_flows = 0
        self.events: List[FaultEvent] = []
        env.process(
            self._outage(start, duration),
            name=f"fault-region-{'-'.join(self.sites)}",
        )

    def _outage(self, start: float, duration: float) -> Generator:
        yield start
        label = ",".join(self.sites)
        if self.network is not None:
            # Data plane first, in one batch: every connection through
            # the region dies at the same instant, one global re-solve.
            self.aborted_flows = self.network.abort_region_flows(
                self.sites, duration
            )
        # Control plane: grab every member registry's full slot set
        # concurrently (in-flight requests finish first, like a
        # rebooting cache instance behind a retrying client).
        requests = [
            self.registries[site]._server.request()
            for site in self.sites
            if site in self.registries
            for _ in range(self.registries[site]._server.capacity)
        ]
        if requests:
            from repro.sim import AllOf

            yield AllOf(self.env, requests)
        self.events.append(
            FaultEvent(
                self.env.now,
                "region-outage-start",
                label,
                f"aborted_flows={self.aborted_flows}",
            )
        )
        yield duration
        for req in requests:
            req.cancel()
        self.events.append(
            FaultEvent(self.env.now, "region-outage-end", label)
        )


class LinkFlapInjector:
    """Flap one WAN link at scheduled absolute sim times (fair model).

    Each flap aborts every in-flight fair flow on the ``a -> b`` (and,
    by default, ``b -> a``) link: the connections die, their waiters
    retry, and the link itself is immediately usable again -- the
    classic transient-flap failure mode, distinct from a
    :class:`SiteOutage` window.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        a: str,
        b: str,
        times: Sequence[float],
        bidirectional: bool = True,
    ):
        if not times:
            raise ValueError("need at least one flap time")
        if any(t < 0 for t in times):
            raise ValueError("flap times must be >= 0")
        network.topology.get(a)
        network.topology.get(b)
        self.env = env
        self.network = network
        self.a = a
        self.b = b
        #: Total fair flows torn down across all flaps.
        self.aborted_flows = 0
        self.events: List[FaultEvent] = []
        env.process(
            self._run(sorted(times), bidirectional),
            name=f"fault-flap-{a}-{b}",
        )

    def _run(
        self, times: Sequence[float], bidirectional: bool
    ) -> Generator:
        for at in times:
            # Times are absolute sim instants; one already in the past
            # (injector built mid-run) fires immediately.
            yield max(0.0, at - self.env.now)
            n = self.network.flap_link(
                self.a, self.b, bidirectional=bidirectional
            )
            self.aborted_flows += n
            self.events.append(
                FaultEvent(
                    self.env.now,
                    "link-flap",
                    f"{self.a}<->{self.b}",
                    f"aborted={n}",
                )
            )
