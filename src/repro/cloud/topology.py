"""Datacenters, regions and the inter-site distance taxonomy.

Terminology follows Section IV of the paper:

- **local**: node and registry in the same datacenter;
- **same-region**: different datacenters of the same geographic region;
- **geo-distant**: datacenters in different geographic regions.

A :class:`CloudTopology` owns the set of datacenters and the symmetric
one-way latency matrix between them.  Latencies are *model inputs*
calibrated against the paper's Figure 1 (see ``repro.cloud.presets``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.util.units import MB

__all__ = [
    "CloudTopology",
    "Datacenter",
    "Distance",
    "Region",
    "SiteSpec",
]


class Distance(enum.Enum):
    """Physical-distance class between two datacenters (paper Section IV)."""

    LOCAL = "local"
    SAME_REGION = "same-region"
    GEO_DISTANT = "geo-distant"

    @property
    def is_remote(self) -> bool:
        """Both same-region and geo-distant count as *remote* scenarios."""
        return self is not Distance.LOCAL


@dataclass(frozen=True)
class Region:
    """A geographic region grouping datacenters (e.g. Europe, US)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass
class SiteSpec:
    """Aggregate WAN capacity of one site's uplink.

    A site talks to every other site through one physical uplink, so the
    *sum* of its concurrent outbound (egress) and inbound (ingress) WAN
    traffic is capped regardless of how many distinct inter-DC links it
    participates in.  Only the flow-level fair-share bandwidth model
    (``bandwidth_model="fair"``) enforces these caps; ``inf`` (the
    default) disables them.  Units: bytes/second, like every bandwidth
    figure in this repo.
    """

    egress_bw: float = math.inf
    ingress_bw: float = math.inf

    def validate(self) -> None:
        # ``not x > 0`` so that NaN fails too; ``inf`` stays valid.
        if not (self.egress_bw > 0 and self.ingress_bw > 0):
            raise ValueError(
                "site egress/ingress caps must be positive "
                f"(got egress={self.egress_bw}, ingress={self.ingress_bw})"
            )


@dataclass
class Datacenter:
    """A cloud site: the largest building block of the cloud.

    Attributes
    ----------
    name:
        Unique site identifier (e.g. ``"west-europe"``).
    region:
        Geographic region the site belongs to.
    core_limit:
        Per-deployment core cap (Azure enforced 300 cores/deployment at
        the time of the paper -- one of the stated reasons workflows
        *must* go multi-site).
    spec:
        Aggregate egress/ingress WAN caps of the site's uplink
        (:class:`SiteSpec`); uncapped by default.
    """

    name: str
    region: Region
    core_limit: int = 300
    index: int = -1  # assigned by CloudTopology
    spec: SiteSpec = field(default_factory=SiteSpec)

    @property
    def egress_bw(self) -> float:
        return self.spec.egress_bw

    @property
    def ingress_bw(self) -> float:
        return self.spec.ingress_bw

    def distance_to(self, other: "Datacenter") -> Distance:
        """Classify the distance to another datacenter."""
        if self.name == other.name:
            return Distance.LOCAL
        if self.region == other.region:
            return Distance.SAME_REGION
        return Distance.GEO_DISTANT

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Datacenter) and other.name == self.name

    def __repr__(self) -> str:
        return f"<Datacenter {self.name} ({self.region})>"


@dataclass
class LinkSpec:
    """Latency/bandwidth parameters of one directed inter-DC link.

    ``bandwidth`` is the link's total capacity.  Under the slot
    bandwidth model every in-flight transfer gets the full figure; under
    the flow-level fair-share model (``bandwidth_model="fair"``) all
    active flows split it max-min fairly.  ``max_flow_rate`` optionally
    caps a *single* flow's share (e.g. per-connection TCP or NIC limits)
    and only matters to the fair model.
    """

    latency: float  # one-way propagation latency, seconds
    bandwidth: float = 100 * MB  # bytes/second
    jitter: float = 0.0  # std-dev of lognormal-ish latency noise, seconds
    max_flow_rate: float = float("inf")  # per-flow cap, bytes/second


class CloudTopology:
    """The set of datacenters plus the pairwise link model.

    The latency matrix is symmetric by construction (``set_link`` sets
    both directions unless told otherwise), matching the paper's
    treatment of inter-DC distance as an undirected property.
    """

    def __init__(self, datacenters: Iterable[Datacenter]):
        self.datacenters: List[Datacenter] = list(datacenters)
        if not self.datacenters:
            raise ValueError("Topology needs at least one datacenter")
        names = [dc.name for dc in self.datacenters]
        if len(set(names)) != len(names):
            raise ValueError(f"Duplicate datacenter names in {names}")
        self._by_name: Dict[str, Datacenter] = {}
        for i, dc in enumerate(self.datacenters):
            dc.index = i
            self._by_name[dc.name] = dc
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        # Sensible default for intra-DC "links" (LAN): sub-millisecond.
        self.local_link = LinkSpec(latency=0.0005, bandwidth=1000 * MB)

    # -- construction -------------------------------------------------------

    def set_link(
        self,
        a: str,
        b: str,
        latency: float,
        bandwidth: float = 100 * MB,
        jitter: float = 0.0,
        symmetric: bool = True,
        max_flow_rate: float = float("inf"),
    ) -> None:
        """Define the WAN link between sites ``a`` and ``b``."""
        if a not in self._by_name or b not in self._by_name:
            raise KeyError(f"Unknown datacenter in link {a!r}-{b!r}")
        if a == b:
            raise ValueError("Use 'local_link' for intra-DC latency")
        # Bounds stated positively so that NaN fails them.
        if not (latency >= 0 and bandwidth > 0):
            raise ValueError("latency must be >=0 and bandwidth > 0")
        if not max_flow_rate > 0:
            raise ValueError("max_flow_rate must be positive")
        self._links[(a, b)] = LinkSpec(latency, bandwidth, jitter, max_flow_rate)
        if symmetric:
            self._links[(b, a)] = LinkSpec(
                latency, bandwidth, jitter, max_flow_rate
            )

    def set_site_caps(
        self,
        name: str,
        egress_bw: Optional[float] = None,
        ingress_bw: Optional[float] = None,
    ) -> None:
        """Cap a site's aggregate WAN egress/ingress (bytes/second).

        ``None`` leaves the corresponding cap unchanged; pass
        ``math.inf`` to lift one.  Enforced only by the flow-level
        fair-share bandwidth model, which consults the caps live -- a
        change takes effect at the next rebalance.  A rejected cap
        leaves the site's caps as they were.
        """
        spec = self.get(name).spec
        caps = SiteSpec(
            spec.egress_bw if egress_bw is None else float(egress_bw),
            spec.ingress_bw if ingress_bw is None else float(ingress_bw),
        )
        caps.validate()
        spec.egress_bw = caps.egress_bw
        spec.ingress_bw = caps.ingress_bw

    def site_caps(self, name: str) -> Tuple[float, float]:
        """The ``(egress, ingress)`` caps of a site, bytes/second.

        Read live on every fair-share rebalance, so it looks the site up
        directly; an unknown name still gets :meth:`get`'s error.
        """
        try:
            spec = self._by_name[name].spec
        except KeyError:
            spec = self.get(name).spec
        return (spec.egress_bw, spec.ingress_bw)

    def copy(self) -> "CloudTopology":
        """An independent deep copy of this topology.

        Deployments, fault injectors and ``set_site_caps`` all edit a
        topology *in place* (latency spikes, egress/ingress caps), so
        handing one object to several runs leaks state between them.
        Copying gives each run its own datacenters, site caps and link
        specs -- mutate one side freely, the other never notices.
        """
        clone = CloudTopology(
            Datacenter(
                dc.name,
                dc.region,
                core_limit=dc.core_limit,
                spec=SiteSpec(dc.spec.egress_bw, dc.spec.ingress_bw),
            )
            for dc in self.datacenters
        )
        clone._links = {
            pair: LinkSpec(
                link.latency, link.bandwidth, link.jitter, link.max_flow_rate
            )
            for pair, link in self._links.items()
        }
        ll = self.local_link
        clone.local_link = LinkSpec(
            ll.latency, ll.bandwidth, ll.jitter, ll.max_flow_rate
        )
        return clone

    # -- lookup --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.datacenters)

    def __iter__(self):
        return iter(self.datacenters)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> Datacenter:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"Unknown datacenter {name!r}; have {sorted(self._by_name)}"
            ) from None

    def link(self, src: str, dst: str) -> LinkSpec:
        """The link spec between two sites (local link if same site)."""
        if src == dst:
            return self.local_link
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(
                f"No link defined between {src!r} and {dst!r}"
            ) from None

    def latency(self, src: str, dst: str) -> float:
        """One-way base latency between two sites, seconds."""
        return self.link(src, dst).latency

    def distance(self, src: str, dst: str) -> Distance:
        return self.get(src).distance_to(self.get(dst))

    def sites_in_region(self, region: str) -> List[str]:
        """Names of every datacenter whose region tag is ``region``.

        The resolution used by correlated-failure injectors
        (:class:`~repro.cloud.faults.RegionOutage`): a region-wide
        event touches all of these sites at once.  Raises ``KeyError``
        for a region no datacenter belongs to (a silent empty set would
        make a typo'd fault injection a no-op).
        """
        names = [
            dc.name for dc in self.datacenters if dc.region.name == region
        ]
        if not names:
            regions = sorted({dc.region.name for dc in self.datacenters})
            raise KeyError(
                f"Unknown region {region!r}; have {regions}"
            )
        return names

    def validate(self) -> None:
        """Check every inter-DC pair has a link (raises otherwise)."""
        missing = [
            (a.name, b.name)
            for a in self.datacenters
            for b in self.datacenters
            if a.name != b.name and (a.name, b.name) not in self._links
        ]
        if missing:
            raise ValueError(f"Missing links: {missing}")

    # -- site centrality (Section VI-B, Fig. 6 discussion) -------------------

    def centrality(self, name: str) -> float:
        """Average one-way latency from ``name`` to all other sites.

        The paper defines a site's *centrality* as the average distance
        from it to the rest of the datacenters, and observes that the
        best decentralized performance occurs at the most central site.
        Lower value = more central.
        """
        others = [dc for dc in self.datacenters if dc.name != name]
        if not others:
            return 0.0
        return sum(self.latency(name, o.name) for o in others) / len(others)

    def most_central(self) -> Datacenter:
        """The datacenter with the lowest average latency to the others."""
        return min(self.datacenters, key=lambda dc: self.centrality(dc.name))

    def least_central(self) -> Datacenter:
        return max(self.datacenters, key=lambda dc: self.centrality(dc.name))

    def __repr__(self) -> str:
        return f"<CloudTopology {[dc.name for dc in self.datacenters]}>"
