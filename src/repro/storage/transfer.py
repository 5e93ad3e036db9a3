"""Inter-site data movement.

The transfer service owns one :class:`FileStore` per site and moves file
contents over the deployment's network, paying latency plus
size/bandwidth.  It also keeps the statistics the data-provisioning
discussion of the paper cares about: how many bytes crossed WAN links
and how much task time was spent waiting on transfers.

Under the flow-level fair-share bandwidth model the service is also the
resilience boundary: a transfer torn down mid-flight (site outage, link
flap raises :class:`~repro.cloud.flow.FlowAborted`) is retried from the
next-best source -- the failed source is excluded when an alternative
holds the file -- and every re-issue is accounted both here
(:attr:`TransferService.retries`) and in the network's
``retried_transfers``/``retried_bytes`` counters.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, List, Optional

from repro.sim import Environment
from repro.cloud.network import FlowAborted, Network
from repro.storage.filestore import FileStore, StoredFile

__all__ = ["TransferService"]


class TransferError(Exception):
    """The requested file exists at no site the service knows about."""


class TransferService:
    """File placement plus fetch-to-site transfers.

    ``default_weight`` is the fair-model flow weight of bulk transfers
    issued by this service (see ``docs/network-model.md``);
    ``max_retries`` bounds how many times one fetch is re-issued after
    mid-flight aborts before giving up.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        sites: Iterable[str],
        default_weight: float = 1.0,
        max_retries: int = 8,
    ):
        if default_weight <= 0:
            raise ValueError("default_weight must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.env = env
        self.network = network
        self.stores: Dict[str, FileStore] = {s: FileStore(s) for s in sites}
        self.default_weight = float(default_weight)
        self.max_retries = max_retries
        self.transfers = 0
        self.wan_bytes = 0
        self.transfer_wait = 0.0
        #: Fetches re-issued after a mid-flight abort (fair model).
        self.retries = 0

    def store(self, site: str, file: StoredFile) -> None:
        """Write a freshly produced file at ``site`` (local, instant)."""
        self._store_of(site).put(file)

    def locations_of(self, name: str) -> List[str]:
        """Sites currently holding ``name`` (data-side ground truth)."""
        return [s for s, store in self.stores.items() if store.has(name)]

    def fetch(
        self,
        name: str,
        to_site: str,
        known_locations: Optional[Iterable[str]] = None,
        weight: Optional[float] = None,
    ) -> Generator:
        """Process: ensure ``name`` is materialized at ``to_site``.

        ``known_locations`` normally comes from the metadata service
        (that is the whole point of the registry: learning where the
        data is without broadcasting).  Falls back to ground truth when
        omitted -- useful for tests.  Picks the closest source site by
        one-way latency; under the flow-level fair-share bandwidth model
        the choice is load-aware instead (expected delivery time given
        the current fair share on each candidate link -- including any
        remaining outage window at the candidate -- via the network's
        jitter-free estimator; planning never consumes network RNG).

        If the transfer is torn down mid-flight by a fault
        (:class:`~repro.cloud.flow.FlowAborted`), the fetch retries --
        excluding the failed source while other sites hold the file --
        until it succeeds or ``max_retries`` re-issues are exhausted.
        Returns the :class:`StoredFile`.
        """
        dst = self._store_of(to_site)
        existing = dst.get(name)
        if existing is not None:
            return existing

        weight = self.default_weight if weight is None else float(weight)
        # Materialize once: the retry loop re-reads it, and callers may
        # pass a one-shot iterable.
        known = list(known_locations) if known_locations is not None else None
        failed: set = set()
        attempts = 0
        while True:
            candidates = [
                s
                for s in (known or self.locations_of(name))
                if s in self.stores and self.stores[s].has(name)
            ]
            if not candidates:
                raise TransferError(f"file {name!r} not found at any site")
            # Prefer sources that have not failed this fetch yet; if
            # every holder failed once, allow them again (the fault may
            # have cleared -- e.g. a recovered outage).
            usable = [s for s in candidates if s not in failed] or candidates
            src_site = self._pick_source(usable, name, to_site, weight)
            file = self.stores[src_site].peek(name)
            assert file is not None  # guarded by candidates filter
            start = self.env.now
            try:
                yield from self.network.transfer(
                    src_site, to_site, file.size, weight=weight
                )
            except FlowAborted:
                self.transfer_wait += self.env.now - start
                if attempts >= self.max_retries:
                    raise TransferError(
                        f"fetch of {name!r} to {to_site!r} aborted "
                        f"{attempts + 1} times (faults); giving up"
                    )
                attempts += 1
                # Blame the source only when it (or the path) failed: a
                # destination-site outage says nothing about the source,
                # which usually remains the best choice after recovery.
                flow_net = self.network.flow_net
                dst_down = (
                    flow_net is not None
                    and flow_net.down_remaining(to_site) > 0
                )
                src_down = (
                    flow_net is not None
                    and flow_net.down_remaining(src_site) > 0
                )
                if src_down or not dst_down:
                    failed.add(src_site)
                self.retries += 1
                self.network.count_retry(file.size)
                continue
            self.stores[src_site].get(name)  # read accounting at the source
            self.transfers += 1
            self.transfer_wait += self.env.now - start
            if src_site != to_site:
                self.wan_bytes += file.size
            dst.put(file)
            return file

    def _pick_source(
        self, candidates: List[str], name: str, to_site: str, weight: float
    ) -> str:
        if self.network.bandwidth_model == "fair":
            # Estimate at the weight the transfer will actually use, so
            # planning matches the share the flow really receives.
            return min(
                candidates,
                key=lambda s: self.network.estimated_transfer_time(
                    s, to_site, self.stores[s].peek(name).size, weight=weight
                ),
            )
        return min(
            candidates,
            key=lambda s: self.network.topology.latency(s, to_site),
        )

    def _store_of(self, site: str) -> FileStore:
        try:
            return self.stores[site]
        except KeyError:
            raise KeyError(
                f"unknown site {site!r}; have {sorted(self.stores)}"
            ) from None

    def total_files(self) -> int:
        return sum(len(s) for s in self.stores.values())

    def __repr__(self) -> str:
        return f"<TransferService sites={sorted(self.stores)}>"
