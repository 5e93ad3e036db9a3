"""Decentralized metadata *with local replication* (Section IV-D).

The paper's flagship hybrid: DHT partitioning plus a local replica at
the creating site.

- **Write**: the entry is first stored in the *local* registry instance
  (fast); its hash value is computed, and the entry is lazily pushed to
  the corresponding home site in batches.  When the hash maps to the
  local site, no replication is needed.
- **Read**: a two-step hierarchical lookup -- first the local instance
  (with uniform creation, twice the probability of a hit versus the
  non-replicated scheme), then the DHT home site.

The gain materializes for workflows with sequential (pipeline-like)
stages scheduled close to their producers: consecutive tasks find their
metadata locally and save the up-to-50x-slower remote round trip
(Fig. 3 of the paper).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.sim import Environment
from repro.cloud.network import Network
from repro.metadata.config import MetadataConfig
from repro.metadata.consistency import ReplicationPump
from repro.metadata.entry import RegistryEntry
from repro.metadata.hashring import ConsistentHashRing
from repro.metadata.registry import MetadataRegistry
from repro.metadata.strategies.base import MetadataStrategy

__all__ = ["HybridStrategy"]


class HybridStrategy(MetadataStrategy):
    """DHT-partitioned registries with lazy local replication."""

    name = "hybrid"

    def __init__(
        self,
        env: Environment,
        network: Network,
        sites: List[str],
        config: Optional[MetadataConfig] = None,
    ):
        super().__init__(env, network, sites, config)
        self.ring = ConsistentHashRing(
            self.sites, virtual_nodes=self.config.virtual_nodes
        )
        self.registries = {
            site: MetadataRegistry(env, site, self.config) for site in self.sites
        }
        # Lazy mode runs one replication pump per site; synchronous mode
        # needs none (the home copy is written inline).
        self.pumps: Dict[str, ReplicationPump] = (
            {}
            if self.config.hybrid_sync_replication
            else {
                site: ReplicationPump(
                    env,
                    network,
                    site,
                    self.registries,
                    self.config,
                    tracker=self.tracker,
                )
                for site in self.sites
            }
        )
        #: Reads answered by the local replica (vs. the DHT home).
        self.local_hits = 0
        self.local_misses = 0
        #: key -> home-site memo.  The ring placement is a pure function
        #: of the key (BLAKE2b hashing, microseconds per lookup) and the
        #: strategy never changes ring membership, so every op after the
        #: first on a key resolves its home with one dict probe.
        self._home_memo: Dict[str, str] = {}

    def home_of(self, key: str) -> str:
        home = self._home_memo.get(key)
        if home is None:
            home = self.ring.site_for(key)
            self._home_memo[key] = home
        return home

    def _do_write(self, site: str, entry: RegistryEntry) -> Generator:
        """Local write, then (sync or lazy) replication to the DHT home.

        The default synchronous mode follows the Section IV-D prototype:
        the home-site copy is stored before the write returns.  Lazy
        mode (``config.hybrid_sync_replication = False``) defers it to
        the site's replication pump, trading write latency for an
        eventual-visibility window at the home site (Section III-D).
        """
        local_registry = self.registries[site]
        entry = entry.with_location(site) if site not in entry.locations else entry
        entry = entry.evolve(origin_site=site, created_at=self.env.now)
        stored = yield from self._client_write(site, local_registry, entry)
        self.tracker.on_created(entry.key)
        home = self.home_of(entry.key)
        if home == site:
            # The local site IS the home: nothing to replicate.
            self.tracker.on_fully_visible(entry.key)
            return stored, True
        if self.config.hybrid_sync_replication:
            yield from self._client_write(
                site, self.registries[home], stored
            )
            self.tracker.on_fully_visible(entry.key)
            return stored, False
        self.pumps[site].enqueue(stored, home)
        return stored, True

    def _do_read(self, site: str, key: str) -> Generator:
        """Two-step hierarchical lookup: local replica, then DHT home."""
        local_registry = self.registries[site]
        entry = yield from local_registry.rpc_get(self.network, site, key)
        if entry is not None:
            self.local_hits += 1
            return entry, True
        home = self.home_of(key)
        if home == site:
            # Local *is* the home; the miss is authoritative.
            return None, True
        self.local_misses += 1
        entry = yield from self.registries[home].rpc_get(
            self.network, site, key
        )
        return entry, False

    def _do_delete(self, site: str, key: str) -> Generator:
        """Remove both the local replica (if any) and the home copy."""
        local_existed = yield from self.network.rpc(
            site,
            site,
            self.registries[site].serve_delete(key),
            request_size=self.config.request_size,
            response_size=self.config.response_size,
        )
        home = self.home_of(key)
        home_existed = local_existed
        if home != site:
            home_existed = yield from self.network.rpc(
                site,
                home,
                self.registries[home].serve_delete(key),
                request_size=self.config.request_size,
                response_size=self.config.response_size,
            )
        return local_existed or home_existed, home == site

    @property
    def local_hit_ratio(self) -> float:
        total = self.local_hits + self.local_misses
        return self.local_hits / total if total else 0.0

    def flush(self) -> Generator:
        """Wait until every pump's backlog has drained."""
        while any(p.backlog > 0 for p in self.pumps.values()):
            yield self.config.replication_flush_interval

    def shutdown(self) -> None:
        for pump in self.pumps.values():
            pump.stop()
