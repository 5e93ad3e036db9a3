"""Replicated metadata on each site (Section IV-B).

A local registry instance in every datacenter, so *every* client
operation is local and fast.  A single synchronization agent iteratively
queries all instances for updates and propagates them to the rest of the
set.  The trade-offs the paper observes, both reproduced here:

- reads of entries written at *another* site block until the agent's
  next cycle makes them locally visible (eventual consistency) -- hence
  the strategy suits workflows with low metadata rates (few, very large
  files), and is penalized by metadata-intensive ones;
- the lone sequential agent, plus the merge batches it injects into
  every instance, becomes a bottleneck as the node count grows past ~32
  (Figs. 7 and 8).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.sim import Environment
from repro.cloud.network import Network
from repro.metadata.config import MetadataConfig
from repro.metadata.consistency import SyncAgent
from repro.metadata.entry import RegistryEntry
from repro.metadata.registry import MetadataRegistry
from repro.metadata.strategies.base import MetadataStrategy

__all__ = ["ReplicatedStrategy"]


class ReplicatedStrategy(MetadataStrategy):
    """Per-site registry replicas + one synchronization agent."""

    name = "replicated"

    def __init__(
        self,
        env: Environment,
        network: Network,
        sites: List[str],
        config: Optional[MetadataConfig] = None,
    ):
        super().__init__(env, network, sites, config)
        self.registries = {
            site: MetadataRegistry(env, site, self.config) for site in self.sites
        }
        agent_site = self.config.home_site or self.sites[0]
        self.agent = SyncAgent(
            env,
            network,
            self.registries,
            self.config,
            agent_site=agent_site,
            tracker=self.tracker,
        )

    def _do_write(self, site: str, entry: RegistryEntry) -> Generator:
        """All writes are local; the agent propagates them lazily."""
        registry = self.registries[site]
        entry = entry.with_location(site) if site not in entry.locations else entry
        # Stamp origin so the agent can filter echoes when polling.
        if entry.origin_site != site:
            entry = type(entry)(
                key=entry.key,
                locations=entry.locations,
                size=entry.size,
                version=entry.version,
                origin_site=site,
                created_at=self.env.now,
                attributes=entry.attributes,
            )
        stored = yield from self._client_write(site, registry, entry)
        self.tracker.on_created(entry.key)
        return stored, True

    def _do_read(self, site: str, key: str) -> Generator:
        """All reads are local; misses surface the consistency window."""
        registry = self.registries[site]
        entry = yield from registry.rpc_get(self.network, site, key)
        return entry, True

    def _do_delete(self, site: str, key: str) -> Generator:
        existed = yield from self.network.rpc(
            site,
            site,
            self.registries[site].serve_delete(key),
            request_size=self.config.request_size,
            response_size=self.config.response_size,
        )
        return existed, True

    def flush(self) -> Generator:
        """Wait until the agent has propagated everything written so far."""
        while self.agent.lag > 0 or self.tracker.pending > 0:
            yield self.config.sync_period / 2

    def shutdown(self) -> None:
        self.agent.stop()
