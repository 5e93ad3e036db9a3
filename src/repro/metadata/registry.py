"""A metadata registry instance: the per-site service process.

One :class:`MetadataRegistry` models the deployed cache service of one
datacenter (Section V): a bounded-concurrency server in front of a
:class:`~repro.metadata.cache.CacheManager`.  All state changes pay
service time inside the server's slot queue, which is what produces the
contention effects at the heart of the evaluation (a centralized
instance saturating under 32+ concurrent clients; sync-agent merge
batches stalling client operations).

The registry exposes *server-side* generators (``serve_get`` etc.) that
strategy code wraps in :meth:`repro.cloud.network.Network.rpc` calls, so
every client operation pays: request latency + queueing + service time +
response latency.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.sim import Environment, Resource
from repro.cloud.network import Network
from repro.metadata.cache import CacheManager
from repro.metadata.config import MetadataConfig
from repro.metadata.entry import RegistryEntry

__all__ = ["MetadataRegistry"]


class MetadataRegistry:
    """The metadata service instance of one site."""

    def __init__(
        self,
        env: Environment,
        site: str,
        config: Optional[MetadataConfig] = None,
        name: Optional[str] = None,
    ):
        self.env = env
        self.site = site
        self.config = config or MetadataConfig()
        self.config.validate()
        self.name = name or f"registry-{site}"
        self.cache = CacheManager(name=self.name)
        self._server = Resource(env, capacity=self.config.service_concurrency)
        # -- service statistics
        self.ops_served = 0
        self.entries_merged = 0
        self.busy_time = 0.0
        # Observability: slot-wait events under "registry" (the queueing
        # at a saturated instance is the paper's central contention
        # effect, so it gets first-class tracing).
        tr = getattr(env, "tracer", None)
        self._tracer = tr
        self._trace_reg = tr is not None and tr.enabled and tr.wants("registry")
        self._h_wait = (
            tr.metrics.histogram("registry.slot_wait_s")
            if self._trace_reg
            else None
        )

    # -- internal: pay service time inside a server slot -------------------------

    def _service(self, duration: float) -> Generator:
        server = self._server
        req = server.try_acquire()
        if req is None:
            with server.request() as req:
                enqueued = self.env.now
                yield req
                if self._trace_reg:
                    wait = self.env.now - enqueued
                    self._tracer.emit(
                        "registry", "slot_wait",
                        site=self.site, wait=wait,
                        queue=len(server.queue),
                    )
                    self._h_wait.add(wait)
                start = self.env.now
                yield duration
                self.busy_time += self.env.now - start
        else:
            # Uncontended: the slot was claimed synchronously, so the op
            # pays only its service timeout (no same-instant grant hop).
            try:
                start = self.env.now
                yield duration
                self.busy_time += self.env.now - start
            finally:
                server._release(req)
        self.ops_served += 1

    # -- server-side operations ---------------------------------------------------

    def serve_get(self, key: str) -> Generator:
        """Look up ``key``; returns the entry or ``None``."""
        yield from self._service(self.config.service_time)
        return self.cache.get(key)

    def serve_put(
        self,
        entry: RegistryEntry,
        expected_version: Optional[int] = None,
    ) -> Generator:
        """Store ``entry``; returns the stored (version-bumped) entry.

        May raise :class:`~repro.metadata.entry.VersionConflict` under
        optimistic concurrency, which propagates to the RPC caller.
        """
        yield from self._service(self.config.service_time)
        return self.cache.put(entry, expected_version)

    def serve_delete(self, key: str) -> Generator:
        """Delete ``key``; returns whether it existed."""
        yield from self._service(self.config.service_time)
        return self.cache.delete(key)

    def serve_merge_batch(self, entries: List[RegistryEntry]) -> Generator:
        """Apply a batch of propagated updates (lazy-update delivery).

        Batch merges occupy the server for ``merge_entry_time`` per
        entry -- cheaper per entry than client puts, but a large batch
        still blocks client operations behind it, which is the mechanism
        degrading the replicated strategy at scale (Figs. 7 and 8).
        """
        if entries:
            yield from self._service(
                self.config.merge_entry_time * len(entries)
            )
            for entry in entries:
                self.cache.merge(entry)
            self.entries_merged += len(entries)
        return len(entries)

    def serve_updates_since(self, cursor: int) -> Generator:
        """Return (updates, new_cursor) for the synchronization agent.

        Service time scales with the batch handed back (the instance has
        to serialize each entry).
        """
        updates, new_cursor = self.cache.updates_since(cursor)
        cost = self.config.service_time + self.config.merge_entry_time * len(
            updates
        )
        yield from self._service(cost)
        return updates, new_cursor

    # -- convenience for client-side invocation -----------------------------------
    # Each helper returns the ``network.rpc`` process itself instead of
    # wrapping it in a generator: one frame less per resumption.

    def rpc_get(self, network: Network, from_site: str, key: str) -> Generator:
        """Client-side helper: full RPC for a get."""
        return network.rpc(
            from_site,
            self.site,
            self.serve_get(key),
            request_size=self.config.request_size,
            response_size=self.config.response_size,
        )

    def rpc_put(
        self,
        network: Network,
        from_site: str,
        entry: RegistryEntry,
        expected_version: Optional[int] = None,
    ) -> Generator:
        return network.rpc(
            from_site,
            self.site,
            self.serve_put(entry, expected_version),
            request_size=self.config.request_size
            + entry.serialized_size(),
            response_size=self.config.response_size,
        )

    def rpc_merge_batch(
        self, network: Network, from_site: str, entries: List[RegistryEntry]
    ) -> Generator:
        size = sum(e.serialized_size() for e in entries)
        return network.rpc(
            from_site,
            self.site,
            self.serve_merge_batch(entries),
            request_size=self.config.request_size + size,
            response_size=self.config.response_size,
        )

    # -- introspection ---------------------------------------------------------------

    @property
    def queue_length(self) -> int:
        return len(self._server.queue)

    @property
    def max_queue_length(self) -> int:
        return self._server.max_queue_len

    def utilization(self, horizon: Optional[float] = None) -> float:
        elapsed = horizon if horizon is not None else self.env.now
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.config.service_concurrency)

    def __contains__(self, key: str) -> bool:
        return key in self.cache

    def __len__(self) -> int:
        return len(self.cache)

    def __repr__(self) -> str:
        return f"<MetadataRegistry {self.site} entries={len(self)}>"
