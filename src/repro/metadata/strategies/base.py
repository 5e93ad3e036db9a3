"""The strategy interface every metadata management scheme implements.

A strategy answers exactly two questions for the client side:

- **write**: given the issuing node's site and a new entry, which
  registry instance(s) must be contacted, in which order, and which
  updates may be deferred?
- **read**: given the issuing site and a key, where is the entry looked
  up, and what happens on a miss?

Terminology is the paper's (Section IV): a *read* queries the metadata
registry for an entry; a *write* publishes a new entry and "actually
consists of a look-up read operation to verify whether the entry already
exists, followed by the actual write".

All strategy methods are simulation processes (generators); callers
``yield from`` them.  Every completed client operation is recorded in
:attr:`MetadataStrategy.stats`.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.sim import Environment
from repro.cloud.network import Network
from repro.metadata.config import MetadataConfig
from repro.obs import NULL_TRACER
from repro.metadata.consistency import ConsistencyTracker
from repro.metadata.entry import RegistryEntry
from repro.metadata.registry import MetadataRegistry
from repro.metadata.stats import OpKind, OpStats

__all__ = ["MetadataStrategy", "ReadMissError"]


class ReadMissError(Exception):
    """A required read exhausted its retries without finding the entry."""

    def __init__(self, key: str, site: str, retries: int):
        super().__init__(
            f"entry {key!r} not visible from {site} after {retries} retries"
        )
        self.key = key
        self.site = site
        self.retries = retries


class MetadataStrategy:
    """Base class wiring registries, the network and op accounting."""

    #: Human-readable strategy identifier (used in reports and figures).
    name: str = "abstract"

    def __init__(
        self,
        env: Environment,
        network: Network,
        sites: List[str],
        config: Optional[MetadataConfig] = None,
    ):
        if not sites:
            raise ValueError("need at least one site")
        self.env = env
        self.network = network
        self.sites = list(sites)
        self.config = config or MetadataConfig()
        self.config.validate()
        self.stats = OpStats()
        self.tracker = ConsistencyTracker(env)
        self.registries: Dict[str, MetadataRegistry] = {}
        # Observability: client-op events under "registry", with
        # per-kind latency histograms feeding the metrics plane (their
        # quantiles mirror OpStats.latency_percentile within the
        # documented sketch error).
        tr = getattr(env, "tracer", None) or NULL_TRACER
        self._tracer = tr
        self._trace_ops = tr.enabled and tr.wants("registry")
        if self._trace_ops:
            self._h_op = tr.metrics.histogram("ops.latency_s")
            self._h_read = tr.metrics.histogram("ops.read_latency_s")
            self._h_write = tr.metrics.histogram("ops.write_latency_s")
        else:
            self._h_op = self._h_read = self._h_write = None

    def _trace_op(
        self, kind: str, key: str, site: str, start: float,
        local: bool, retries: int = 0,
    ) -> None:
        """Emit one completed-op event + histogram samples (traced runs)."""
        latency = self.env.now - start
        self._tracer.emit(
            "registry", "op",
            kind=kind, key=key, site=site,
            latency=latency, local=local, retries=retries,
        )
        self._h_op.add(latency)
        if kind == "read":
            self._h_read.add(latency)
        elif kind == "write":
            self._h_write.add(latency)

    # -- public API ----------------------------------------------------------------

    def write(
        self, site: str, entry: RegistryEntry, run: str = ""
    ) -> Generator:
        """Process: publish ``entry`` from a node at ``site``.

        Returns the stored entry.  Implemented via ``_do_write`` in
        subclasses; this wrapper does the op accounting.  ``run`` tags
        the record with the originating workflow run so concurrent
        workflows sharing this strategy can attribute their ops.
        """
        start = self.env.now
        if self.config.client_overhead > 0:
            yield self.config.client_overhead
        stored, local = yield from self._do_write(site, entry)
        self.stats.record(
            OpKind.WRITE, entry.key, site, start, self.env.now,
            local, True, 0, run,
        )
        if self._trace_ops:
            self._trace_op("write", entry.key, site, start, local)
        return stored

    def read(
        self,
        site: str,
        key: str,
        require_found: bool = False,
        run: str = "",
    ) -> Generator:
        """Process: look up ``key`` from a node at ``site``.

        ``require_found`` is the workflow-dependency mode: the entry is
        known to exist globally (a producer task published it), so a
        miss means "not visible *here yet*" and the strategy polls with
        exponential backoff until visibility or retry exhaustion.
        Returns the entry, or ``None`` on a plain (allowed) miss.
        """
        start = self.env.now
        if self.config.client_overhead > 0:
            yield self.config.client_overhead
        retries = 0
        while True:
            entry, local = yield from self._do_read(site, key)
            if entry is not None or not require_found:
                break
            if retries >= self.config.read_max_retries:
                raise ReadMissError(key, site, retries)
            delay = min(
                self.config.read_retry_max_delay,
                self.config.read_retry_interval
                * (self.config.read_retry_backoff**retries),
            )
            yield delay
            retries += 1
        self.stats.record(
            OpKind.READ, key, site, start, self.env.now,
            local, entry is not None, retries, run,
        )
        if self._trace_ops:
            self._trace_op("read", key, site, start, local, retries)
        return entry

    def delete(self, site: str, key: str, run: str = "") -> Generator:
        """Process: remove ``key``'s metadata (rarely used by workflows)."""
        start = self.env.now
        existed, local = yield from self._do_delete(site, key)
        self.stats.record(
            OpKind.DELETE, key, site, start, self.env.now,
            local, existed, 0, run,
        )
        if self._trace_ops:
            self._trace_op("delete", key, site, start, local)
        return existed

    # -- hooks for subclasses ----------------------------------------------------------

    def _do_write(self, site: str, entry: RegistryEntry) -> Generator:
        """Yield the write protocol; return ``(stored_entry, was_local)``."""
        raise NotImplementedError

    def _do_read(self, site: str, key: str) -> Generator:
        """Yield the read protocol; return ``(entry_or_None, was_local)``."""
        raise NotImplementedError

    def _do_delete(self, site: str, key: str) -> Generator:
        raise NotImplementedError

    # -- shared building blocks ------------------------------------------------------

    def _client_write(
        self,
        from_site: str,
        registry: MetadataRegistry,
        entry: RegistryEntry,
    ) -> Generator:
        """The paper's write protocol against one registry instance:
        existence-check read, then the actual put."""
        if self.config.write_lookup:
            existing = yield from registry.rpc_get(
                self.network, from_site, entry.key
            )
            if existing is not None:
                entry = existing.merged_with(entry)
        stored = yield from registry.rpc_put(self.network, from_site, entry)
        return stored

    def shutdown(self) -> None:
        """Stop background processes (agents, pumps).  Default: none."""

    def flush(self) -> Generator:
        """Process: wait until all deferred propagation has drained.

        Default implementation returns immediately; strategies with lazy
        machinery override it.  Useful at the end of experiments before
        asserting global visibility.
        """
        return
        yield  # pragma: no cover - makes this a generator

    # -- introspection ----------------------------------------------------------------

    def registry_for_display(self) -> Dict[str, int]:
        """Entries per registry instance (diagnostics)."""
        return {site: len(reg) for site, reg in self.registries.items()}

    def total_entries(self) -> int:
        return sum(len(reg) for reg in self.registries.values())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} sites={self.sites}>"
