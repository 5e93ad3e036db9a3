"""Lazy update propagation and eventual-consistency machinery.

Two propagation mechanisms, one per strategy family:

- :class:`SyncAgent` (replicated strategy, Section IV-B): a single
  dedicated worker that *sequentially* polls every registry instance for
  updates and pushes the merged set to all other instances.  Being a
  lone sequential agent is exactly what makes it a bottleneck past ~32
  nodes (Fig. 7) -- the model preserves that by running the poll/push
  loop as one process whose RPCs serialize.
- :class:`ReplicationPump` (hybrid strategy, Section IV-D): per-site
  queues of freshly written entries, flushed in batches to each entry's
  DHT home site ("lazy metadata updates ... asynchronously propagating
  metadata updates to all replicas after the updates are performed on
  one replica", Section III-D).

:class:`ConsistencyTracker` measures the *inconsistency window*: the
time between an entry's creation and the moment it becomes visible at
every responsible instance.  The paper argues this window is harmless
for workflow workloads; ``tests/integration/test_end_to_end.py``
bounds it for the replicated strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.sim import Environment, Store
from repro.cloud.network import Network
from repro.metadata.config import MetadataConfig
from repro.metadata.entry import RegistryEntry
from repro.metadata.registry import MetadataRegistry

__all__ = ["ConsistencyTracker", "ReplicationPump", "SyncAgent"]


class ConsistencyTracker:
    """Records creation -> full-visibility delays per entry."""

    def __init__(self, env: Environment):
        self.env = env
        self._created: Dict[str, float] = {}
        self.windows: List[float] = []

    def on_created(self, key: str) -> None:
        # First write wins: the window is measured from initial creation.
        self._created.setdefault(key, self.env.now)

    def on_fully_visible(self, key: str) -> None:
        created = self._created.pop(key, None)
        if created is not None:
            self.windows.append(self.env.now - created)

    @property
    def pending(self) -> int:
        """Entries created but not yet fully propagated."""
        return len(self._created)

    def mean_window(self) -> float:
        return sum(self.windows) / len(self.windows) if self.windows else 0.0

    def max_window(self) -> float:
        return max(self.windows) if self.windows else 0.0


class SyncAgent:
    """The replicated strategy's single synchronization worker.

    Implemented as an Azure worker role in the paper: "It sequentially
    queries the instances for updates and propagates them to the rest of
    the set."  One full cycle = poll each instance, then push each
    instance's fresh updates to every *other* instance, then sleep out
    the remainder of ``sync_period``.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        registries: Dict[str, MetadataRegistry],
        config: MetadataConfig,
        agent_site: str,
        tracker: Optional[ConsistencyTracker] = None,
    ):
        if agent_site not in registries:
            raise ValueError(f"agent site {agent_site!r} has no registry")
        self.env = env
        self.network = network
        self.registries = registries
        self.config = config
        self.agent_site = agent_site
        self.tracker = tracker
        self._cursors: Dict[str, int] = {site: 0 for site in registries}
        self.cycles = 0
        self.entries_propagated = 0
        self.last_cycle_duration = 0.0
        self._process = env.process(self._run(), name="sync-agent")
        self._stopped = False

    def stop(self) -> None:
        """Stop the agent at the next safe point."""
        self._stopped = True

    # -- the agent loop -----------------------------------------------------------

    def _run(self) -> Generator:
        while not self._stopped:
            cycle_start = self.env.now
            yield from self._one_cycle()
            self.cycles += 1
            self.last_cycle_duration = self.env.now - cycle_start
            # Sleep out the remainder of the period; if the cycle overran
            # (the degradation regime), start the next one immediately.
            remaining = self.config.sync_period - self.last_cycle_duration
            if remaining > 0:
                yield remaining

    def _one_cycle(self) -> Generator:
        """Poll every instance, then propagate deltas to the others."""
        deltas: Dict[str, List[RegistryEntry]] = {}
        for site, registry in self.registries.items():
            updates, new_cursor = yield from self.network.rpc(
                self.agent_site,
                site,
                registry.serve_updates_since(self._cursors[site]),
                request_size=self.config.request_size,
                response_size=self.config.response_size,
            )
            self._cursors[site] = new_cursor
            # Keep only updates originated at this site to avoid echoing
            # merges back and forth forever.
            deltas[site] = [u for u in updates if u.origin_site == site]

        for target_site, registry in self.registries.items():
            batch = [
                entry
                for src_site, entries in deltas.items()
                if src_site != target_site
                for entry in entries
            ]
            if not batch:
                continue
            yield from registry.rpc_merge_batch(
                self.network, self.agent_site, batch
            )
            self.entries_propagated += len(batch)
            # Note: the cursor is deliberately NOT advanced past the
            # merge we just injected -- client writes may have landed at
            # the target concurrently and must be picked up by the next
            # poll.  Echo suppression is handled by the origin-site
            # filter when polling, not by cursor arithmetic.

        if self.tracker is not None:
            for entries in deltas.values():
                for entry in entries:
                    self.tracker.on_fully_visible(entry.key)

    @property
    def lag(self) -> int:
        """Updates accumulated at instances but not yet propagated."""
        return sum(
            reg.cache.log_length - self._cursors[site]
            for site, reg in self.registries.items()
        )


@dataclass
class _PendingReplica:
    entry: RegistryEntry
    target_site: str
    enqueued_at: float


class ReplicationPump:
    """Per-site lazy replication queues for the hybrid strategy.

    Each site runs one pump process.  Writers enqueue freshly created
    entries; the pump groups them by DHT home site and flushes a batch
    whenever ``replication_batch_size`` entries accumulate or
    ``replication_flush_interval`` elapses, whichever comes first.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        site: str,
        registries: Dict[str, MetadataRegistry],
        config: MetadataConfig,
        tracker: Optional[ConsistencyTracker] = None,
    ):
        self.env = env
        self.network = network
        self.site = site
        self.registries = registries
        self.config = config
        self.tracker = tracker
        self._queue: List[_PendingReplica] = []
        self._in_flight = 0
        self._wakeup = Store(env)
        self.batches_flushed = 0
        self.entries_replicated = 0
        self.max_queue_depth = 0
        self._stopped = False
        self._process = env.process(self._run(), name=f"repl-pump-{site}")

    def enqueue(self, entry: RegistryEntry, target_site: str) -> None:
        """Schedule ``entry`` for delivery to its DHT home site."""
        if target_site == self.site:
            raise ValueError("local entries need no replication")
        self._queue.append(
            _PendingReplica(entry, target_site, self.env.now)
        )
        self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        if len(self._queue) >= self.config.replication_batch_size:
            # Nudge the pump if it is sleeping on the flush interval.
            if len(self._wakeup.items) == 0:
                self._wakeup.put(True)

    def stop(self) -> None:
        self._stopped = True
        if len(self._wakeup.items) == 0:
            self._wakeup.put(True)

    @property
    def backlog(self) -> int:
        """Entries awaiting delivery, including batches in flight."""
        return len(self._queue) + self._in_flight

    def _run(self) -> Generator:
        while not self._stopped:
            # Wait for either the flush interval or a batch-full nudge.
            timeout = self.env.timeout(self.config.replication_flush_interval)
            nudge = self._wakeup.get()
            yield timeout | nudge
            if not nudge.triggered:
                nudge.cancel()
            if self._queue:
                yield from self._flush()
        # Drain on shutdown so no update is lost.
        if self._queue:
            yield from self._flush()

    def _flush(self) -> Generator:
        """Send all queued entries, one batch RPC per destination site."""
        pending, self._queue = self._queue, []
        self._in_flight += len(pending)
        by_target: Dict[str, List[_PendingReplica]] = {}
        for item in pending:
            by_target.setdefault(item.target_site, []).append(item)
        for target_site, items in sorted(by_target.items()):
            registry = self.registries[target_site]
            yield from registry.rpc_merge_batch(
                self.network, self.site, [i.entry for i in items]
            )
            self.batches_flushed += 1
            self.entries_replicated += len(items)
            self._in_flight -= len(items)
            if self.tracker is not None:
                for i in items:
                    self.tracker.on_fully_visible(i.entry.key)
