"""Tunables of the metadata service, with calibrated defaults.

Defaults are calibrated so the simulated service reproduces the *shapes*
of the paper's figures (the ``[ok]``/``[MISS]`` checks ``repro.cli
figures`` prints; see the README's Quick start): a single registry
instance saturates in the low hundreds of ops/s (the Fig. 5/7
centralized bottleneck), remote ops cost 1-2 orders of magnitude more
than local ones (Fig. 1), and the sync agent of the replicated strategy
falls behind past ~32 nodes (Fig. 7/8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.checks import check_bool, check_number
from repro.util.units import MS

__all__ = ["MetadataConfig"]

#: ``(field, minimum)`` for every numeric bound ``validate()`` checks;
#: ``None`` means the value must be positive.
_BOUNDS = (
    ("service_time", None),
    ("service_concurrency", None),
    ("client_overhead", 0),
    ("merge_entry_time", 0),
    ("sync_period", None),
    ("replication_flush_interval", None),
    ("replication_batch_size", None),
    ("read_max_retries", 0),
    ("read_retry_backoff", 1),
    ("virtual_nodes", None),
    ("read_retry_interval", 0),
)


@dataclass
class MetadataConfig:
    """Configuration shared by all strategies.

    Strategy and registry knobs only: the placement policy, admission
    control and transfer weight of a run are built from its scenario
    spec (``repro.scenario.runner``).

    Attributes
    ----------
    service_time:
        Registry-side processing time of one basic cache operation
        (get/put), seconds.  An Azure Managed Cache Basic instance
        handled on the order of a few hundred ops/s.
    client_overhead:
        Client-side per-operation cost (SDK serialization, web-service
        envelope) paid before the protocol's first RPC.  Calibrated so
        per-op floors approach the paper's measured per-op times.
    service_concurrency:
        Concurrent requests one registry instance can process.
    merge_entry_time:
        Per-entry cost of applying a batched merge at a registry (batch
        puts are cheaper per entry than individual client puts).
    entry_size:
        Serialized size of one registry entry on the wire, bytes.
    request_size / response_size:
        Fixed envelope sizes for metadata RPCs, bytes.
    sync_period:
        Replicated strategy: the synchronization agent's polling period.
    hybrid_sync_replication:
        Hybrid strategy write mode.  ``False`` (default) is the Section
        III-D lazy scheme: the home-site copy is propagated
        asynchronously in batches (low write latency, an
        eventual-visibility window at the home site).  ``True`` follows
        the Section IV-D prototype narrative instead: store locally,
        then synchronously store at the DHT home before the write
        completes.  The Fig. 10 experiment uses the synchronous mode
        (it reproduces the paper's modest workflow-level gains); the
        ablation bench compares both.
    replication_flush_interval / replication_batch_size:
        Lazy hybrid mode only: replicas are pushed to their DHT home
        either every ``flush_interval`` seconds or as soon as
        ``batch_size`` updates accumulate, whichever first.
    read_retry_interval / read_retry_backoff / read_retry_max_delay /
    read_max_retries:
        Polling behaviour when a read *requires* the entry (workflow
        dependency) but the responsible instance does not have it yet
        (e.g. not yet synchronized).  Exponential backoff capped at
        ``read_retry_max_delay`` per attempt, bounded attempts.
    virtual_nodes:
        Virtual nodes per site on the consistent hash ring.
    write_lookup:
        Where the existence-check read of a write happens (Section IV:
        "a write operation actually consists of a look-up read ...
        followed by the actual write").  ``False`` (default): the check
        is part of the server-side upsert, one RPC per write.  ``True``:
        the client issues an explicit look-up RPC first, doubling the
        WAN cost of remote writes (ablation knob).
    home_site:
        Site hosting the centralized registry / the sync agent; default
        (None) is the first site of the deployment.
    """

    service_time: float = 3 * MS
    service_concurrency: int = 1
    client_overhead: float = 50 * MS
    merge_entry_time: float = 1 * MS
    entry_size: int = 256
    request_size: int = 128
    response_size: int = 256

    sync_period: float = 2.0
    hybrid_sync_replication: bool = False
    replication_flush_interval: float = 0.25
    replication_batch_size: int = 64

    read_retry_interval: float = 0.25
    read_retry_backoff: float = 1.5
    read_retry_max_delay: float = 2.0
    read_max_retries: int = 600

    virtual_nodes: int = 64
    write_lookup: bool = False
    home_site: Optional[str] = None

    def validate(self) -> None:
        for name, minimum in _BOUNDS:
            check_number(name, getattr(self, name), minimum)
        check_number(
            "read_retry_max_delay",
            self.read_retry_max_delay,
            minimum=self.read_retry_interval,
        )
        check_bool("hybrid_sync_replication", self.hybrid_sync_replication)
        check_bool("write_lookup", self.write_lookup)
