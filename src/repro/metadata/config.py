"""Tunables of the metadata service, with calibrated defaults.

Defaults are calibrated so the simulated service reproduces the *shapes*
of the paper's figures (see DESIGN.md Section 5): a single registry
instance saturates in the low hundreds of ops/s (the Fig. 5/7
centralized bottleneck), remote ops cost 1-2 orders of magnitude more
than local ones (Fig. 1), and the sync agent of the replicated strategy
falls behind past ~32 nodes (Fig. 7/8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.scheduling import SCHEDULER_NAMES
from repro.util.units import MS

__all__ = ["MetadataConfig"]


@dataclass
class MetadataConfig:
    """Configuration shared by all strategies.

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
    transfer_flow_weight:
        Fair model only: default flow weight of storage-layer bulk
        transfers (data provisioning), folded in from
        ``NetworkSpec.transfer_flow_weight``.  The other WAN settings
        live on ``NetworkSpec`` alone and reach the ``Deployment``
        from there.
    scheduler:
        Task-placement policy the workflow engine uses when an
        experiment builds it from this config: ``None`` (engine
        default, i.e. ``"locality"``) or one of
        ``repro.scheduling.SCHEDULER_NAMES``.  See
        ``docs/scheduling.md``.
    hybrid_locality_weight / hybrid_load_weight / hybrid_transfer_weight:
        ``scheduler="hybrid"`` only: coefficients of the hybrid
        policy's locality, queue-depth and predicted-transfer-time
        terms.
    bw_pending_penalty:
        ``scheduler="bandwidth_aware"`` or ``"hybrid"`` only: scale of
        the pending-bytes ledger that pessimises staging estimates for
        links this policy just committed transfers to (0 disables it).
    admission:
        Admission-control policy the workload runner uses when built
        from this config: ``None`` (runner default, i.e.
        ``"unbounded"``) or one of
        ``repro.workload.ADMISSION_NAMES``.  See ``docs/workloads.md``.
    max_in_flight:
        ``admission="max_in_flight"`` only: the global cap on
        concurrently executing workflows.
    token_rate / token_burst:
        ``admission="token_bucket"`` only: per-tenant admission rate
        (workflows/second) and burst allowance.
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
    transfer_flow_weight: float = 1.0
    scheduler: Optional[str] = None
    hybrid_locality_weight: float = 1.0
    hybrid_load_weight: float = 1.0
    hybrid_transfer_weight: float = 1.0
    bw_pending_penalty: float = 1.0
    admission: Optional[str] = None
    max_in_flight: Optional[int] = None
    token_rate: Optional[float] = None
    token_burst: int = 1

    def validate(self) -> None:
        if self.service_time <= 0:
            raise ValueError("service_time must be positive")
        if self.service_concurrency <= 0:
            raise ValueError("service_concurrency must be positive")
        if self.client_overhead < 0:
            raise ValueError("client_overhead must be >= 0")
        if self.merge_entry_time < 0:
            raise ValueError("merge_entry_time must be >= 0")
        if self.sync_period <= 0:
            raise ValueError("sync_period must be positive")
        if self.replication_flush_interval <= 0:
            raise ValueError("replication_flush_interval must be positive")
        if self.replication_batch_size <= 0:
            raise ValueError("replication_batch_size must be positive")
        if self.read_max_retries < 0:
            raise ValueError("read_max_retries must be >= 0")
        if self.read_retry_backoff < 1.0:
            raise ValueError("read_retry_backoff must be >= 1")
        if self.read_retry_max_delay < self.read_retry_interval:
            raise ValueError(
                "read_retry_max_delay must be >= read_retry_interval"
            )
        if self.virtual_nodes <= 0:
            raise ValueError("virtual_nodes must be positive")
        if self.transfer_flow_weight <= 0:
            raise ValueError("transfer_flow_weight must be positive")
        if self.scheduler is not None and (
            self.scheduler not in SCHEDULER_NAMES
        ):
            raise ValueError(
                f"scheduler must be None or one of {SCHEDULER_NAMES}"
            )
        for label in (
            "hybrid_locality_weight",
            "hybrid_load_weight",
            "hybrid_transfer_weight",
            "bw_pending_penalty",
        ):
            if getattr(self, label) < 0:
                raise ValueError(f"{label} must be >= 0")
        if self.admission is not None:
            # Imported lazily: repro.workload sits above this module in
            # the layering (its runner imports the engine, which imports
            # this config), so a top-level import would be circular.
            from repro.workload.admission import ADMISSION_NAMES

            if self.admission not in ADMISSION_NAMES:
                raise ValueError(
                    f"admission must be None or one of {ADMISSION_NAMES}"
                )
        if self.max_in_flight is not None and self.max_in_flight <= 0:
            raise ValueError("max_in_flight must be positive")
        if self.token_rate is not None and self.token_rate <= 0:
            raise ValueError("token_rate must be positive")
        if self.token_burst < 1:
            raise ValueError("token_burst must be >= 1")
