"""Pluggable multi-site task scheduling.

Turns the workflow engine's placement step into a swappable
:class:`PlacementPolicy`: five concrete policies (``round_robin``,
``locality`` -- the bit-for-bit-compatible default -- ``load_balanced``,
``bandwidth_aware`` and ``hybrid``) observe the cluster through a
:class:`ClusterView`.  A run names its policy, with the policy's
knobs, in the scenario spec's ``SchedulerSpec`` (``--set
scheduler.name=NAME`` on the CLI); ``repro.scenario`` builds it and
hands it to the engine.  Direct
engine users pass a policy or a name for :func:`make_scheduler`.

See ``docs/scheduling.md`` for policy semantics, knobs and guidance.
"""

from repro.scheduling.base import ClusterView, PlacementPolicy, TenantContext
from repro.scheduling.policies import (
    BandwidthAwarePolicy,
    HybridPolicy,
    LoadBalancedPolicy,
    LocalityPolicy,
    RoundRobinPolicy,
    SCHEDULERS,
    SCHEDULER_NAMES,
    make_scheduler,
)

__all__ = [
    "BandwidthAwarePolicy",
    "ClusterView",
    "HybridPolicy",
    "LoadBalancedPolicy",
    "LocalityPolicy",
    "PlacementPolicy",
    "RoundRobinPolicy",
    "SCHEDULERS",
    "SCHEDULER_NAMES",
    "TenantContext",
    "make_scheduler",
]
