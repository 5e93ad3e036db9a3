"""Scheduler interface: the placement contract and the cluster view.

The paper's engine scheduler (Section III-D) "takes care to schedule the
task close to the data production nodes".  This package turns that one
hard-coded heuristic into a first-class, swappable axis of the
experiment space: a :class:`PlacementPolicy` decides, for every ready
task, which worker VM runs it, and the workflow engine delegates all
placement to the injected policy -- the same way
``bandwidth_model="slots"|"fair"`` made WAN sharing swappable at the
network layer.

A policy sees the cluster through a :class:`ClusterView`: the deployment
fleet, live per-VM queue depths, the topology's link parameters, the
network's load-aware transfer-time estimator and the storage layer's
file locations.  Everything a policy may consult is deterministic and
RNG-free, so placement never perturbs the simulation's random streams --
two runs with the same seed and policy place identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # typing only: keep the package import-cycle free
    from repro.cloud.deployment import Deployment
    from repro.cloud.vm import VirtualMachine
    from repro.storage.transfer import TransferService
    from repro.workflow.dag import Task, Workflow, WorkflowFile

__all__ = ["ClusterView", "PlacementPolicy", "TenantContext"]


@dataclass(frozen=True)
class TenantContext:
    """Identity of the tenant whose task is being placed.

    ``quota`` is the tenant's admission share where one exists (the
    token-bucket refill rate, or the in-flight cap under semaphore
    admission); ``None`` means uncapped.  Single-workflow runs have no
    tenant, so policies must tolerate ``cluster.placing_tenant is None``.
    """

    name: str
    quota: Optional[float] = None


class ClusterView:
    """What a placement policy is allowed to observe.

    Wraps the deployment (fleet, topology, network) plus the engine's
    live per-VM pending-task counters and the transfer service (for the
    data-side ground truth of where file replicas live).  The view is
    shared between the engine and its policy: load counters mutate as
    tasks start and finish, so concurrent ready tasks placed in sequence
    each see the placements made just before them.
    """

    def __init__(
        self,
        deployment: "Deployment",
        transfer: "TransferService",
        vm_load: Dict[str, int],
    ):
        self.deployment = deployment
        self.transfer = transfer
        #: VM name -> number of tasks currently assigned (running or
        #: staging inputs).  Owned by the engine; policies read it.
        self.vm_load = vm_load
        #: Tenant whose task is being placed *right now*; set by the
        #: engine around each ``place()`` call on the workload surface,
        #: ``None`` on single-workflow runs.
        self.placing_tenant: Optional[TenantContext] = None
        #: Tenant name -> tasks currently in flight (placed, not yet
        #: complete).  Owned by the engine; policies and elasticity
        #: controllers read it for per-tenant backlog visibility.
        self.tenant_load: Dict[str, int] = {}

    # -- fleet -----------------------------------------------------------

    @property
    def env(self):
        return self.deployment.env

    @property
    def network(self):
        return self.deployment.network

    @property
    def topology(self):
        return self.deployment.topology

    @property
    def sites(self) -> List[str]:
        return self.deployment.sites

    @property
    def workers(self) -> List["VirtualMachine"]:
        return self.deployment.workers

    def workers_at(self, site: str) -> List["VirtualMachine"]:
        return self.deployment.workers_at(site)

    # -- load ------------------------------------------------------------

    def load_of(self, vm: "VirtualMachine") -> int:
        return self.vm_load[vm.name]

    def site_load(self, site: str) -> int:
        """Total queued/running tasks across the site's workers."""
        return sum(
            self.vm_load[vm.name] for vm in self.deployment.workers_at(site)
        )

    def idle_vms(self, site: str) -> List["VirtualMachine"]:
        """Workers at ``site`` with no task assigned, name-sorted."""
        return sorted(
            (
                vm
                for vm in self.deployment.workers_at(site)
                if self.vm_load[vm.name] == 0
            ),
            key=lambda vm: vm.name,
        )

    def least_loaded_vm(self, site: str) -> "VirtualMachine":
        """The least-loaded worker at ``site`` (fleet-wide fallback when
        the site hosts none -- tiny deployments), ties broken by name."""
        vms = self.deployment.workers_at(site)
        if not vms:
            vms = self.deployment.workers
        return min(vms, key=lambda vm: (self.vm_load[vm.name], vm.name))

    # -- data ------------------------------------------------------------

    def locations_of(self, file_name: str) -> List[str]:
        """Sites currently holding a replica of ``file_name``."""
        return self.transfer.locations_of(file_name)

    def estimated_transfer_time(
        self, src: str, dst: str, size: int, weight: Optional[float] = None
    ) -> float:
        """Predicted delivery time of ``size`` bytes given current load.

        Under the fair bandwidth model this reflects the share a new
        flow would get *right now* (water-filling with a probe flow, via
        :meth:`FlowNetwork.estimate_rate
        <repro.cloud.flow.FlowNetwork.estimate_rate>`); under the slot
        model it falls back to the static ``latency + size/bandwidth``
        figure.  Jitter-free and RNG-pure either way.  ``weight``
        defaults to the transfer service's bulk-flow weight -- the one
        the engine's fetches will actually ride at.
        """
        if weight is None:
            weight = self.transfer.default_weight
        return self.network.estimated_transfer_time(
            src, dst, size, weight=weight
        )


class PlacementPolicy:
    """Abstract task-placement policy.

    Subclasses implement :meth:`place`; the lifecycle hooks are optional
    and default to no-ops.  Policies may keep internal state (cursors,
    pending-transfer backlogs) but must stay deterministic and RNG-free:
    equal histories must yield equal placements.
    """

    #: Registry name (set by concrete policies).
    name: str = "abstract"

    def place(
        self,
        task: "Task",
        workflow: "Workflow",
        parent_sites: List[str],
        cluster: ClusterView,
    ) -> "VirtualMachine":
        """Pick the worker VM for a ready ``task``.

        ``parent_sites`` are the sites where the task's parents ran,
        index-aligned with ``workflow.parents(task)`` (empty for root
        tasks).  Must return a VM from ``cluster.workers``.
        """
        raise NotImplementedError

    def on_task_placed(
        self,
        task: "Task",
        vm: "VirtualMachine",
        cluster: ClusterView,
    ) -> None:
        """Called right after ``task`` was assigned to ``vm``."""

    def on_inputs_staged(
        self,
        task: "Task",
        vm: "VirtualMachine",
        cluster: ClusterView,
    ) -> None:
        """Called once ``task``'s inputs are materialized at ``vm``'s
        site, before its compute phase."""

    def on_task_complete(
        self,
        task: "Task",
        vm: "VirtualMachine",
        cluster: ClusterView,
    ) -> None:
        """Called when ``task`` finished on ``vm`` (even on failure)."""

    # -- shared helpers ---------------------------------------------------

    @staticmethod
    def input_bytes_by_site(
        task: "Task",
        workflow: "Workflow",
        parent_sites: List[str],
    ) -> Dict[str, float]:
        """Input bytes produced per parent site (the locality weight).

        Mirrors the original engine heuristic: each parent contributes
        the total size of its outputs (floored at one byte, so zero-byte
        producers still vote) to the site it ran at.
        """
        weight: Dict[str, float] = {}
        parents = workflow.parents(task)
        for p, site in zip(parents, parent_sites):
            produced = sum(f.size for f in p.outputs) or 1
            weight[site] = weight.get(site, 0.0) + produced
        return weight

    @staticmethod
    def _source_like_storage(
        sources: List[str], size: int, site: str, cluster: ClusterView
    ) -> str:
        """The replica the storage layer's fetch would pick right now.

        Mirrors ``TransferService._pick_source``: load-aware estimated
        delivery time under the fair bandwidth model, static min-latency
        under slots (where every transfer gets the full link bandwidth,
        so proximity is the whole story).  ``sources`` must be sorted
        for a deterministic tie-break.
        """
        if cluster.network.bandwidth_model == "fair":
            return min(
                sources,
                key=lambda src: cluster.estimated_transfer_time(
                    src, site, size
                ),
            )
        return min(
            sources, key=lambda src: cluster.topology.latency(src, site)
        )

    @classmethod
    def staging_time(
        cls,
        task: "Task",
        site: str,
        cluster: ClusterView,
        pending: Optional[Dict[tuple, float]] = None,
        pending_penalty: float = 1.0,
    ) -> float:
        """Predicted seconds to stage ``task``'s inputs at ``site``.

        For each input the replica source is chosen the way the storage
        layer's fetch will choose it (:meth:`_source_like_storage`), and
        the cost is the estimated delivery time from that source at the
        transfer service's flow weight.  ``pending`` optionally maps a
        directed ``(src, dst)`` site pair to bytes already *committed*
        to that pair by this policy's own recent placements whose
        transfers have not finished staging yet -- scaled by
        ``pending_penalty`` and added to the probe size, so a burst of
        simultaneous placements does not stampede one link before the
        flow network can see any congestion.
        """
        return cls.staging_time_from(
            cls.input_replicas(task, cluster),
            site,
            cluster,
            pending,
            pending_penalty,
        )

    @staticmethod
    def input_replicas(
        task: "Task", cluster: ClusterView
    ) -> List[Tuple["WorkflowFile", List[str]]]:
        """Each of ``task``'s inputs with the sites holding a replica of
        it, sorted (the tie-break order :meth:`_source_like_storage`
        needs)."""
        return [
            (f, sorted(cluster.locations_of(f.name))) for f in task.inputs
        ]

    @classmethod
    def staging_time_from(
        cls,
        replicas: List[Tuple["WorkflowFile", List[str]]],
        site: str,
        cluster: ClusterView,
        pending: Optional[Dict[tuple, float]] = None,
        pending_penalty: float = 1.0,
    ) -> float:
        """:meth:`staging_time` from the task's :meth:`input_replicas`,
        so that one placement resolves them once to score every site."""
        total = 0.0
        for f, sources in replicas:
            if not sources or site in sources:
                continue
            src = cls._source_like_storage(sources, f.size, site, cluster)
            total += cluster.estimated_transfer_time(
                src,
                site,
                f.size
                + (
                    pending_penalty * pending.get((src, site), 0.0)
                    if pending
                    else 0.0
                ),
            )
        return total

    @classmethod
    def best_source(
        cls, file_name: str, size: int, site: str, cluster: ClusterView
    ) -> Optional[str]:
        """The replica site a fetch to ``site`` would most likely use."""
        sources = sorted(cluster.locations_of(file_name))
        if not sources or site in sources:
            return None
        return cls._source_like_storage(sources, size, site, cluster)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
