"""A provisioned multi-site deployment: env + topology + network + VMs.

This is the object an experiment sets up once and hands to the metadata
controller and the workflow engine.  It mirrors the paper's deployment
unit (a set of VMs launched at once across the chosen datacenters) and
enforces the per-site core limit that motivates multi-site execution in
the first place.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim import Environment
from repro.cloud.network import Network
from repro.cloud.topology import CloudTopology, Datacenter
from repro.cloud.vm import VMRole, VMSize, VirtualMachine
from repro.cloud.presets import AZURE_SMALL_VM, azure_4dc_topology
from repro.util.rng import RngStreams

__all__ = ["Deployment"]


class Deployment:
    """Environment, topology, network and a fleet of worker VMs.

    Parameters
    ----------
    topology:
        Site layout; defaults to the paper's 4-DC Azure testbed.
    n_nodes:
        Number of worker VMs, distributed round-robin across sites (the
        paper keeps nodes "evenly distributed in our datacenters").
    seed:
        Master seed for all random streams of this deployment.
    bandwidth_model:
        WAN bandwidth sharing model: ``"slots"`` (concurrency-capped,
        full bandwidth per transfer -- the original model) or ``"fair"``
        (flow-level hierarchical max-min fair sharing).  See
        ``docs/network-model.md``.
    site_egress_bw / site_ingress_bw:
        Fair model only: cap every site's aggregate outbound/inbound WAN
        bandwidth (bytes/second); ``None`` leaves the topology's
        per-site caps untouched (uncapped by default).  Per-site values
        can be set directly via
        :meth:`CloudTopology.set_site_caps <repro.cloud.topology.CloudTopology.set_site_caps>`.
        Note: like the fault injectors' latency edits, the caps mutate
        the (possibly caller-supplied) topology *in place* and are read
        live at every rebalance -- build a fresh topology per deployment
        (or pass ``topology.copy()``, see
        :meth:`CloudTopology.copy <repro.cloud.topology.CloudTopology.copy>`)
        when comparing capped vs uncapped runs.  The declarative
        scenario layer (``repro.scenario``) always builds a fresh
        topology per run for exactly this reason.
    rpc_flow_weight:
        Fair model only: weight of metadata RPC flows relative to bulk
        transfers (weight 1.0) at shared bottlenecks.
    """

    def __init__(
        self,
        topology: Optional[CloudTopology] = None,
        n_nodes: int = 32,
        vm_size: Optional[VMSize] = None,
        seed: int = 0,
        env: Optional[Environment] = None,
        bandwidth_model: str = "slots",
        site_egress_bw: Optional[float] = None,
        site_ingress_bw: Optional[float] = None,
        rpc_flow_weight: float = 1.0,
    ):
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.env = env or Environment()
        self.topology = topology or azure_4dc_topology()
        if site_egress_bw is not None or site_ingress_bw is not None:
            for dc in self.topology:
                self.topology.set_site_caps(
                    dc.name,
                    egress_bw=site_egress_bw,
                    ingress_bw=site_ingress_bw,
                )
        self.rng = RngStreams(seed=seed)
        self.network = Network(
            self.env,
            self.topology,
            rng=self.rng,
            bandwidth_model=bandwidth_model,
            rpc_weight=rpc_flow_weight,
        )
        self.vm_size = vm_size or AZURE_SMALL_VM
        self.workers: List[VirtualMachine] = []
        self._workers_by_site: Dict[str, List[VirtualMachine]] = {
            dc.name: [] for dc in self.topology
        }
        # Elastic-fleet bookkeeping (repro.elastic): VMs mid-drain (no
        # longer placeable, still finishing work), retired VMs with
        # their decommission times (the vm-seconds cost ledger), and
        # fleet-change listeners (the workflow engine registers one so
        # its load map tracks additions/removals).
        self._draining: List[VirtualMachine] = []
        self._retired: List[Tuple[VirtualMachine, float]] = []
        self._fleet_listeners: List[
            Callable[
                [Sequence[VirtualMachine], Sequence[VirtualMachine]], None
            ]
        ] = []
        sites = list(self.topology)
        for i in range(n_nodes):
            dc = sites[i % len(sites)]
            self._check_core_limit(dc)
            vm = VirtualMachine(
                self.env,
                name=f"worker-{i}",
                datacenter=dc,
                size=self.vm_size,
                role=VMRole.WORKER,
            )
            self.workers.append(vm)
            self._workers_by_site[dc.name].append(vm)
        # Control node lives at the first site, like the paper's Web Role.
        self.control_node = VirtualMachine(
            self.env,
            name="control",
            datacenter=sites[0],
            size=self.vm_size,
            role=VMRole.CONTROL,
        )
        self._next_worker_id = n_nodes

    def _check_core_limit(self, dc: Datacenter) -> None:
        # Draining VMs no longer take placements but still hold their
        # cores until retired, so they count against the cap.
        used = sum(
            vm.size.cores for vm in self._workers_by_site[dc.name]
        ) + sum(
            vm.size.cores for vm in self._draining if vm.site == dc.name
        )
        if used + self.vm_size.cores > dc.core_limit:
            raise ValueError(
                f"Core limit exceeded at {dc.name}: the cloud provider caps "
                f"{dc.core_limit} cores per deployment (use more sites)"
            )

    # -- elastic fleet lifecycle (repro.elastic) -------------------------

    def add_fleet_listener(
        self,
        callback: Callable[
            [Sequence[VirtualMachine], Sequence[VirtualMachine]], None
        ],
    ) -> None:
        """Register ``callback(added, removed)`` for fleet changes.

        Fired synchronously by :meth:`add_vms` / :meth:`drain_vms`; with
        no autoscaler attached it never fires, so registration alone is
        free.
        """
        self._fleet_listeners.append(callback)

    def add_vms(
        self,
        site: str,
        count: int = 1,
        warm_s: float = 0.0,
        warmup_factor: float = 1.0,
    ) -> List[VirtualMachine]:
        """Provision ``count`` worker VMs at ``site``, placeable at once.

        The new VMs run degraded (compute stretched by
        ``warmup_factor``) until ``env.now + warm_s``.  Respects the
        site's provider core cap; the caller models provisioning lag by
        delaying this call, not by passing future times.
        """
        if count <= 0:
            raise ValueError(f"add_vms needs a positive count, got {count}")
        dc = self.topology.get(site)
        added: List[VirtualMachine] = []
        for _ in range(count):
            self._check_core_limit(dc)
            vm = VirtualMachine(
                self.env,
                name=f"worker-{self._next_worker_id}",
                datacenter=dc,
                size=self.vm_size,
                role=VMRole.WORKER,
            )
            self._next_worker_id += 1
            vm.warm_at = self.env.now + warm_s
            vm.warmup_factor = warmup_factor
            self.workers.append(vm)
            self._workers_by_site[site].append(vm)
            added.append(vm)
        for listener in self._fleet_listeners:
            listener(added, ())
        return added

    def drain_vms(self, site: str, count: int = 1) -> List[VirtualMachine]:
        """Start draining ``count`` workers at ``site`` (newest first).

        A draining VM leaves the placeable fleet immediately -- no new
        tasks land on it -- but keeps running whatever is already placed
        (work is never stranded).  Call :meth:`retire_vm` once its last
        task finishes to close its cost ledger entry.  Refuses to drain
        more VMs than the site hosts or to empty the fleet entirely.
        """
        if count <= 0:
            raise ValueError(f"drain_vms needs a positive count, got {count}")
        pool = self._workers_by_site[site]  # KeyError on unknown site
        if count > len(pool):
            raise ValueError(
                f"cannot drain {count} VMs at {site}: only {len(pool)} there"
            )
        if count >= len(self.workers):
            raise ValueError(
                "cannot drain the entire fleet: at least one placeable "
                "worker must remain"
            )
        drained = pool[-count:]
        del pool[-count:]
        for vm in drained:
            vm.draining = True
            self.workers.remove(vm)
            self._draining.append(vm)
        for listener in self._fleet_listeners:
            listener((), drained)
        return drained

    def retire_vm(self, vm: VirtualMachine) -> None:
        """Decommission a fully drained VM (stops its vm-seconds meter)."""
        if vm not in self._draining:
            raise ValueError(f"{vm.name} is not draining")
        self._draining.remove(vm)
        self._retired.append((vm, self.env.now))

    @property
    def draining(self) -> List[VirtualMachine]:
        """VMs mid-drain: unplaceable, still finishing placed tasks."""
        return list(self._draining)

    def vm_seconds_by_site(self, now: Optional[float] = None) -> Dict[str, float]:
        """Accumulated worker vm-seconds per site, up to ``now``.

        Active and draining VMs bill from their provision time to
        ``now``; retired VMs bill up to their decommission time.  This
        is the capacity-cost ledger the elastic control plane reports.
        """
        now = self.env.now if now is None else now
        bill: Dict[str, float] = {dc.name: 0.0 for dc in self.topology}
        for vm in self.workers:
            bill[vm.site] += max(0.0, now - vm.provisioned_at)
        for vm in self._draining:
            bill[vm.site] += max(0.0, now - vm.provisioned_at)
        for vm, retired_at in self._retired:
            bill[vm.site] += max(0.0, retired_at - vm.provisioned_at)
        return bill

    def vm_seconds(self, now: Optional[float] = None) -> float:
        """Total accumulated worker vm-seconds (see ``vm_seconds_by_site``)."""
        return sum(self.vm_seconds_by_site(now).values())

    # -- queries ---------------------------------------------------------

    @property
    def sites(self) -> List[str]:
        return [dc.name for dc in self.topology]

    @property
    def n_nodes(self) -> int:
        return len(self.workers)

    def workers_at(self, site: str) -> List[VirtualMachine]:
        """Worker VMs hosted in datacenter ``site``."""
        return list(self._workers_by_site[site])

    def run(self, until=None):
        """Advance the simulation (delegates to the environment).

        Note: strategies run background processes (sync agents,
        replication pumps), so running *to exhaustion* (``until=None``)
        will not terminate while one is active.  Prefer
        :meth:`run_process` or pass an event/time.
        """
        return self.env.run(until)

    def run_process(self, generator, name: str = "main"):
        """Start ``generator`` as a process and run until it finishes.

        The idiomatic way to drive a scenario against a deployment::

            dep.run_process(my_scenario(dep.env))
        """
        proc = self.env.process(generator, name=name)
        return self.env.run(until=proc)

    def __repr__(self) -> str:
        per_site = {
            s: len(v) for s, v in self._workers_by_site.items() if v
        }
        return f"<Deployment {self.n_nodes} workers {per_site}>"
