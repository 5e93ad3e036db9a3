"""Unit and property tests for the placement policies."""

import math

import pytest

from repro.cloud.deployment import Deployment
from repro.cloud.presets import (
    azure_4dc_topology,
    heterogeneous_fanout_topology,
)
from repro.scheduling import (
    ClusterView,
    LocalityPolicy,
    PlacementPolicy,
    RoundRobinPolicy,
    SCHEDULERS,
    SCHEDULER_NAMES,
    make_scheduler,
)
from repro.storage.transfer import TransferService
from repro.storage.filestore import StoredFile
from repro.util.units import MB
from repro.workflow.dag import Task, Workflow, WorkflowFile


def make_cluster(topology=None, n_nodes=8, seed=0, bandwidth_model="slots"):
    dep = Deployment(
        topology=topology or azure_4dc_topology(jitter=False),
        n_nodes=n_nodes,
        seed=seed,
        bandwidth_model=bandwidth_model,
    )
    transfer = TransferService(dep.env, dep.network, dep.sites)
    vm_load = {vm.name: 0 for vm in dep.workers}
    return ClusterView(dep, transfer, vm_load)


def diamond_workflow(file_size=1 * MB):
    """Two producers feeding one consumer -- exercises parent weights."""
    wf = Workflow("diamond")
    a = WorkflowFile("a.dat", size=file_size)
    b = WorkflowFile("b.dat", size=file_size // 4)
    wf.add_task(Task("pa", outputs=[a]))
    wf.add_task(Task("pb", outputs=[b]))
    wf.add_task(Task("join", inputs=[a, b]))
    return wf


class TestRegistry:
    def test_names_and_factories_agree(self):
        assert set(SCHEDULER_NAMES) == set(SCHEDULERS)
        for name in SCHEDULER_NAMES:
            policy = make_scheduler(name)
            assert isinstance(policy, PlacementPolicy)
            assert policy.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("simulated-annealing")

    def test_knob_threading(self):
        hybrid = make_scheduler(
            "hybrid",
            locality_weight=2.0,
            load_weight=0.5,
            transfer_weight=3.0,
            pending_penalty=0.0,
        )
        assert hybrid.locality_weight == 2.0
        assert hybrid.load_weight == 0.5
        assert hybrid.transfer_weight == 3.0
        assert hybrid.pending_penalty == 0.0

    @pytest.mark.parametrize(
        "knob",
        [
            {"pending_penalty": -1.0},
            {"locality_weight": -0.1},
            {"load_weight": -2.0},
            {"transfer_weight": -0.5},
            # NaN passes a "< 0" check and would run to a wrong placement.
            {"pending_penalty": math.nan},
            {"locality_weight": math.nan},
            {"load_weight": math.nan},
            {"transfer_weight": math.inf},
        ],
    )
    def test_negative_knobs_rejected(self, knob):
        with pytest.raises(ValueError):
            make_scheduler("hybrid", **knob)


class TestPlacementProperties:
    """Every policy must return a worker VM at a valid site -- across
    topologies, fleet sizes, load states and parent-site combinations."""

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    @pytest.mark.parametrize(
        "topology_fn, n_nodes",
        [
            (azure_4dc_topology, 8),
            (azure_4dc_topology, 5),  # uneven fleet
            (heterogeneous_fanout_topology, 3),  # one site has no workers
            (heterogeneous_fanout_topology, 12),
        ],
    )
    def test_place_returns_valid_worker(self, name, topology_fn, n_nodes):
        if topology_fn is azure_4dc_topology:
            cluster = make_cluster(topology_fn(jitter=False), n_nodes)
        else:
            cluster = make_cluster(topology_fn(), n_nodes)
        wf = diamond_workflow()
        join = wf.tasks["join"]
        policy = make_scheduler(name)
        worker_names = {vm.name for vm in cluster.workers}
        sites = set(cluster.sites)
        # Sweep parent-site combinations and evolving load.
        combos = [
            [s1, s2]
            for s1 in cluster.sites
            for s2 in cluster.sites
        ]
        for i, parent_sites in enumerate(combos):
            # Parents' outputs live where the parents ran.
            cluster.transfer.store(
                parent_sites[0], StoredFile("a.dat", 1 * MB, 0.0)
            )
            cluster.transfer.store(
                parent_sites[1], StoredFile("b.dat", 1 * MB // 4, 0.0)
            )
            vm = policy.place(join, wf, parent_sites, cluster)
            assert vm.name in worker_names
            assert vm.site in sites
            policy.on_task_placed(join, vm, cluster)
            cluster.vm_load[vm.name] += 1
            if i % 3 == 2:  # periodically release some load
                busy = max(
                    cluster.vm_load, key=lambda k: cluster.vm_load[k]
                )
                if cluster.vm_load[busy]:
                    cluster.vm_load[busy] -= 1
                policy.on_task_complete(join, vm, cluster)

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_root_tasks_place_on_workers(self, name):
        cluster = make_cluster()
        wf = Workflow("roots")
        worker_names = {vm.name for vm in cluster.workers}
        policy = make_scheduler(name)
        for i in range(20):
            t = wf.add_task(Task(f"r{i}"))
            vm = policy.place(t, wf, [], cluster)
            assert vm.name in worker_names
            cluster.vm_load[vm.name] += 1

    def test_round_robin_is_deterministic_for_fixed_seed(self):
        """Two identical fleets + histories -> identical placements."""

        def sequence():
            cluster = make_cluster(seed=42)
            wf = Workflow("seq")
            policy = RoundRobinPolicy()
            out = []
            for i in range(17):
                t = wf.add_task(Task(f"t{i}"))
                vm = policy.place(t, wf, [], cluster)
                out.append(vm.name)
                cluster.vm_load[vm.name] += 1
            return out

        first, second = sequence(), sequence()
        assert first == second
        # And it is an actual rotation over the fleet.
        n = len(make_cluster(seed=42).workers)
        assert first[:n] == [f"worker-{i}" for i in range(n)]
        assert first[n] == first[0]

    def test_locality_follows_heaviest_parent(self):
        cluster = make_cluster()
        wf = diamond_workflow(file_size=100 * MB)
        policy = LocalityPolicy()
        vm = policy.place(
            wf.tasks["join"], wf, ["east-us", "west-europe"], cluster
        )
        assert vm.site == "east-us"

    def test_load_balanced_prefers_idle_then_data(self):
        cluster = make_cluster()
        policy = make_scheduler("load_balanced")
        wf = diamond_workflow()
        # Saturate every VM except one at the data-light site.
        for vm in cluster.workers:
            cluster.vm_load[vm.name] = 2
        free = cluster.workers_at("south-central-us")[0]
        cluster.vm_load[free.name] = 0
        vm = policy.place(
            wf.tasks["join"], wf, ["east-us", "east-us"], cluster
        )
        assert vm.name == free.name


class TestBandwidthAware:
    def test_avoids_thin_link_for_bulky_inputs(self):
        """With data at the hub and busy hub workers, the policy stages
        over a fat link instead of the nearby thin one."""
        cluster = make_cluster(
            heterogeneous_fanout_topology(), n_nodes=8
        )
        wf = Workflow("bulk")
        src = WorkflowFile("bulk.dat", size=24 * MB)
        wf.add_task(Task("producer", outputs=[src]))
        consumer = wf.add_task(
            Task("consumer", inputs=[src], compute_time=1.0)
        )
        cluster.transfer.store("hub", StoredFile("bulk.dat", 24 * MB, 0.0))
        for vm in cluster.workers_at("hub"):
            cluster.vm_load[vm.name] = 3  # hub saturated
        policy = make_scheduler("bandwidth_aware")
        vm = policy.place(consumer, wf, ["hub"], cluster)
        assert vm.site in ("fat-a", "fat-b")

    @pytest.mark.parametrize("release_hook", ["staged", "complete"])
    def test_pending_ledger_conserved(self, release_hook):
        """Every placement claim is released once inputs finish staging
        (or, as a fallback for failed staging, at task completion)."""
        cluster = make_cluster(
            heterogeneous_fanout_topology(), n_nodes=8
        )
        wf = Workflow("ledger")
        src = WorkflowFile("part.dat", size=10 * MB)
        wf.add_task(Task("p", outputs=[src]))
        cluster.transfer.store("hub", StoredFile("part.dat", 10 * MB, 0.0))
        policy = make_scheduler("bandwidth_aware")
        tasks = [
            wf.add_task(Task(f"c{i}", inputs=[src])) for i in range(6)
        ]
        placed = []
        for t in tasks:
            vm = policy.place(t, wf, ["hub"], cluster)
            policy.on_task_placed(t, vm, cluster)
            cluster.vm_load[vm.name] += 1
            placed.append((t, vm))
        assert policy._pending  # remote placements were claimed
        for t, vm in placed:
            if release_hook == "staged":
                policy.on_inputs_staged(t, vm, cluster)
            cluster.vm_load[vm.name] -= 1
            policy.on_task_complete(t, vm, cluster)
        assert policy._pending == {}
        assert policy._claims == {}

    def test_ledger_clears_at_staging_not_completion(self):
        """The compute phase must not keep phantom pending bytes on the
        links: claims vanish at on_inputs_staged, before completion."""
        cluster = make_cluster(
            heterogeneous_fanout_topology(), n_nodes=8
        )
        wf = Workflow("phases")
        src = WorkflowFile("part.dat", size=10 * MB)
        wf.add_task(Task("p", outputs=[src]))
        cluster.transfer.store("hub", StoredFile("part.dat", 10 * MB, 0.0))
        for vm in cluster.workers_at("hub"):
            cluster.vm_load[vm.name] = 5  # force a remote claim
        policy = make_scheduler("bandwidth_aware")
        t = wf.add_task(Task("c", inputs=[src], compute_time=60.0))
        vm = policy.place(t, wf, ["hub"], cluster)
        policy.on_task_placed(t, vm, cluster)
        assert policy._pending
        policy.on_inputs_staged(t, vm, cluster)
        assert policy._pending == {}  # long compute no longer pollutes
        policy.on_task_complete(t, vm, cluster)  # idempotent
        assert policy._claims == {}

    def test_pending_ledger_spreads_simultaneous_placements(self):
        """Without any open flow, the ledger alone must keep a burst of
        identical placements from stampeding one link."""
        cluster = make_cluster(
            heterogeneous_fanout_topology(), n_nodes=8, seed=1
        )
        wf = Workflow("burst")
        files = []
        for i in range(8):
            f = WorkflowFile(f"part-{i}", size=24 * MB)
            files.append(f)
            cluster.transfer.store(
                "hub", StoredFile(f.name, f.size, 0.0)
            )
        wf.add_task(Task("p", outputs=list(files)))
        for vm in cluster.workers_at("hub"):
            cluster.vm_load[vm.name] = 5  # force remote placement
        policy = make_scheduler("bandwidth_aware")
        sites = []
        for i in range(8):
            t = wf.add_task(
                Task(f"c{i}", inputs=[files[i]], compute_time=1.0)
            )
            vm = policy.place(t, wf, ["hub"], cluster)
            policy.on_task_placed(t, vm, cluster)
            cluster.vm_load[vm.name] += 1
            sites.append(vm.site)
        # Both fat sites used, not a single-link stampede.
        assert {"fat-a", "fat-b"} <= set(sites)
