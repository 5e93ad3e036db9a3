"""Seed-compatibility regression: the slot model is frozen bit-for-bit.

``bandwidth_model="slots"`` is the repo's default *because* it
reproduces the calibrated seed experiments exactly -- same RNG draw
sequence, same timings.  The golden values below were captured from the
pre-hierarchical-fair-share code (PR 1 state) on the Fig. 5/Fig. 7
workload shapes at fast-profile sizes; any drift means the slots path
picked up an accidental behavioural change and MUST be investigated,
not re-pinned casually.

Comparisons are exact (``==`` on floats, no approx): the simulator is
deterministic, so bit-for-bit equality is the contract.
"""

import pytest

# -- Engine placement: the default locality scheduler is frozen ------------
# Captured from the pre-scheduling-subsystem code (PR 2 state): Montage
# (20 ops/task, compute 0.5 s) on 16 nodes / seed 7 with the Fig. 10
# config, and a scatter fan-out on 8 nodes / seed 3.  The pluggable
# scheduler refactor extracted the locality heuristic verbatim, so the
# default path must keep producing these exact timings.
ENGINE_GOLDEN = {
    "centralized": {
        "makespan": 49.1149125837486,
        "transfer_time": 13.384527626447177,
    },
    "hybrid": {
        "makespan": 37.09831016257363,
        "transfer_time": 13.367754402254963,
    },
}
SCATTER_GOLDEN = {
    "makespan": 3.1646302894735587,
    "transfer_time": 0.3609876345000347,
    "tasks_per_site": {
        "east-us": 3,
        "north-europe": 3,
        "south-central-us": 3,
        "west-europe": 4,
    },
}

# -- Fig. 5 shape: mean node execution time per strategy ------------------
# 8 nodes, 40 ops/node, seed 0 (fast-profile scale of the 32-node runs).
FIG5_GOLDEN = {
    "centralized": {
        "makespan": 6.984300422220034,
        "mean_node_time": 4.409804869609512,
        "throughput": 45.817044035211275,
    },
    "decentralized": {
        "makespan": 4.86966660567183,
        "mean_node_time": 4.559069175558852,
        "throughput": 65.71291751827272,
    },
    "hybrid": {
        "makespan": 5.287786898349161,
        "mean_node_time": 3.3642357982316744,
        "throughput": 60.516810936519306,
    },
}

# -- Fig. 7 shape: centralized throughput vs node count -------------------
# 40 ops/node, seed 7.
FIG7_GOLDEN = {
    8: {"throughput": 45.76507638475873, "makespan": 6.992231309955171},
    16: {"throughput": 91.02618808692992, "makespan": 7.030943659738894},
}


@pytest.mark.parametrize("strategy", sorted(FIG5_GOLDEN))
def test_fig5_slots_results_bit_for_bit(strategy, run_synthetic):
    golden = FIG5_GOLDEN[strategy]
    run = run_synthetic(strategy, n_nodes=8, ops_per_node=40, seed=0)
    assert run.makespan == golden["makespan"]
    assert run.mean_node_time == golden["mean_node_time"]
    assert run.throughput == golden["throughput"]


@pytest.mark.parametrize("n_nodes", sorted(FIG7_GOLDEN))
def test_fig7_slots_results_bit_for_bit(n_nodes, run_synthetic):
    golden = FIG7_GOLDEN[n_nodes]
    run = run_synthetic(
        "centralized", n_nodes=n_nodes, ops_per_node=40, seed=7
    )
    assert run.throughput == golden["throughput"]
    assert run.makespan == golden["makespan"]


def _run_montage(strategy, scheduler=None):
    from repro.cloud.deployment import Deployment
    from repro.metadata.config import MetadataConfig
    from repro.metadata.controller import ArchitectureController
    from repro.workflow.applications import montage
    from repro.workflow.engine import WorkflowEngine

    dep = Deployment(n_nodes=16, seed=7)
    cfg = MetadataConfig(home_site="east-us", hybrid_sync_replication=True)
    ctrl = ArchitectureController(dep, strategy=strategy, config=cfg)
    engine = WorkflowEngine(dep, ctrl.strategy, scheduler=scheduler)
    res = engine.run(montage(ops_per_task=20, compute_time=0.5))
    ctrl.shutdown()
    return res


@pytest.mark.parametrize("strategy", sorted(ENGINE_GOLDEN))
def test_engine_locality_default_bit_for_bit(strategy):
    golden = ENGINE_GOLDEN[strategy]
    res = _run_montage(strategy)
    assert res.makespan == golden["makespan"]
    assert res.total_transfer_time == golden["transfer_time"]


def test_engine_explicit_locality_matches_default():
    """Pinning scheduler="locality" must equal the unpinned default."""
    default = _run_montage("hybrid")
    pinned = _run_montage("hybrid", scheduler="locality")
    assert pinned.makespan == default.makespan
    assert [r.vm for r in pinned.task_results] == [
        r.vm for r in default.task_results
    ]


def test_engine_scatter_placement_bit_for_bit():
    from repro.cloud.deployment import Deployment
    from repro.metadata.controller import ArchitectureController
    from repro.workflow.engine import WorkflowEngine
    from repro.workflow.patterns import scatter

    dep = Deployment(n_nodes=8, seed=3)
    ctrl = ArchitectureController(dep, strategy="decentralized")
    engine = WorkflowEngine(dep, ctrl.strategy)
    res = engine.run(scatter(12, compute_time=0.25, extra_ops=6))
    ctrl.shutdown()
    assert res.makespan == SCATTER_GOLDEN["makespan"]
    assert res.total_transfer_time == SCATTER_GOLDEN["transfer_time"]
    assert res.tasks_per_site() == SCATTER_GOLDEN["tasks_per_site"]


def test_engine_run_tagging_is_timing_neutral():
    """Op-run tagging and the tag-filtered ops snapshot (the multi-
    tenant attribution refactor) must not perturb a single run: an
    explicitly tagged execute() reproduces the locality goldens
    bit-for-bit, and its snapshot covers the whole run."""
    from repro.cloud.deployment import Deployment
    from repro.metadata.config import MetadataConfig
    from repro.metadata.controller import ArchitectureController
    from repro.workflow.applications import montage
    from repro.workflow.engine import WorkflowEngine

    dep = Deployment(n_nodes=16, seed=7)
    cfg = MetadataConfig(home_site="east-us", hybrid_sync_replication=True)
    ctrl = ArchitectureController(dep, strategy="hybrid", config=cfg)
    engine = WorkflowEngine(dep, ctrl.strategy)
    wf = montage(ops_per_task=20, compute_time=0.5)
    proc = dep.env.process(engine.execute(wf, run="golden-run"))
    res = dep.env.run(until=proc)
    ctrl.shutdown()
    golden = ENGINE_GOLDEN["hybrid"]
    assert res.makespan == golden["makespan"]
    assert res.total_transfer_time == golden["transfer_time"]
    assert res.run == "golden-run"
    # The tag-filtered snapshot is exactly the global record list (one
    # run, nothing lost to the filter).
    assert len(res.ops.records) == len(ctrl.strategy.stats.records)


def test_namespaced_workflow_preserves_structure_exactly():
    """File-key namespacing rewrites names only: DAG shape, sizes, op
    counts and compute times are untouched (what the concurrent-tenant
    isolation relies on)."""
    from repro.workflow.applications import montage

    wf = montage(ops_per_task=20, compute_time=0.5)
    ns = wf.namespaced("tenant-x/0")
    assert len(ns) == len(wf)
    assert ns.total_metadata_ops == wf.total_metadata_ops
    assert ns.total_compute_time == wf.total_compute_time
    assert ns.critical_path_time() == wf.critical_path_time()
    assert [t.task_id for t in ns.topological_order()] == [
        f"tenant-x/0/{t.task_id}" for t in wf.topological_order()
    ]


def test_explicit_slots_config_matches_default():
    """Pinning the slot model must not disturb the slots RNG sequence."""
    spec = _synthetic_spec("hybrid", 8, 40, 0)
    default = spec.run().result
    pinned = spec.replace(**{"network.bandwidth_model": "slots"}).run().result
    assert pinned.makespan == default.makespan
    assert pinned.node_times == default.node_times


# -- Declarative scenario path: spec-driven == direct-args, bit for bit ----
# The repro.scenario API redesign must be a pure re-plumbing: a run
# described by a ScenarioSpec issues exactly the calls the direct-args
# plumbing made, pinned here against the same golden values.


def _synthetic_spec(strategy, n_nodes, ops_per_node, seed):
    from repro.scenario import ScenarioSpec, StrategySpec

    return ScenarioSpec(
        surface="synthetic",
        strategy=StrategySpec(name=strategy),
        ops_per_node=ops_per_node,
        n_nodes=n_nodes,
        seed=seed,
    )


@pytest.mark.parametrize("strategy", sorted(FIG5_GOLDEN))
def test_fig5_spec_path_bit_for_bit(strategy):
    golden = FIG5_GOLDEN[strategy]
    run = _synthetic_spec(strategy, 8, 40, 0).run().result
    assert run.makespan == golden["makespan"]
    assert run.mean_node_time == golden["mean_node_time"]
    assert run.throughput == golden["throughput"]


@pytest.mark.parametrize("n_nodes", sorted(FIG7_GOLDEN))
def test_fig7_spec_path_bit_for_bit(n_nodes):
    golden = FIG7_GOLDEN[n_nodes]
    run = _synthetic_spec("centralized", n_nodes, 40, 7).run().result
    assert run.throughput == golden["throughput"]
    assert run.makespan == golden["makespan"]


@pytest.mark.parametrize("strategy", sorted(ENGINE_GOLDEN))
def test_engine_spec_path_bit_for_bit(strategy):
    """The montage engine golden (home_site + sync replication pinned
    through StrategySpec) driven entirely through ScenarioSpec.run."""
    from repro.scenario import ScenarioSpec, StrategySpec

    golden = ENGINE_GOLDEN[strategy]
    spec = ScenarioSpec(
        surface="workflow",
        application="montage",
        ops_per_task=20,
        compute_time=0.5,
        strategy=StrategySpec(
            name=strategy,
            home_site="east-us",
            hybrid_sync_replication=True,
        ),
        n_nodes=16,
        seed=7,
    )
    res = spec.run()
    assert res.scheduler == "locality"
    assert res.result.makespan == golden["makespan"]
    assert res.result.total_transfer_time == golden["transfer_time"]


def test_engine_scatter_spec_path_bit_for_bit(tmp_path):
    """The locality placement golden via the spec path (the DAG saved
    and run through ``workflow_file``)."""
    from repro.scenario import ScenarioSpec, StrategySpec
    from repro.workflow.patterns import scatter
    from repro.workflow.serialization import save_workflow

    path = tmp_path / "scatter.json"
    save_workflow(scatter(12, compute_time=0.25, extra_ops=6), path)
    spec = ScenarioSpec(
        surface="workflow",
        strategy=StrategySpec(name="decentralized"),
        workflow_file=str(path),
        n_nodes=8,
        seed=3,
    )
    res = spec.run()
    assert res.result.makespan == SCATTER_GOLDEN["makespan"]
    assert res.result.total_transfer_time == SCATTER_GOLDEN["transfer_time"]
    assert res.result.tasks_per_site() == SCATTER_GOLDEN["tasks_per_site"]


def test_dump_spec_round_trip_reproduces_run(tmp_path):
    """A spec serialized to JSON and reloaded reproduces the original
    spec-driven result exactly (the --dump-spec/--spec contract)."""
    from repro.scenario import ScenarioSpec

    spec = _synthetic_spec("hybrid", 8, 40, 0)
    path = tmp_path / "spec.json"
    spec.save(path)
    reloaded = ScenarioSpec.load(path)
    assert reloaded == spec
    direct = spec.run().result
    replayed = reloaded.run().result
    assert replayed.makespan == direct.makespan
    assert replayed.node_times == direct.node_times
    assert direct.makespan == FIG5_GOLDEN["hybrid"]["makespan"]
