"""Tenant-aware ClusterView: placement policies can see who they place.

Plumbing-only contract (scheduling decisions stay tenant-blind in this
repo): on the workload surface the engine sets
``ClusterView.placing_tenant`` around each ``place()`` call and keeps
``ClusterView.tenant_load`` live; on the single-workflow surface both
stay empty.
"""

from repro.cloud.deployment import Deployment
from repro.metadata.controller import ArchitectureController
from repro.scheduling import TenantContext
from repro.workflow.engine import WorkflowEngine
from repro.workflow.patterns import scatter
from repro.workload import WorkloadSpec
from repro.workload.runner import WorkloadRunner


def _run_workload_with_probe(monkeypatch):
    dep = Deployment(n_nodes=8, seed=3)
    ctrl = ArchitectureController(dep, strategy="decentralized")
    runner = WorkloadRunner(dep, ctrl.strategy)
    engine = runner.engine

    seen = []
    inner = engine._place

    def probe(workflow, task, parent_sites):
        seen.append(engine.cluster.placing_tenant)
        return inner(workflow, task, parent_sites)

    monkeypatch.setattr(engine, "_place", probe)
    spec = WorkloadSpec.uniform(
        3,
        applications=("scatter",),
        n_instances=1,
        ops_per_task=4,
        compute_time=0.2,
        seed=7,
        name="tenant-probe",
    )
    res = runner.run(spec)
    ctrl.shutdown()
    return res, runner, seen


class TestWorkloadSurface:
    def test_placing_tenant_set_around_every_placement(
        self, monkeypatch
    ):
        res, runner, seen = _run_workload_with_probe(monkeypatch)
        assert res.n_completed == 3
        assert seen, "the probe must observe placements"
        assert all(isinstance(t, TenantContext) for t in seen)
        assert {t.name for t in seen} == set(res.tenants())
        # Unbounded admission surfaces as quota=None.
        assert all(t.quota is None for t in seen)
        # The context is scoped to the place() call, not left dangling.
        assert runner.engine.cluster.placing_tenant is None

    def test_tenant_load_counts_down_to_zero(self, monkeypatch):
        res, runner, _ = _run_workload_with_probe(monkeypatch)
        load = runner.engine.cluster.tenant_load
        # Every tenant passed through the counters and drained out.
        assert set(load) == set(res.tenants())
        assert all(v == 0 for v in load.values())


class TestWorkflowSurface:
    def test_single_workflow_runs_are_tenant_blind(self):
        dep = Deployment(n_nodes=8, seed=3)
        ctrl = ArchitectureController(dep, strategy="decentralized")
        engine = WorkflowEngine(dep, ctrl.strategy)
        engine.run(scatter(4, compute_time=0.2))
        assert engine.cluster.placing_tenant is None
        assert engine.cluster.tenant_load == {}
        ctrl.shutdown()


class TestTenantContext:
    def test_frozen_value_object(self):
        ctx = TenantContext(name="t0", quota=4)
        assert ctx.name == "t0"
        assert ctx.quota == 4
        assert ctx == TenantContext(name="t0", quota=4)
