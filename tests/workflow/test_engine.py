"""Tests for the workflow engine: execution, locality, spill, accounting."""

import pytest

from repro.cloud.deployment import Deployment
from repro.cloud.presets import azure_4dc_topology
from repro.metadata.controller import ArchitectureController
from repro.workflow.dag import Task, Workflow, WorkflowFile
from repro.workflow.engine import WorkflowEngine
from repro.workflow.patterns import gather, pipeline, scatter


@pytest.fixture
def dep():
    return Deployment(
        topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=11
    )


def build_engine(dep, fast_config, strategy="hybrid", **kw):
    ctrl = ArchitectureController(dep, strategy=strategy, config=fast_config)
    return WorkflowEngine(dep, ctrl.strategy, **kw), ctrl


class TestExecution:
    def test_all_tasks_complete(self, dep, fast_config):
        engine, ctrl = build_engine(dep, fast_config)
        wf = scatter(6, compute_time=0.1, extra_ops=4)
        res = engine.run(wf)
        ctrl.shutdown()
        assert len(res.task_results) == len(wf)
        assert res.makespan > 0
        assert res.strategy == "hybrid"

    def test_dependencies_respected(self, dep, fast_config):
        engine, ctrl = build_engine(dep, fast_config)
        wf = pipeline(4, compute_time=0.1)
        res = engine.run(wf)
        ctrl.shutdown()
        finish = {r.task_id: r.finished_at for r in res.task_results}
        start = {r.task_id: r.started_at for r in res.task_results}
        for i in range(1, 4):
            assert start[f"pipeline-{i}"] >= finish[f"pipeline-{i-1}"]

    def test_makespan_at_least_critical_path(self, dep, fast_config):
        engine, ctrl = build_engine(dep, fast_config)
        wf = pipeline(3, compute_time=1.0)
        res = engine.run(wf)
        ctrl.shutdown()
        assert res.makespan >= wf.critical_path_time()

    def test_initial_inputs_materialized(self, dep, fast_config):
        engine, ctrl = build_engine(dep, fast_config)
        wf = Workflow("with-input")
        wf.add_task(
            Task(
                "consume",
                inputs=[WorkflowFile("stage-in.dat", size=1024)],
                compute_time=0.1,
            )
        )
        res = engine.run(wf)
        ctrl.shutdown()
        assert len(res.task_results) == 1

    def test_outputs_published_and_fetchable(self, dep, fast_config):
        engine, ctrl = build_engine(dep, fast_config)
        wf = gather(4, compute_time=0.05)
        res = engine.run(wf)
        ctrl.shutdown()
        # The collect task read every producer's output: data for all
        # five tasks' outputs must exist somewhere.
        assert engine.transfer.total_files() >= 5

    def test_ops_snapshot_only_covers_run(self, dep, fast_config):
        engine, ctrl = build_engine(dep, fast_config)
        res1 = engine.run(pipeline(2, compute_time=0.05, extra_ops=2))
        res2 = engine.run(
            pipeline(2, compute_time=0.05, extra_ops=2, name="p2")
        )
        ctrl.shutdown()
        assert len(res1.ops.records) > 0
        assert len(res2.ops.records) > 0
        # Strategy-wide stats accumulate; snapshots partition them.
        assert (
            len(ctrl.strategy.stats.records)
            == len(res1.ops.records) + len(res2.ops.records)
        )

    def test_extra_ops_performed(self, dep, fast_config):
        engine, ctrl = build_engine(dep, fast_config)
        wf = Workflow("solo")
        wf.add_task(Task("only", compute_time=0.01, extra_ops=10))
        res = engine.run(wf)
        ctrl.shutdown()
        assert len(res.ops.records) == 10

    def test_task_time_decomposition(self, dep, fast_config):
        engine, ctrl = build_engine(dep, fast_config)
        wf = pipeline(2, compute_time=0.5, extra_ops=4)
        res = engine.run(wf)
        ctrl.shutdown()
        for tr in res.task_results:
            assert tr.compute_time == pytest.approx(0.5)
            assert tr.metadata_time > 0
            assert tr.duration >= tr.compute_time + tr.metadata_time - 1e-9


class TestScheduling:
    def test_wide_stage_spills_across_sites(self, dep, fast_config):
        """A 1 -> N scatter must not serialize on the split's site."""
        engine, ctrl = build_engine(dep, fast_config)
        wf = scatter(16, compute_time=0.2)
        res = engine.run(wf)
        ctrl.shutdown()
        sites_used = set(res.tasks_per_site())
        assert len(sites_used) >= 3

    def test_locality_prefers_parent_site(self, dep, fast_config):
        engine, ctrl = build_engine(dep, fast_config)
        wf = pipeline(6, compute_time=0.1)
        res = engine.run(wf)
        ctrl.shutdown()
        # A narrow pipeline should mostly stay at one site.
        per_site = res.tasks_per_site()
        assert max(per_site.values()) >= 5

    def test_round_robin_without_locality(self, dep, fast_config):
        engine, ctrl = build_engine(
            dep, fast_config, scheduler="round_robin"
        )
        wf = scatter(15, compute_time=0.1)
        res = engine.run(wf)
        ctrl.shutdown()
        per_site = res.tasks_per_site()
        assert len(per_site) == 4
        assert max(per_site.values()) - min(per_site.values()) <= 2

    def test_scratch_keys_deterministic(self):
        t = Task("t", extra_ops=5)
        keys = WorkflowEngine.scratch_keys(t)
        assert keys == ["t/scratch-0", "t/scratch-2", "t/scratch-4"]


class TestCrossStrategy:
    @pytest.mark.parametrize(
        "strategy", ["centralized", "replicated", "decentralized", "hybrid"]
    )
    def test_workflow_completes_under_each_strategy(
        self, dep, fast_config, strategy
    ):
        engine, ctrl = build_engine(dep, fast_config, strategy=strategy)
        wf = gather(5, compute_time=0.1, extra_ops=6)
        res = engine.run(wf)
        ctrl.shutdown()
        assert len(res.task_results) == 6
        assert res.strategy == ctrl.strategy.name
