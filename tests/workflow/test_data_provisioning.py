"""Tests for the Section III-C speculative data provisioner."""

from repro.cloud.deployment import Deployment
from repro.cloud.presets import azure_4dc_topology
from repro.metadata.controller import ArchitectureController
from repro.util.units import MB
from repro.workflow.dag import Task, Workflow, WorkflowFile
from repro.workflow.engine import WorkflowEngine


def staggered_gather(n_producers=4, file_size=20 * MB, spread=2.0):
    """Producers with staggered compute times feeding one consumer --
    the shape where prefetching overlaps transfers with the straggler."""
    wf = Workflow("staggered-gather")
    produced = []
    for i in range(n_producers):
        out = WorkflowFile(f"sg/part-{i}", size=file_size)
        produced.append(out)
        wf.add_task(
            Task(
                f"producer-{i}",
                outputs=[out],
                compute_time=0.5 + i * spread,
                stage="producer",
            )
        )
    wf.add_task(
        Task("collect", inputs=produced, compute_time=0.5, stage="collect")
    )
    return wf


def run(data_provisioning, seed=91, fast_config=None):
    dep = Deployment(
        topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=seed
    )
    ctrl = ArchitectureController(dep, strategy="hybrid", config=fast_config)
    engine = WorkflowEngine(
        dep,
        ctrl.strategy,
        data_provisioning=data_provisioning,
        scheduler="round_robin",  # spread producers across sites
    )
    res = engine.run(staggered_gather())
    ctrl.shutdown()
    return res, engine


class TestDataProvisioner:
    def test_prefetch_reduces_collector_stall(self, fast_config):
        base, _ = run(False, fast_config=fast_config)
        pre, engine = run(True, fast_config=fast_config)
        base_collect = next(
            r for r in base.task_results if r.task_id == "collect"
        )
        pre_collect = next(
            r for r in pre.task_results if r.task_id == "collect"
        )
        # Early producers' outputs were already in place: the collector
        # spends less time on transfers.
        assert pre_collect.transfer_time < base_collect.transfer_time
        assert engine.last_provisioner.prefetches_started > 0

    def test_hit_rate_scored(self, fast_config):
        _, engine = run(True, fast_config=fast_config)
        prov = engine.last_provisioner
        scored = [r for r in prov.records if r.useful is not None]
        assert scored, "placement should score predictions"
        assert 0.0 <= prov.hit_rate <= 1.0

    def test_results_identical_either_way(self, fast_config):
        base, _ = run(False, fast_config=fast_config)
        pre, _ = run(True, fast_config=fast_config)
        assert len(base.task_results) == len(pre.task_results) == 5
        # Prefetching must never slow the workflow down.
        assert pre.makespan <= base.makespan + 1e-6

    def test_disabled_by_default(self, fast_config):
        dep = Deployment(
            topology=azure_4dc_topology(jitter=False), n_nodes=4, seed=92
        )
        ctrl = ArchitectureController(
            dep, strategy="hybrid", config=fast_config
        )
        engine = WorkflowEngine(dep, ctrl.strategy)
        engine.run(staggered_gather(n_producers=2))
        ctrl.shutdown()
        assert engine.last_provisioner is None
