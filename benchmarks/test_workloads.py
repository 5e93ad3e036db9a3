"""Acceptance benchmark: the multi-tenant workload comparison at scale.

Runs ``repro.experiments.workload_compare`` at its shipping defaults
(>= 8 concurrent tenants, full strategy x scheduler sweep over one
shared deployment per combo) and checks the subsystem's acceptance
criteria, plus admission-control behaviour under contention.
"""

import pytest

from repro.cloud.deployment import Deployment
from repro.experiments.workload_compare import run_workload_compare
from repro.metadata.controller import ArchitectureController
from repro.workload import MaxInFlightAdmission, WorkloadSpec
from repro.workload.runner import WorkloadRunner

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def compare():
    return run_workload_compare()  # 3 strategies x 2 schedulers, 8 tenants


class TestWorkloadCompareAcceptance:
    def test_runs_at_least_eight_tenants(self, compare):
        assert compare.n_tenants >= 8
        for res in compare.results.values():
            assert len(res.tenants()) >= 8

    def test_every_tenant_completes_everywhere(self, compare):
        expected = compare.n_tenants * compare.n_instances
        for res in compare.results.values():
            assert res.n_completed == expected

    def test_op_attribution_conserves(self, compare):
        for res in compare.results.values():
            assert res.attributed_ops() == res.total_ops
            assert res.total_ops > 0

    def test_admission_bound_respected(self, compare):
        for res in compare.results.values():
            assert res.admission_bound is not None
            assert 0 < res.peak_in_flight <= res.admission_bound

    def test_fairness_and_throughput_reported(self, compare):
        for res in compare.results.values():
            assert 0.0 < res.jain_fairness() <= 1.0
            assert res.op_throughput() > 0
            assert res.mean_queue_wait() >= 0
            assert all(s >= 1.0 for s in res.slowdowns())

    def test_all_properties_green(self, compare):
        assert all(p.startswith("[ok  ]") for p in compare.properties())


class TestAdmissionUnderContention:
    @staticmethod
    def _run(limit):
        spec = WorkloadSpec.uniform(
            8,
            applications=("montage-small", "buzzflow-small"),
            ops_per_task=8,
            compute_time=0.25,
            seed=23,
        )
        dep = Deployment(n_nodes=16, seed=23)
        ctrl = ArchitectureController(dep, strategy="hybrid")
        runner = WorkloadRunner(
            dep,
            ctrl.strategy,
            admission=(
                MaxInFlightAdmission(dep.env, limit=limit)
                if limit
                else "unbounded"
            ),
        )
        res = runner.run(spec)
        ctrl.shutdown()
        return res

    def test_serialized_admission_stretches_the_workload(self):
        """One slot serializes 8 tenants; the whole-workload makespan
        must exceed the unbounded run's (contention traded for wait)."""
        serialized = self._run(limit=1)
        free = self._run(limit=0)
        assert serialized.peak_in_flight == 1
        assert free.peak_in_flight == 8
        assert serialized.makespan > free.makespan
        assert serialized.mean_queue_wait() > free.mean_queue_wait()

    def test_tighter_bounds_mean_longer_queues(self):
        waits = [
            self._run(limit).mean_queue_wait() for limit in (1, 4)
        ]
        assert waits[0] > waits[1]
