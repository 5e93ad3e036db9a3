"""Fast-profile checks of the multi-tenant workload comparison scenario."""

import pytest

from repro.experiments.workload_compare import run_workload_compare


@pytest.fixture(scope="module")
def small_compare():
    return run_workload_compare(
        strategies=("centralized", "hybrid"),
        schedulers=("locality", "round_robin"),
        n_tenants=8,
        applications=("scatter", "pipeline"),
        ops_per_task=4,
        compute_time=0.2,
        n_nodes=12,
        seed=13,
    )


class TestWorkloadCompare:
    def test_all_combos_present(self, small_compare):
        assert set(small_compare.results) == {
            ("centralized", "locality"),
            ("centralized", "round_robin"),
            ("hybrid", "locality"),
            ("hybrid", "round_robin"),
        }

    def test_acceptance_properties_hold(self, small_compare):
        props = small_compare.properties()
        assert len(props) == 3  # completion, conservation, bound
        assert all(p.startswith("[ok  ]") for p in props)

    def test_per_tenant_metrics_reported(self, small_compare):
        for res in small_compare.results.values():
            assert len(res.tenants()) == 8
            assert set(res.makespan_by_tenant()) == set(res.tenants())
            assert set(res.queue_wait_by_tenant()) == set(res.tenants())
            assert set(res.slowdown_by_tenant()) == set(res.tenants())
            assert 0.0 < res.jain_fairness() <= 1.0
            assert res.op_throughput() > 0

    def test_render_includes_properties_and_tenants(self, small_compare):
        text = small_compare.render()
        assert "Workload comparison" in text
        assert "tenant-07" in text
        assert "[ok  ]" in text
        assert "Jain" in text

    def test_unbounded_admission_has_no_bound(self):
        res = run_workload_compare(
            strategies=("hybrid",),
            schedulers=("locality",),
            n_tenants=2,
            applications=("scatter",),
            ops_per_task=2,
            compute_time=0.1,
            n_nodes=8,
            admission="unbounded",
        )
        assert res.admission == "unbounded"
        only = next(iter(res.results.values()))
        assert only.admission == "unbounded"
        assert only.admission_bound is None
