"""Workload spec/generator tests: validation, namespacing, determinism."""

import pytest

from repro.cloud.deployment import Deployment
from repro.metadata.controller import ArchitectureController
from repro.workload import TenantSpec, WorkloadSpec
from repro.workload.generators import arrival_offsets, generate_instances
from repro.workload.runner import WorkloadRunner
from repro.util.rng import RngStreams


def two_tenant_spec(**kw):
    defaults = dict(
        tenants=(
            TenantSpec(
                name="alice", application="scatter", n_instances=2,
                ops_per_task=4, compute_time=0.2,
            ),
            TenantSpec(
                name="bob", application="pipeline", n_instances=2,
                ops_per_task=4, compute_time=0.2,
            ),
        ),
        mode="closed",
        seed=3,
    )
    defaults.update(kw)
    return WorkloadSpec(**defaults)


class TestSpecValidation:
    def test_unknown_application_rejected(self):
        with pytest.raises(ValueError, match="unknown application"):
            TenantSpec(name="t", application="nope").validate()

    def test_duplicate_tenant_names_rejected(self):
        spec = WorkloadSpec(
            tenants=(TenantSpec(name="t"), TenantSpec(name="t")),
        )
        with pytest.raises(ValueError, match="duplicate tenant names"):
            spec.validate()

    def test_closed_loop_rejects_arrival_knobs(self):
        spec = WorkloadSpec(
            tenants=(TenantSpec(name="t", arrival_rate=1.0),),
            mode="closed",
        )
        with pytest.raises(ValueError, match="open-loop knobs"):
            spec.validate()

    def test_open_loop_requires_arrivals(self):
        spec = WorkloadSpec(tenants=(TenantSpec(name="t"),), mode="open")
        with pytest.raises(ValueError, match="need an arrival_rate"):
            spec.validate()

    def test_open_loop_rejects_think_time(self):
        spec = WorkloadSpec(
            tenants=(
                TenantSpec(name="t", arrival_rate=1.0, think_time=2.0),
            ),
            mode="open",
        )
        with pytest.raises(ValueError, match="closed-loop knob"):
            spec.validate()

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            WorkloadSpec(tenants=(TenantSpec(name="t"),), mode="x").validate()

    def test_uniform_round_robins_applications(self):
        spec = WorkloadSpec.uniform(
            4, applications=("scatter", "pipeline")
        )
        apps = [t.application for t in spec.tenants]
        assert apps == ["scatter", "pipeline", "scatter", "pipeline"]


class TestNamespacing:
    def test_instances_have_disjoint_keys(self):
        plan = generate_instances(two_tenant_spec())
        a0, a1 = plan["alice"]
        keys = lambda wf: (
            set(wf.tasks)
            | {f.name for t in wf for f in t.inputs}
            | {f.name for t in wf for f in t.outputs}
        )
        assert keys(a0.workflow) & keys(a1.workflow) == set()
        assert all(k.startswith("alice/0/") for k in keys(a0.workflow))

    def test_namespacing_preserves_structure(self):
        plan = generate_instances(two_tenant_spec())
        inst = plan["bob"][0]
        from repro.workload import APPLICATIONS

        original = APPLICATIONS["pipeline"](
            two_tenant_spec().tenants[1]
        )
        assert len(inst.workflow) == len(original)
        assert (
            inst.workflow.critical_path_time()
            == original.critical_path_time()
        )
        assert (
            inst.workflow.total_metadata_ops
            == original.total_metadata_ops
        )

    def test_namespace_prefix_required(self):
        from repro.workflow.patterns import scatter

        with pytest.raises(ValueError, match="prefix"):
            scatter(2).namespaced("")


class TestArrivalDeterminism:
    def test_closed_loop_offsets_are_none(self):
        t = TenantSpec(name="t", n_instances=3)
        rng = RngStreams(seed=0).get("workload/t")
        assert arrival_offsets(t, "closed", rng) == [None, None, None]

    def test_poisson_offsets_deterministic_and_increasing(self):
        t = TenantSpec(name="t", n_instances=16, arrival_rate=2.0)
        a = arrival_offsets(t, "open", RngStreams(seed=5).get("workload/t"))
        b = arrival_offsets(t, "open", RngStreams(seed=5).get("workload/t"))
        assert a == b
        assert all(x < y for x, y in zip(a, a[1:]))
        c = arrival_offsets(t, "open", RngStreams(seed=6).get("workload/t"))
        assert a != c

    def test_trace_overrides_rate(self):
        t = TenantSpec(
            name="t", arrival_rate=1.0, arrival_times=(3.0, 1.0, 2.0)
        )
        rng = RngStreams(seed=0).get("workload/t")
        assert arrival_offsets(t, "open", rng) == [1.0, 2.0, 3.0]

    def test_per_tenant_streams_independent(self):
        """Adding a tenant never shifts another tenant's arrivals."""
        base = WorkloadSpec(
            tenants=(
                TenantSpec(name="a", arrival_rate=1.0, n_instances=4),
            ),
            mode="open",
            seed=11,
        )
        grown = WorkloadSpec(
            tenants=base.tenants
            + (TenantSpec(name="b", arrival_rate=1.0, n_instances=4),),
            mode="open",
            seed=11,
        )
        assert [
            i.arrival_offset for i in generate_instances(base)["a"]
        ] == [i.arrival_offset for i in generate_instances(grown)["a"]]


class TestWorkloadDeterminism:
    """Satellite: spec + seed pin the whole WorkloadResult bit-for-bit."""

    @staticmethod
    def _run(spec):
        dep = Deployment(n_nodes=8, seed=2)
        ctrl = ArchitectureController(dep, strategy="hybrid")
        res = WorkloadRunner(dep, ctrl.strategy).run(spec)
        ctrl.shutdown()
        return res

    def test_identical_spec_and_seed_identical_results(self):
        spec = two_tenant_spec(
            mode="open",
            tenants=(
                TenantSpec(
                    name="alice", application="scatter", n_instances=2,
                    ops_per_task=4, compute_time=0.2, arrival_rate=2.0,
                ),
                TenantSpec(
                    name="bob", application="pipeline", n_instances=2,
                    ops_per_task=4, compute_time=0.2, arrival_rate=1.0,
                ),
            ),
        )
        a, b = self._run(spec), self._run(spec)
        assert [r.application for r in a.records] == [
            r.application for r in b.records
        ]
        assert [r.submitted_at for r in a.records] == [
            r.submitted_at for r in b.records
        ]
        assert [r.queue_wait for r in a.records] == [
            r.queue_wait for r in b.records
        ]
        assert a.makespan == b.makespan
        assert a.slowdowns() == b.slowdowns()
        assert a.jain_fairness() == b.jain_fairness()
        assert a.total_ops == b.total_ops
        assert a.wan_bytes == b.wan_bytes
