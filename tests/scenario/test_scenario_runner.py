"""Execution tests for the scenario runner, faults and sweeps."""

import pytest

from repro.scenario import (
    FaultSpec,
    NetworkSpec,
    ScenarioSpec,
    SchedulerSpec,
    StrategySpec,
    get_scenario,
    run_sweep,
)
from repro.workload import WorkloadSpec


def small_workflow_spec(**overrides):
    spec = ScenarioSpec(
        name="small",
        surface="workflow",
        application="buzzflow",
        ops_per_task=2,
        n_nodes=8,
        seed=3,
    )
    return spec.replace(**overrides) if overrides else spec


class TestWorkflowSurface:
    def test_run_returns_workflow_result_with_context(self):
        res = small_workflow_spec().run()
        assert res.surface == "workflow"
        assert res.makespan > 0
        assert res.scheduler == "locality"
        assert res.result.strategy == "hybrid"
        assert len(res.result.task_results) > 0
        assert res.wan_bytes >= 0

    def test_spec_runs_are_deterministic(self):
        a = small_workflow_spec().run()
        b = small_workflow_spec().run()
        assert a.makespan == b.makespan
        assert a.wan_bytes == b.wan_bytes

    def test_scheduler_pin_reaches_engine(self):
        res = small_workflow_spec(
            **{"scheduler.name": "round_robin"}
        ).run()
        assert res.scheduler == "round_robin"

    def test_prebuilt_workflow_override(self, tmp_path):
        """A DAG built in code runs through ``workflow_file``, which wins
        over ``application``."""
        from repro.workflow.patterns import scatter
        from repro.workflow.serialization import save_workflow

        path = tmp_path / "scatter.json"
        save_workflow(scatter(4), path)
        res = small_workflow_spec(workflow_file=str(path)).run()
        assert res.result.workflow == "scatter"
        assert len(res.result.task_results) == 4 + 1

    def test_workflow_file_spec(self, tmp_path):
        from repro.workflow.patterns import pipeline
        from repro.workflow.serialization import save_workflow

        path = tmp_path / "wf.json"
        save_workflow(pipeline(3, extra_ops=2), path)
        res = small_workflow_spec(workflow_file=str(path)).run()
        assert len(res.result.task_results) == 3

    def test_render_mentions_key_tables(self):
        text = small_workflow_spec().run().render()
        assert "tasks per site" in text
        assert "scheduler" in text


class TestSyntheticSurface:
    def test_spec_run_matches_direct_call_exactly(self, run_synthetic):
        spec = ScenarioSpec(
            surface="synthetic",
            strategy=StrategySpec(name="decentralized"),
            ops_per_node=10,
            n_nodes=8,
            seed=5,
        )
        via_spec = spec.run().result
        direct = run_synthetic(
            "decentralized", n_nodes=8, ops_per_node=10, seed=5
        )
        assert via_spec.makespan == direct.makespan
        assert via_spec.node_times == direct.node_times

    def test_render_mentions_throughput(self):
        spec = get_scenario("paper_synthetic").replace(n_nodes=8)
        text = spec.run(quick=True).render()
        assert "throughput" in text
        assert "mean node time by site" in text


class TestWorkloadSurface:
    def test_admission_and_scheduler_resolved_from_spec(self):
        spec = ScenarioSpec(
            surface="workload",
            strategy=StrategySpec(name="decentralized"),
            scheduler=SchedulerSpec(name="load_balanced"),
            workload=WorkloadSpec.uniform(
                3,
                applications=("scatter",),
                ops_per_task=4,
                compute_time=0.1,
                seed=2,
                name="wl",
            ),
            admission="max_in_flight",
            max_in_flight=2,
            n_nodes=8,
            seed=2,
        )
        res = spec.run()
        assert res.surface == "workload"
        assert res.admission == "max_in_flight"
        assert res.scheduler == "load_balanced"
        assert res.result.n_completed == 3
        assert res.result.peak_in_flight <= 2


class TestFaultWiring:
    def test_site_outage_and_flap_fire_under_fair_model(self):
        spec = small_workflow_spec(
            **{"network.bandwidth_model": "fair"},
            faults=(
                FaultSpec(
                    "site_outage",
                    start=0.5,
                    duration=1.0,
                    site="north-europe",
                ),
                FaultSpec(
                    "link_flap",
                    link=("west-europe", "east-us"),
                    times=(0.25,),
                ),
            ),
        )
        res = spec.run()
        kinds = {ev.kind for ev in res.fault_events}
        assert "site-outage-start" in kinds
        assert "link-flap" in kinds
        # The workflow still completes through the faults.
        assert len(res.result.task_results) > 0

    def test_region_outage_by_region_tag(self):
        spec = small_workflow_spec(
            **{"network.bandwidth_model": "fair"},
            faults=(
                FaultSpec(
                    "region_outage",
                    start=0.5,
                    duration=0.5,
                    region="europe",
                ),
            ),
        )
        res = spec.run()
        targets = {
            ev.target
            for ev in res.fault_events
            if ev.kind == "region-outage-start"
        }
        assert targets == {"north-europe,west-europe"}

    def test_latency_spike_under_slots(self):
        spec = small_workflow_spec(
            faults=(
                FaultSpec(
                    "latency_spike",
                    start=0.1,
                    duration=2.0,
                    link=("west-europe", "south-central-us"),
                    factor=5.0,
                ),
            ),
        )
        res = spec.run()
        assert any(
            ev.kind == "latency-spike-start" for ev in res.fault_events
        )

    def test_faults_render_in_report(self):
        spec = small_workflow_spec(
            faults=(
                FaultSpec(
                    "latency_spike",
                    start=0.1,
                    duration=1.0,
                    link=("west-europe", "east-us"),
                ),
            ),
        )
        assert "faults:" in spec.run().render()

    def test_synthetic_outage_holds_registry_slots(self):
        """The runner wires faults to the registries of the controller
        it builds on every surface, so a site outage delays the
        synthetic benchmark even under the slot model, where it has no
        data plane to tear down."""
        spec = get_scenario("paper_synthetic")
        outage = FaultSpec(
            "site_outage", start=0.5, duration=20.0, site="west-europe"
        )
        clean = spec.run(quick=True)
        res = spec.replace(faults=(outage,)).run(quick=True)
        assert [ev.kind for ev in res.fault_events] == [
            "site-outage-start",
            "site-outage-end",
        ]
        assert clean.makespan == 13.23298110491986
        assert res.makespan == 32.59112492438066


class TestTopologyIsolation:
    def test_capped_and_uncapped_variants_share_one_spec(self):
        """The in-place topology mutation footgun is gone at this layer:
        deriving a capped variant and running it must not perturb a
        later run of the uncapped original (each run builds fresh)."""
        base = ScenarioSpec(
            surface="synthetic",
            strategy=StrategySpec(name="decentralized"),
            ops_per_node=10,
            n_nodes=8,
            seed=5,
        )
        before = base.run().result
        capped = base.replace(
            network=NetworkSpec(
                bandwidth_model="fair",
                egress_cap_mb=1.0,
                ingress_cap_mb=1.0,
            )
        )
        capped_res = capped.run().result
        after = base.run().result
        assert after.makespan == before.makespan
        assert after.node_times == before.node_times
        # And the capped run genuinely differed (the caps applied).
        assert capped_res.makespan != before.makespan


class TestSweep:
    def test_sweep_runs_cartesian_grid(self):
        base = ScenarioSpec(
            surface="synthetic",
            ops_per_node=5,
            n_nodes=8,
            seed=1,
        )
        res = run_sweep(
            base,
            {
                "strategy.name": ["centralized", "hybrid"],
                "n_nodes": [4, 8],
            },
        )
        assert len(res.cells) == 4
        combos = {
            (c.overrides["strategy.name"], c.overrides["n_nodes"])
            for c in res.cells
        }
        assert combos == {
            ("centralized", 4),
            ("centralized", 8),
            ("hybrid", 4),
            ("hybrid", 8),
        }
        text = res.render()
        assert "4 combinations" in text
        assert "centralized" in text

    def test_sweep_rejects_empty_axes(self):
        base = get_scenario("paper_synthetic")
        with pytest.raises(ValueError, match="at least one"):
            run_sweep(base, {})
        with pytest.raises(ValueError, match="no values"):
            run_sweep(base, {"n_nodes": []})
