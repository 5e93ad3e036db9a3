"""Validation, serialization and builder tests for the scenario spec tree."""

import dataclasses
import json

import pytest

from repro.scenario import (
    SCENARIOS,
    ElasticitySpec,
    FaultSpec,
    NetworkSpec,
    SLOSpec,
    ScenarioSpec,
    SchedulerSpec,
    StrategySpec,
    TopologySpec,
    get_scenario,
    register_scenario,
)
from repro.util.units import MB
from repro.workload import WorkloadSpec

NAN = float("nan")


def workload_spec(n=2, **kwargs):
    return WorkloadSpec.uniform(n, name="test", **kwargs)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_registry_dict_round_trip_is_identity(self, name):
        spec = SCENARIOS[name]
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_registry_json_round_trip_is_identity(self, name):
        spec = SCENARIOS[name]
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = get_scenario("outage_resilience")
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ScenarioSpec.load(path) == spec

    def test_round_trip_restores_tuples(self):
        spec = ScenarioSpec(
            surface="workflow",
            faults=(
                FaultSpec(
                    "link_flap",
                    link=["west-europe", "east-us"],
                    times=[1.0, 2.0],
                ),
            ),
        )
        back = ScenarioSpec.from_json(spec.to_json())
        assert back == spec
        assert isinstance(back.faults[0].link, tuple)
        assert isinstance(back.faults[0].times, tuple)

    def test_workload_round_trip_restores_tenants(self):
        spec = ScenarioSpec(
            surface="workload", workload=workload_spec(3)
        )
        back = ScenarioSpec.from_json(spec.to_json())
        assert back == spec
        assert back.workload.tenants == spec.workload.tenants

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown ScenarioSpec keys"):
            ScenarioSpec.from_dict({"surfaces": "workflow"})
        with pytest.raises(ValueError, match="unknown NetworkSpec keys"):
            ScenarioSpec.from_dict({"network": {"bandwith_model": "fair"}})
        with pytest.raises(ValueError, match="unknown WorkloadSpec keys"):
            ScenarioSpec.from_dict(
                {"surface": "workload", "workload": {"tenant": []}}
            )


class TestReplace:
    def test_dotted_path_replaces_nested_field(self):
        spec = get_scenario("paper_default")
        out = spec.replace(**{"scheduler.name": "bandwidth_aware"})
        assert out.scheduler.name == "bandwidth_aware"
        # The original is untouched (functional builder).
        assert spec.scheduler.name is None
        # Unrelated fields carried over.
        assert out.n_nodes == spec.n_nodes

    def test_multiple_overrides_on_one_subspec_compose(self):
        out = ScenarioSpec().replace(
            **{
                "network.bandwidth_model": "fair",
                "network.egress_cap_mb": 10.0,
                "n_nodes": 4,
            }
        )
        assert out.network.bandwidth_model == "fair"
        assert out.network.egress_cap_mb == 10.0
        assert out.n_nodes == 4

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            ScenarioSpec().replace(**{"scheduler.nmae": "hybrid"})
        with pytest.raises(ValueError, match="bad override"):
            ScenarioSpec().replace(nmae="x")

    def test_descending_into_unset_field_rejected(self):
        with pytest.raises(ValueError, match="unset"):
            ScenarioSpec().replace(**{"workload.mode": "open"})

    def test_mappings_become_their_sub_specs(self):
        """A whole sub-spec set as a mapping (``--set strategy={...}``)
        is built as ``from_dict`` builds it."""
        workload = get_scenario("multi_tenant_8").workload
        out = ScenarioSpec().replace(
            strategy={"name": "hybrid"},
            topology={"preset": "azure_4dc", "jitter": False},
            slo={"deadline_s": 30.0},
            faults=[
                {
                    "kind": "site_outage",
                    "site": "west-europe",
                    "start": 0.5,
                    "duration": 20.0,
                }
            ],
            workload=workload.to_dict(),
        )
        assert out.strategy == StrategySpec(name="hybrid")
        assert out.topology == TopologySpec(jitter=False)
        assert out.slo == SLOSpec(deadline_s=30.0)
        assert out.faults == (
            FaultSpec(
                "site_outage", start=0.5, duration=20.0, site="west-europe"
            ),
        )
        assert out.workload == workload
        assert ScenarioSpec.from_dict(out.to_dict()) == out

    def test_mapping_with_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown StrategySpec keys"):
            ScenarioSpec().replace(strategy={"nmae": "hybrid"})
        with pytest.raises(ValueError, match="unknown FaultSpec keys"):
            ScenarioSpec().replace(
                faults=[{"kind": "site_outage", "sight": "east-us"}]
            )


class TestReplaceIndexPaths:
    """Numeric path segments index into spec tuples."""

    def test_fault_field_overridden_by_index(self):
        spec = get_scenario("outage_resilience")
        out = spec.replace(**{"faults.0.duration": 9.0})
        assert out.faults[0].duration == 9.0
        # The sibling fault and the original spec are untouched.
        assert out.faults[1] == spec.faults[1]
        assert spec.faults[0].duration == 4.0
        assert isinstance(out.faults, tuple)
        out.validate()

    def test_tenant_field_overridden_by_index(self):
        spec = get_scenario("open_loop_tokens")
        out = spec.replace(**{"workload.tenants.1.arrival_rate": 2.0})
        assert out.workload.tenants[1].arrival_rate == 2.0
        assert out.workload.tenants[0] == spec.workload.tenants[0]
        out.validate()

    def test_bare_index_replaces_whole_element(self):
        spec = get_scenario("outage_resilience")
        flap = spec.faults[1]
        out = spec.replace(**{"faults.1": flap})
        assert out.faults[1] == flap

    def test_non_numeric_segment_into_tuple_rejected(self):
        spec = get_scenario("outage_resilience")
        with pytest.raises(ValueError, match="numeric index"):
            spec.replace(**{"faults.first.duration": 9.0})

    def test_out_of_range_index_rejected(self):
        spec = get_scenario("outage_resilience")
        with pytest.raises(ValueError, match="out of range"):
            spec.replace(**{"faults.2.duration": 9.0})

    def test_index_paths_compose_as_sweep_axes(self):
        from repro.scenario import run_sweep

        res = run_sweep(
            get_scenario("open_loop_tokens"),
            {"workload.tenants.0.arrival_rate": [0.5, 1.0]},
            quick=True,
        )
        assert all(c.ok for c in res.cells)
        rates = [
            c.result.spec.workload.tenants[0].arrival_rate
            for c in res.cells
        ]
        assert rates == [0.5, 1.0]


class TestElasticitySpec:
    def test_disabled_default_validates(self):
        ElasticitySpec().validate()

    def test_tuned_but_disabled_rejected(self):
        with pytest.raises(ValueError, match="enabled=True"):
            ElasticitySpec(lag_s=5.0).validate()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown elasticity policy"):
            ElasticitySpec(enabled=True, policy="magic").validate()

    @pytest.mark.parametrize(
        "kw,msg",
        [
            ({"interval_s": 0.0}, "interval_s"),
            ({"lag_s": -1.0}, "lag_s"),
            ({"warmup_factor": 0.5}, "warmup_factor"),
            ({"min_vms_per_site": 0}, "min_vms_per_site"),
            ({"max_vms_per_site": 0}, "max_vms_per_site"),
            ({"scale_step": 0}, "scale_step"),
            ({"cooldown_s": -1.0}, "cooldown_s"),
            (
                {"up_threshold": 0.1, "down_threshold": 0.2},
                "hysteresis",
            ),
            # NaN passes a "< 0" check; each knob must refuse it (a NaN
            # lag ran autoscale_ramp with no elastic action at all).
            ({"interval_s": NAN}, "interval_s"),
            ({"lag_s": NAN}, "lag_s"),
            ({"warmup_s": NAN}, "warmup_s"),
            ({"warmup_factor": NAN}, "warmup_factor"),
            ({"cooldown_s": NAN}, "cooldown_s"),
            ({"up_threshold": NAN}, "up_threshold"),
            ({"down_threshold": NAN}, "down_threshold"),
            ({"debt_budget_s": NAN}, "debt_budget_s"),
            ({"ewma_alpha": NAN}, "ewma_alpha"),
            ({"target_task_s": NAN}, "target_task_s"),
            ({"cost_rates": (("us", NAN),)}, "cost rate"),
        ],
    )
    def test_bounds_enforced(self, kw, msg):
        with pytest.raises(ValueError, match=msg):
            ElasticitySpec(enabled=True, **kw).validate()

    @pytest.mark.parametrize(
        "kw,policy",
        [
            ({"up_threshold": 3.0}, "predictive"),
            ({"down_threshold": 0.1}, "predictive"),
            ({"debt_budget_s": 2.0}, "threshold"),
            ({"ewma_alpha": 0.5}, "threshold"),
            ({"target_task_s": 5.0}, "slo_debt"),
        ],
    )
    def test_policy_specific_knobs_rejected_elsewhere(self, kw, policy):
        with pytest.raises(ValueError, match="policy='"):
            ElasticitySpec(enabled=True, policy=policy, **kw).validate()

    def test_cost_rates_validated(self):
        with pytest.raises(ValueError, match="repeats"):
            ElasticitySpec(
                enabled=True, cost_rates=(("eu", 1.0), ("eu", 2.0))
            ).validate()
        with pytest.raises(ValueError, match="positive"):
            ElasticitySpec(
                enabled=True, cost_rates=(("eu", 0.0),)
            ).validate()
        with pytest.raises(ValueError, match="class names"):
            ElasticitySpec(
                enabled=True, cost_rates=(("", 1.0),)
            ).validate()

    def test_elastic_registry_scenarios_enabled_and_valid(self):
        for name in ("autoscale_ramp", "autoscale_pareto"):
            spec = get_scenario(name)
            assert spec.elasticity.enabled
            spec.validate()


class TestValidation:
    def test_registry_specs_all_validate(self):
        for spec in SCENARIOS.values():
            spec.validate()

    def test_fair_only_knobs_rejected_under_slots(self):
        spec = ScenarioSpec(
            network=NetworkSpec(bandwidth_model="slots", egress_cap_mb=10.0)
        )
        with pytest.raises(ValueError, match="require network.bandwidth_model='fair'"):
            spec.validate()

    # ``sweep --set`` values go through json.loads, which accepts NaN,
    # and NaN passes every ``<= 0`` style check: each fair-model knob
    # must refuse it in validate() instead of corrupting or crashing the
    # run (NaN weights used to shorten transfers or divide by zero).
    @pytest.mark.parametrize(
        "knob",
        [
            "egress_cap_mb",
            "ingress_cap_mb",
            "rpc_flow_weight",
            "transfer_flow_weight",
        ],
    )
    def test_fair_model_knob_rejects_nan(self, knob):
        spec = get_scenario("fanout_bandwidth_aware").replace(
            **{f"network.{knob}": json.loads("NaN")}
        )
        with pytest.raises(ValueError, match=knob):
            spec.validate()

    # The same for the policy knobs a run builds its scheduler and
    # admission controller from, the replicated sync period, the
    # topology, fault, size, tenant and SLO numbers: a NaN penalty,
    # weight or period ran to a wrong makespan, a NaN max_in_flight
    # deadlocked mid-run, a NaN token_rate admitted everything at once,
    # and a NaN delay or bandwidth died mid-run in the kernel.  Infinite
    # and negative values fail as well.
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-1.0"])
    @pytest.mark.parametrize(
        "scenario,overrides,knob",
        [
            ("fanout_bandwidth_aware", {}, "scheduler.bw_pending_penalty"),
            (
                "fanout_bandwidth_aware",
                {"scheduler.name": "hybrid"},
                "scheduler.hybrid_locality_weight",
            ),
            (
                "fanout_bandwidth_aware",
                {"scheduler.name": "hybrid"},
                "scheduler.hybrid_load_weight",
            ),
            (
                "fanout_bandwidth_aware",
                {"scheduler.name": "hybrid"},
                "scheduler.hybrid_transfer_weight",
            ),
            ("multi_tenant_8", {}, "max_in_flight"),
            ("open_loop_tokens", {}, "token_rate"),
            (
                "paper_default",
                {"strategy.name": "replicated"},
                "strategy.sync_period",
            ),
            ("paper_default", {}, "topology.wan_bandwidth_mb"),
            ("fanout_bandwidth_aware", {}, "topology.hub_egress_mb"),
            ("outage_resilience", {}, "faults.0.start"),
            ("outage_resilience", {}, "faults.0.duration"),
            ("paper_default", {}, "compute_time"),
            ("paper_default", {}, "ops_per_task"),
            ("paper_default", {}, "n_nodes"),
            ("paper_default", {}, "seed"),
            ("paper_synthetic", {}, "ops_per_node"),
            ("multi_tenant_8", {}, "workload.seed"),
            ("multi_tenant_8", {}, "workload.tenants.0.n_instances"),
            ("multi_tenant_8", {}, "workload.tenants.0.size_scale"),
            ("multi_tenant_8", {}, "workload.tenants.0.ops_per_task"),
            ("multi_tenant_8", {}, "workload.tenants.0.compute_time"),
            ("multi_tenant_8", {}, "workload.tenants.0.think_time"),
            ("open_loop_tokens", {}, "workload.tenants.0.arrival_rate"),
            ("multi_tenant_slo", {}, "slo.deadline_s"),
            ("multi_tenant_slo", {}, "slo.min_throughput_ops_s"),
        ],
    )
    def test_policy_knob_out_of_range_rejected(
        self, scenario, overrides, knob, value
    ):
        spec = get_scenario(scenario).replace(
            **overrides, **{knob: json.loads(value)}
        )
        with pytest.raises(ValueError, match=knob.rpartition(".")[2]):
            spec.validate()

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize(
        "scenario,knob",
        [
            ("multi_tenant_8", "max_in_flight"),
            ("open_loop_tokens", "token_burst"),
            ("paper_default", "n_nodes"),
            ("paper_default", "ops_per_task"),
            ("paper_default", "seed"),
            ("paper_synthetic", "ops_per_node"),
            ("multi_tenant_8", "workload.seed"),
            ("multi_tenant_8", "workload.tenants.0.n_instances"),
            ("multi_tenant_8", "workload.tenants.0.ops_per_task"),
            ("autoscale_ramp", "elasticity.min_vms_per_site"),
            ("autoscale_ramp", "elasticity.max_vms_per_site"),
            ("autoscale_ramp", "elasticity.scale_step"),
        ],
    )
    def test_admission_counts_must_be_integers(self, scenario, knob, value):
        spec = get_scenario(scenario).replace(**{knob: value})
        field = knob.rpartition(".")[2]
        with pytest.raises(ValueError, match=f"{field} must be .*integer"):
            spec.validate()

    # A switch read by truthiness would run "no", 1 or NaN as on (and 0
    # as off) under a spec hash of its own.
    @pytest.mark.parametrize("value", ["no", "false", 1, 0, NAN, None])
    @pytest.mark.parametrize(
        "scenario,knob",
        [
            ("paper_default", "topology.jitter"),
            ("paper_default", "strategy.hybrid_sync_replication"),
            ("paper_default", "strategy.write_lookup"),
            ("paper_default", "observability.enabled"),
            ("autoscale_ramp", "elasticity.enabled"),
        ],
    )
    def test_switches_must_be_bools(self, scenario, knob, value):
        spec = get_scenario(scenario).replace(**{knob: value})
        with pytest.raises(ValueError, match=f"{knob} must be true or false"):
            spec.validate()

    # Fault instants and factors and the SLO targets sit in tuples,
    # below the fields a dotted override names one by one.
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-1.0"])
    @pytest.mark.parametrize(
        "build,match",
        [
            (
                lambda v: FaultSpec(
                    "link_flap", link=("a", "b"), times=(1.0, v)
                ),
                "link_flap times",
            ),
            (
                lambda v: FaultSpec(
                    "latency_spike", link=("a", "b"), duration=1.0, factor=v
                ),
                "latency_spike factor",
            ),
            (
                lambda v: SLOSpec(tenant_deadlines=(("t", v),)),
                "tenant deadline",
            ),
            (
                lambda v: SLOSpec(
                    latency_targets=(("ops.latency_s", 95.0, v),)
                ),
                "latency target",
            ),
        ],
    )
    def test_tuple_knob_out_of_range_rejected(self, build, match, value):
        with pytest.raises(ValueError, match=match):
            build(json.loads(value)).validate()

    @pytest.mark.parametrize(
        "knob", ["rpc_flow_weight", "transfer_flow_weight"]
    )
    def test_flow_weight_must_be_finite(self, knob):
        spec = get_scenario("fanout_bandwidth_aware").replace(
            **{f"network.{knob}": json.loads("Infinity")}
        )
        with pytest.raises(ValueError, match=f"{knob} must be .* finite"):
            spec.validate()

    @pytest.mark.parametrize("knob", ["egress_cap_mb", "ingress_cap_mb"])
    def test_infinite_site_cap_means_uncapped(self, knob):
        get_scenario("fanout_bandwidth_aware").replace(
            **{f"network.{knob}": json.loads("Infinity")}
        ).validate()

    def test_hybrid_knobs_rejected_under_other_policies(self):
        spec = ScenarioSpec(
            scheduler=SchedulerSpec(
                name="locality", hybrid_load_weight=2.0
            )
        )
        with pytest.raises(ValueError, match="require scheduler.name='hybrid'"):
            spec.validate()

    def test_pending_penalty_rejected_without_bandwidth_aware(self):
        spec = ScenarioSpec(scheduler=SchedulerSpec(bw_pending_penalty=0.5))
        with pytest.raises(ValueError, match="bw_pending_penalty requires"):
            spec.validate()

    @pytest.mark.parametrize(
        "scheduler",
        [
            dict(name=None, hybrid_locality_weight=2.0),
            dict(name="bandwidth_aware", hybrid_transfer_weight=2.0),
            dict(name="round_robin", bw_pending_penalty=0.0),
        ],
    )
    def test_scheduler_knobs_rejected_under_other_policies(self, scheduler):
        spec = ScenarioSpec(scheduler=SchedulerSpec(**scheduler))
        with pytest.raises(ValueError, match="require"):
            spec.validate()

    def test_admission_rejected_in_single_workflow_mode(self):
        spec = ScenarioSpec(surface="workflow", admission="unbounded")
        with pytest.raises(ValueError, match="workload-surface"):
            spec.validate()

    def test_admission_knobs_rejected_under_other_policies(self):
        spec = ScenarioSpec(
            surface="workload",
            workload=workload_spec(),
            admission="unbounded",
            max_in_flight=2,
        )
        with pytest.raises(ValueError, match="max_in_flight"):
            spec.validate()
        spec = ScenarioSpec(
            surface="workload",
            workload=workload_spec(),
            admission="max_in_flight",
            token_rate=1.0,
        )
        with pytest.raises(ValueError, match="token_bucket"):
            spec.validate()

    @pytest.mark.parametrize(
        "knobs,match",
        [
            (dict(max_in_flight=2), "max_in_flight"),
            (dict(admission="unbounded", token_rate=1.0), "token_bucket"),
            (dict(admission="max_in_flight", token_burst=2), "token_bucket"),
            (dict(admission="nope"), "admission must be"),
            (
                dict(admission="max_in_flight", max_in_flight=0),
                "max_in_flight",
            ),
            (dict(admission="token_bucket", token_rate=-1.0), "token_rate"),
            (dict(admission="token_bucket", token_burst=0), "token_burst"),
        ],
    )
    def test_admission_knob_values_checked(self, knobs, match):
        spec = ScenarioSpec(
            surface="workload", workload=workload_spec(), **knobs
        )
        with pytest.raises(ValueError, match=match):
            spec.validate()

    def test_workload_surface_needs_embedded_workload(self):
        with pytest.raises(ValueError, match="embedded workload"):
            ScenarioSpec(surface="workload").validate()
        with pytest.raises(ValueError, match="surface='workload'"):
            ScenarioSpec(
                surface="workflow", workload=workload_spec()
            ).validate()

    def test_topology_preset_specific_knobs_rejected(self):
        with pytest.raises(ValueError, match="hetero_fanout-preset"):
            ScenarioSpec(
                topology=TopologySpec(preset="azure_4dc", hub_egress_mb=5.0)
            ).validate()
        with pytest.raises(ValueError, match="uniform-preset"):
            ScenarioSpec(
                topology=TopologySpec(preset="azure_4dc", sites=("a", "b"))
            ).validate()
        with pytest.raises(ValueError, match="unknown topology preset"):
            ScenarioSpec(topology=TopologySpec(preset="ring")).validate()

    def test_unknown_strategy_scheduler_application_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            ScenarioSpec(strategy=StrategySpec(name="oracle")).validate()
        with pytest.raises(ValueError, match="scheduler must be None"):
            ScenarioSpec(scheduler=SchedulerSpec(name="annealing")).validate()
        with pytest.raises(ValueError, match="unknown application"):
            ScenarioSpec(application="hpl").validate()

    def test_strategy_aliases_accepted(self):
        for alias in ("dn", "dr", "baseline"):
            ScenarioSpec(strategy=StrategySpec(name=alias)).validate()

    def test_fault_site_membership_checked(self):
        spec = ScenarioSpec(
            faults=(
                FaultSpec(
                    "site_outage", start=1.0, duration=1.0, site="mars"
                ),
            )
        )
        with pytest.raises(ValueError, match="unknown site 'mars'"):
            spec.validate()

    def test_fault_kind_specific_fields_enforced(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor").validate()
        with pytest.raises(ValueError, match="needs a site"):
            FaultSpec("site_outage", duration=1.0).validate()
        with pytest.raises(ValueError, match="does not apply"):
            FaultSpec(
                "site_outage",
                site="x",
                duration=1.0,
                times=(1.0,),
            ).validate()
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec("region_outage", duration=1.0).validate()
        with pytest.raises(ValueError, match="flap time"):
            FaultSpec("link_flap", link=("a", "b")).validate()
        with pytest.raises(
            ValueError, match="duration must be a positive finite number"
        ):
            FaultSpec("latency_spike", link=("a", "b")).validate()

    @pytest.mark.parametrize(
        "surface,workload",
        [("workload", workload_spec()), ("synthetic", None)],
    )
    def test_workflow_file_rejected_off_the_workflow_surface(
        self, surface, workload
    ):
        spec = ScenarioSpec(
            surface=surface, workload=workload, workflow_file="wf.json"
        )
        with pytest.raises(ValueError, match="workflow_file is a workflow"):
            spec.validate()

    def test_input_site_rejected_off_the_workflow_surface(self):
        spec = ScenarioSpec(
            surface="synthetic",
            scheduler=SchedulerSpec(input_site="east-us"),
        )
        with pytest.raises(ValueError, match="workflow-surface knob"):
            spec.validate()
        # Workload surface too: data origins are per-tenant there, so
        # a scenario-level input_site would be silently ignored.
        spec = ScenarioSpec(
            surface="workload",
            workload=workload_spec(),
            scheduler=SchedulerSpec(input_site="east-us"),
        )
        with pytest.raises(ValueError, match="per-tenant|workflow-surface"):
            spec.validate()

    def test_region_outage_region_tag_membership_checked(self):
        spec = ScenarioSpec(
            faults=(
                FaultSpec(
                    "region_outage", start=1.0, duration=1.0, region="mars"
                ),
            )
        )
        with pytest.raises(ValueError, match="unknown region 'mars'"):
            spec.validate()
        # Valid tags of each preset pass.
        ScenarioSpec(
            faults=(
                FaultSpec(
                    "region_outage", start=1.0, duration=1.0, region="europe"
                ),
            )
        ).validate()
        ScenarioSpec(
            topology=TopologySpec(
                preset="uniform",
                sites=("a", "b"),
                regions=(("a", "eu"),),
            ),
            faults=(
                FaultSpec(
                    "region_outage",
                    start=1.0,
                    duration=1.0,
                    region="region-b",
                ),
            ),
        ).validate()

    def test_home_and_input_site_membership_checked(self):
        with pytest.raises(ValueError, match="home_site"):
            ScenarioSpec(
                strategy=StrategySpec(home_site="mars")
            ).validate()
        with pytest.raises(ValueError, match="input_site"):
            ScenarioSpec(
                scheduler=SchedulerSpec(input_site="mars")
            ).validate()


class TestConfigMapping:
    def test_default_spec_pins_nothing(self):
        assert ScenarioSpec().to_metadata_config() is None

    def test_network_fields_reach_the_deployment(self, monkeypatch):
        """A fair, capped spec builds its Deployment with the caps in
        bytes/s and the RPC flow weight (no config in between)."""
        from repro.cloud.deployment import Deployment

        seen = {}
        init = Deployment.__init__

        def spy(self, *args, **kwargs):
            seen.update(kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Deployment, "__init__", spy)
        ScenarioSpec(
            surface="synthetic",
            network=NetworkSpec(
                bandwidth_model="fair",
                egress_cap_mb=10.0,
                ingress_cap_mb=5.0,
                rpc_flow_weight=2.0,
            ),
            ops_per_node=5,
            n_nodes=4,
        ).run()
        assert seen["bandwidth_model"] == "fair"
        assert seen["site_egress_bw"] == 10 * MB
        assert seen["site_ingress_bw"] == 5 * MB
        assert seen["rpc_flow_weight"] == 2.0

    @staticmethod
    def built(monkeypatch, cls):
        """Record every instance of ``cls`` constructed from now on."""
        seen = []
        init = cls.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            seen.append(self)

        monkeypatch.setattr(cls, "__init__", spy)
        return seen

    def test_scheduler_and_transfer_weight_reach_the_engine(
        self, monkeypatch, tmp_path
    ):
        """The spec's hybrid weights and penalty reach ``engine.policy``
        and its transfer weight ``engine.transfer`` (no config in
        between)."""
        from repro.workflow.engine import WorkflowEngine
        from repro.workflow.patterns import scatter
        from repro.workflow.serialization import save_workflow

        engines = self.built(monkeypatch, WorkflowEngine)
        spec = ScenarioSpec(
            network=NetworkSpec(
                bandwidth_model="fair", transfer_flow_weight=2.0
            ),
            scheduler=SchedulerSpec(
                name="hybrid",
                hybrid_locality_weight=3.0,
                hybrid_load_weight=0.5,
                hybrid_transfer_weight=0.25,
                bw_pending_penalty=0.0,
            ),
            n_nodes=4,
        )
        assert spec.to_metadata_config() is None
        path = tmp_path / "scatter.json"
        save_workflow(scatter(3, compute_time=0.1), path)
        result = spec.replace(workflow_file=str(path)).run()
        (engine,) = engines
        assert result.scheduler == "hybrid"
        assert engine.policy.locality_weight == 3.0
        assert engine.policy.load_weight == 0.5
        assert engine.policy.transfer_weight == 0.25
        assert engine.policy.pending_penalty == 0.0
        assert engine.transfer.default_weight == 2.0

    @pytest.mark.parametrize(
        "admission,expected",
        [
            (dict(admission=None), dict(name="unbounded", bound=None)),
            (
                dict(admission="max_in_flight", max_in_flight=3),
                dict(name="max_in_flight", bound=3),
            ),
            (
                dict(admission="token_bucket", token_rate=2.0, token_burst=3),
                dict(name="token_bucket", rate=2.0, burst=3),
            ),
            # Unset knobs keep the controller's defaults.
            (
                dict(admission="token_bucket"),
                dict(name="token_bucket", rate=1.0, burst=1),
            ),
        ],
    )
    def test_admission_knobs_reach_the_runner(
        self, monkeypatch, admission, expected
    ):
        from repro.workload.runner import WorkloadRunner

        runners = self.built(monkeypatch, WorkloadRunner)
        get_scenario("multi_tenant_8").replace(
            **{"max_in_flight": None, **admission}
        ).run(quick=True)
        (runner,) = runners
        for attr, value in expected.items():
            assert getattr(runner.admission, attr) == value

    def test_strategy_fields_mapped(self):
        cfg = ScenarioSpec(
            strategy=StrategySpec(
                home_site="east-us", hybrid_sync_replication=True
            ),
            scheduler=SchedulerSpec(name="hybrid", hybrid_load_weight=2.0),
        ).to_metadata_config()
        assert cfg.home_site == "east-us"
        assert cfg.hybrid_sync_replication is True
        assert not hasattr(cfg, "scheduler")


class TestQuick:
    def test_quick_caps_each_surface(self):
        assert (
            get_scenario("paper_synthetic").quick().ops_per_node == 100
        )
        assert get_scenario("paper_default").quick().ops_per_task == 20
        mt = get_scenario("multi_tenant_8").quick()
        assert all(t.n_instances == 1 for t in mt.workload.tenants)
        assert all(t.ops_per_task <= 8 for t in mt.workload.tenants)
        mt.validate()


class TestRegistry:
    def test_get_scenario_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="paper_default"):
            get_scenario("nope")

    def test_register_scenario_rejects_duplicates(self):
        spec = dataclasses.replace(
            get_scenario("paper_default"), name="paper_default"
        )
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(spec)

    def test_register_and_overwrite_custom_scenario(self):
        spec = dataclasses.replace(
            get_scenario("paper_default"), name="_test_tmp"
        )
        try:
            register_scenario(spec)
            assert get_scenario("_test_tmp") == spec
            register_scenario(spec, overwrite=True)
        finally:
            SCENARIOS.pop("_test_tmp", None)


class TestSpecHash:
    #: Golden content hash of the paper_default scenario.  This pin is
    #: the artifact-store compatibility contract: if it moves, every
    #: previously written store key goes stale -- change it only with
    #: a deliberate spec-schema migration.
    PAPER_DEFAULT_HASH = (
        "75a7763ac1219014a6df0a043a49637549235e8f47225b8fd88568d5eb1767ba"
    )

    def test_paper_default_hash_is_pinned(self):
        assert (
            get_scenario("paper_default").spec_hash()
            == self.PAPER_DEFAULT_HASH
        )

    def test_hash_is_stable_across_instances(self):
        a = get_scenario("paper_default")
        b = ScenarioSpec.from_dict(a.to_dict())
        assert a.spec_hash() == b.spec_hash()
        assert a.canonical_json() == b.canonical_json()

    def test_hash_covers_every_field_change(self):
        base = get_scenario("paper_default")
        assert base.replace(seed=99).spec_hash() != base.spec_hash()
        assert (
            base.replace(**{"strategy.name": "centralized"}).spec_hash()
            != base.spec_hash()
        )
        # name participates too: artifacts self-identify by scenario.
        assert base.replace(name="other").spec_hash() != base.spec_hash()

    def test_hash_is_hex_sha256(self):
        h = get_scenario("paper_default").spec_hash()
        assert len(h) == 64
        int(h, 16)

    def test_disabled_elasticity_is_dropped_from_canonical_form(self):
        # The compatibility half of the elasticity-hash contract:
        # every pre-elasticity artifact key must stay where it is.
        spec = get_scenario("paper_default")
        assert '"elasticity"' not in spec.canonical_json()
        assert spec.spec_hash() == self.PAPER_DEFAULT_HASH

    def test_enabled_elasticity_participates_in_the_hash(self):
        base = get_scenario("multi_tenant_8")
        elastic = base.replace(
            elasticity=ElasticitySpec(enabled=True)
        )
        assert '"elasticity"' in elastic.canonical_json()
        assert elastic.spec_hash() != base.spec_hash()
        # ...and so does every knob on an enabled block: an autoscaled
        # run with a different lag simulates a different system.
        ramp = get_scenario("autoscale_ramp")
        assert (
            ramp.replace(**{"elasticity.lag_s": 7.0}).spec_hash()
            != ramp.spec_hash()
        )
