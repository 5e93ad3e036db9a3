"""The named-scenario registry: curated, validated starting points.

Every entry is a complete :class:`~repro.scenario.spec.ScenarioSpec`
(validated at import time) that can be run as-is, dumped to JSON, or
used as the base of a sweep::

    from repro.scenario import get_scenario
    result = get_scenario("fair_capped").run(quick=True)

    python -m repro.cli scenarios               # list them
    python -m repro.cli run --scenario fair_capped --quick
    python -m repro.cli sweep --scenario multi_tenant_8 \\
        --set "strategy.name=centralized,decentralized"
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cloud.presets import AZURE_4DC
from repro.scenario.slo import SLOSpec
from repro.scenario.spec import (
    ElasticitySpec,
    FaultSpec,
    NetworkSpec,
    ObservabilitySpec,
    ScenarioSpec,
    SchedulerSpec,
    StrategySpec,
    TopologySpec,
)
from repro.workload.spec import TenantSpec, WorkloadSpec

__all__ = [
    "SCENARIOS",
    "SCENARIO_NAMES",
    "get_scenario",
    "register_scenario",
]


def _staggered_tenants(offsets, compute_time, gap_s):
    """Open-loop tenants arriving at explicit offsets (one per tenant,
    with a second wave ``gap_s`` later that the ``quick()`` reduction
    truncates away) -- the deterministic demand profiles the autoscale
    scenarios are built from."""
    return tuple(
        TenantSpec(
            name=f"tenant-{i:02d}",
            application="montage-small",
            input_site=AZURE_4DC[i % len(AZURE_4DC)],
            ops_per_task=8,
            compute_time=compute_time,
            arrival_times=(at, at + gap_s),
        )
        for i, at in enumerate(offsets)
    )


#: Shared per-site-class capacity prices for the autoscale scenarios:
#: the Azure 4-DC preset tags its datacenters with "europe"/"us"
#: regions, and geo-distant European capacity bills 1.5x.
_AUTOSCALE_COST_RATES = (("europe", 1.5), ("us", 1.0))


def _build_registry() -> Dict[str, ScenarioSpec]:
    specs = (
        ScenarioSpec(
            name="paper_default",
            description=(
                "The CLI run default: Montage under the hybrid strategy, "
                "slot WAN model, locality placement on the 4-DC Azure "
                "testbed"
            ),
            surface="workflow",
            application="montage",
            ops_per_task=100,
            n_nodes=32,
            seed=7,
        ),
        ScenarioSpec(
            name="paper_synthetic",
            description=(
                "Section VI-B reader/writer benchmark at Fig. 5 scale "
                "(32 nodes, 1000 ops/node) under the hybrid strategy"
            ),
            surface="synthetic",
            strategy=StrategySpec(name="hybrid"),
            ops_per_node=1000,
            n_nodes=32,
            seed=0,
        ),
        ScenarioSpec(
            name="fair_capped",
            description=(
                "Reader/writer benchmark under hierarchical fair sharing: "
                "25 MB/s site uplink caps, weight-2 metadata RPC flows"
            ),
            surface="synthetic",
            strategy=StrategySpec(name="decentralized"),
            network=NetworkSpec(
                bandwidth_model="fair",
                egress_cap_mb=25.0,
                ingress_cap_mb=25.0,
                rpc_flow_weight=2.0,
            ),
            ops_per_node=200,
            n_nodes=16,
            seed=0,
        ),
        ScenarioSpec(
            name="fanout_bandwidth_aware",
            description=(
                "Montage on the heterogeneous fan-out WAN (near-thin vs "
                "far-fat links, 12 MB/s hub egress cap) with "
                "bandwidth-aware placement routing around the thin pipe"
            ),
            surface="workflow",
            application="montage",
            ops_per_task=20,
            compute_time=0.5,
            topology=TopologySpec(preset="hetero_fanout", hub_egress_mb=12.0),
            network=NetworkSpec(bandwidth_model="fair"),
            strategy=StrategySpec(name="decentralized"),
            scheduler=SchedulerSpec(name="bandwidth_aware", input_site="hub"),
            n_nodes=8,
            seed=11,
        ),
        ScenarioSpec(
            name="multi_tenant_8",
            description=(
                "8 closed-loop tenants over 4 applications on one shared "
                "deployment, max_in_flight=4 admission, inputs spread "
                "round-robin across sites"
            ),
            surface="workload",
            strategy=StrategySpec(name="decentralized"),
            workload=WorkloadSpec.uniform(
                8,
                applications=(
                    "montage-small",
                    "buzzflow-small",
                    "scatter",
                    "pipeline",
                ),
                n_instances=1,
                input_sites=AZURE_4DC,
                ops_per_task=8,
                compute_time=0.25,
                seed=17,
                name="multi_tenant_8",
            ),
            admission="max_in_flight",
            max_in_flight=4,
            n_nodes=16,
            seed=17,
        ),
        ScenarioSpec(
            name="multi_tenant_slo",
            description=(
                "multi_tenant_8 judged against per-tenant response-time "
                "deadlines, an ops-latency percentile target and a "
                "throughput floor (traced; see repro.cli analyze)"
            ),
            surface="workload",
            strategy=StrategySpec(name="decentralized"),
            workload=WorkloadSpec.uniform(
                8,
                applications=(
                    "montage-small",
                    "buzzflow-small",
                    "scatter",
                    "pipeline",
                ),
                n_instances=1,
                input_sites=AZURE_4DC,
                ops_per_task=8,
                compute_time=0.25,
                seed=17,
                name="multi_tenant_8",
            ),
            admission="max_in_flight",
            max_in_flight=4,
            observability=ObservabilitySpec(enabled=True),
            slo=SLOSpec(
                # Deliberately one tight tenant deadline among lax
                # ones, so the analyze report demonstrates a violated
                # verdict with debt + first-violation time.
                tenant_deadlines=(
                    ("tenant-00", 2.0),
                    ("tenant-01", 600.0),
                ),
                latency_targets=(("ops.latency_s", 95.0, 0.5),),
                min_throughput_ops_s=5.0,
            ),
            n_nodes=16,
            seed=17,
        ),
        ScenarioSpec(
            name="open_loop_tokens",
            description=(
                "6 open-loop tenants with Poisson arrivals (0.5/s) under "
                "per-tenant token-bucket admission (rate 0.5, burst 2)"
            ),
            surface="workload",
            strategy=StrategySpec(name="hybrid"),
            workload=WorkloadSpec.uniform(
                6,
                applications=("ingest", "montage-small"),
                mode="open",
                n_instances=2,
                arrival_rate=0.5,
                input_sites=AZURE_4DC,
                ops_per_task=8,
                compute_time=0.25,
                seed=23,
                name="open_loop_tokens",
            ),
            admission="token_bucket",
            token_rate=0.5,
            token_burst=2,
            n_nodes=16,
            seed=23,
        ),
        ScenarioSpec(
            name="autoscale_ramp",
            description=(
                "Accelerating open-loop arrival ramp under the "
                "predictive autoscaler: EWMA forecast pre-provisions "
                "ahead of the ramp, then drains the tail (traced; see "
                "repro.cli analyze for the capacity timeline)"
            ),
            surface="workload",
            strategy=StrategySpec(name="decentralized"),
            workload=WorkloadSpec(
                tenants=_staggered_tenants(
                    # Arrival spacing shrinks 8s -> 1s: the ramp the
                    # trend term of the forecast exists to catch.
                    (0.0, 8.0, 15.0, 21.0, 26.0, 30.0, 33.0, 35.0,
                     36.0, 37.0),
                    compute_time=0.5,
                    gap_s=60.0,
                ),
                mode="open",
                seed=11,
                name="autoscale_ramp",
            ),
            observability=ObservabilitySpec(enabled=True),
            elasticity=ElasticitySpec(
                enabled=True,
                policy="predictive",
                interval_s=2.0,
                lag_s=6.0,
                warmup_s=4.0,
                warmup_factor=2.0,
                max_vms_per_site=4,
                cooldown_s=8.0,
                ewma_alpha=0.4,
                target_task_s=20.0,
                cost_rates=_AUTOSCALE_COST_RATES,
            ),
            n_nodes=4,
            seed=11,
        ),
        ScenarioSpec(
            name="autoscale_pareto",
            description=(
                "Cost-vs-SLO Pareto probe: a 12-tenant burst plus late "
                "stragglers under threshold autoscaling with 35s "
                "deadlines -- matches static-peak attainment at a "
                "fraction of its vm-seconds, beats static-low on "
                "attainment (tests/elastic/test_pareto.py)"
            ),
            surface="workload",
            strategy=StrategySpec(name="decentralized"),
            workload=WorkloadSpec(
                tenants=_staggered_tenants(
                    # 12-tenant burst at t=0..2.75, then four late
                    # stragglers that keep the run alive while the
                    # autoscaler drains the burst capacity.
                    tuple(0.25 * i for i in range(12))
                    + (50.0, 60.0, 70.0, 80.0),
                    compute_time=0.75,
                    gap_s=130.0,
                ),
                mode="open",
                seed=5,
                name="autoscale_pareto",
            ),
            slo=SLOSpec(
                tenant_deadlines=tuple(
                    (f"tenant-{i:02d}", 35.0) for i in range(16)
                ),
            ),
            elasticity=ElasticitySpec(
                enabled=True,
                policy="threshold",
                interval_s=2.0,
                lag_s=5.0,
                warmup_s=3.0,
                warmup_factor=2.0,
                max_vms_per_site=4,
                scale_step=2,
                up_threshold=1.5,
                cost_rates=_AUTOSCALE_COST_RATES,
            ),
            n_nodes=4,
            seed=5,
        ),
        ScenarioSpec(
            name="outage_resilience",
            description=(
                "Montage under the fair WAN model through a mid-run "
                "north-europe outage plus transatlantic link flaps"
            ),
            surface="workflow",
            application="montage",
            ops_per_task=20,
            compute_time=0.5,
            network=NetworkSpec(bandwidth_model="fair"),
            strategy=StrategySpec(name="hybrid"),
            faults=(
                FaultSpec(
                    "site_outage",
                    start=5.0,
                    duration=4.0,
                    site="north-europe",
                ),
                FaultSpec(
                    "link_flap",
                    link=("west-europe", "east-us"),
                    times=(3.0, 9.0),
                ),
            ),
            n_nodes=16,
            seed=7,
        ),
    )
    registry: Dict[str, ScenarioSpec] = {}
    for spec in specs:
        spec.validate()
        registry[spec.name] = spec
    return registry


#: name -> validated :class:`ScenarioSpec`.
SCENARIOS: Dict[str, ScenarioSpec] = _build_registry()

#: Registered scenario names, in a stable order.
SCENARIO_NAMES: Tuple[str, ...] = tuple(sorted(SCENARIOS))


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a named scenario (raises with the available names)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {list(SCENARIO_NAMES)}"
        ) from None


def register_scenario(spec: ScenarioSpec, overwrite: bool = False) -> None:
    """Add a custom scenario to the registry (validated first)."""
    spec.validate()
    if spec.name in SCENARIOS and not overwrite:
        raise ValueError(
            f"scenario {spec.name!r} already registered "
            "(pass overwrite=True to replace it)"
        )
    SCENARIOS[spec.name] = spec
    global SCENARIO_NAMES
    SCENARIO_NAMES = tuple(sorted(SCENARIOS))
