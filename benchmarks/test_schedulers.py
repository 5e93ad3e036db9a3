"""Benchmark: placement policies on the capped-link fan-out.

Acceptance bench of the scheduling subsystem (``docs/scheduling.md``):
on the heterogeneous fan-out testbed -- nearest spill site behind a
narrow pipe, distant sites behind wide ones, optionally a hierarchical
egress cap at the data origin -- bandwidth-aware placement must beat
(or tie) the paper's locality heuristic, under both bandwidth models:

- ``fair``: staging estimates come from live water-filling probes
  (``FlowNetwork.estimate_rate``), so the policy sees congestion;
- ``slots``: the static ``latency + size/bandwidth`` fallback still
  routes bulk inputs around the thin link.

The makespan table over all five policies is printed for the report.
"""

import pytest

from repro.experiments.scheduler_compare import run_scheduler_compare
from repro.scenario import (
    NetworkSpec,
    ScenarioSpec,
    SchedulerSpec,
    StrategySpec,
    TopologySpec,
)
from repro.scheduling import SCHEDULER_NAMES
from repro.util.units import MB

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("model", ["fair", "slots"])
def test_bandwidth_aware_beats_locality_on_capped_fanout(benchmark, model):
    def run():
        return run_scheduler_compare(
            bandwidth_model=model,
            hub_egress_bw=80 * MB if model == "fair" else None,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + result.render())
    assert set(result.makespan) == set(SCHEDULER_NAMES)
    # The subsystem's acceptance criterion.
    assert (
        result.makespan["bandwidth_aware"] <= result.makespan["locality"]
    )
    # It wins by routing around the thin pipe, not by moving more data.
    assert (
        result.wan_bytes["bandwidth_aware"]
        <= result.wan_bytes["locality"]
    )
    assert (
        result.transfer_time["bandwidth_aware"]
        <= result.transfer_time["locality"]
    )
    benchmark.extra_info["makespans"] = {
        p: round(m, 2) for p, m in result.makespan.items()
    }


def test_hybrid_weights_sweep_spans_locality_to_bandwidth(benchmark):
    """The hybrid coefficients interpolate the design space: a
    transfer-dominated weighting matches bandwidth-aware placement,
    every weighting stays no worse than blind round-robin, and the
    weights move tasks.  Each weighting is pinned on the spec the run
    uses (the compare's setup: fair-model fan-out, decentralized
    registry, data at the hub), so the weights reach the policy."""
    weightings = {
        "transfer-heavy": dict(hybrid_locality_weight=0.0),
        "balanced": {},
        "locality-heavy": dict(
            hybrid_locality_weight=50.0, hybrid_transfer_weight=0.1
        ),
    }
    base = ScenarioSpec(
        name="hybrid-weights",
        topology=TopologySpec(preset="hetero_fanout"),
        network=NetworkSpec(bandwidth_model="fair"),
        strategy=StrategySpec(name="decentralized"),
        application="fanout",
        ops_per_task=0,
        n_nodes=8,
        seed=11,
    )

    def run():
        reference = run_scheduler_compare(
            policies=("round_robin", "bandwidth_aware"),
            bandwidth_model="fair",
        )
        hybrid = {
            label: base.replace(
                scheduler=SchedulerSpec(
                    name="hybrid", input_site="hub", **knobs
                )
            ).run().result
            for label, knobs in weightings.items()
        }
        return reference, hybrid

    reference, hybrid = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + reference.render())
    for label, res in hybrid.items():
        print(
            f"[{label}] makespan {res.makespan:.4f} s, "
            f"tasks per site {res.tasks_per_site()}"
        )
        assert res.makespan <= reference.makespan["round_robin"] * 1.05
    assert hybrid["transfer-heavy"].makespan == pytest.approx(
        reference.makespan["bandwidth_aware"], rel=0.10
    )
    assert (
        hybrid["locality-heavy"].tasks_per_site()
        != hybrid["transfer-heavy"].tasks_per_site()
    )
