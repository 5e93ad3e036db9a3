"""Scheduler comparison: placement policies on a capped fan-out.

The scenario the scheduling subsystem was built for
(``docs/scheduling.md``): a splitter task at the data-origin site
``hub`` fans out bulky intermediate files to a wave of consumers, over
the :func:`~repro.cloud.presets.heterogeneous_fanout_topology` WAN
where proximity and capacity disagree -- the *nearest* spill site sits
behind a narrow pipe, the *distant* ones behind wide pipes (optionally
with a hierarchical egress cap at the hub).

The paper's locality heuristic (Section III-D) spills nearest-first, so
its overflow tasks drag their inputs through the thin link; the
bandwidth-aware policy scores sites by predicted staging time under
current congestion (``FlowNetwork.estimate_rate`` under the fair
bandwidth model, static link figures under slots) and routes around it.
The checked property is the subsystem's acceptance criterion:
bandwidth-aware makespan never exceeds locality makespan here.

Run standalone::

    python -m repro.experiments.scheduler_compare
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.scenario import (
    NetworkSpec,
    ScenarioSpec,
    SchedulerSpec,
    StrategySpec,
    TopologySpec,
    run_sweep,
)
from repro.scheduling import SCHEDULER_NAMES
from repro.experiments.reporting import check, render_table
from repro.util.units import MB

__all__ = ["SchedulerCompareResult", "run_scheduler_compare"]


@dataclass
class SchedulerCompareResult:
    """Per-policy makespan and data-movement accounting."""

    policies: Sequence[str]
    n_nodes: int
    bandwidth_model: str
    #: policy -> workflow makespan, seconds.
    makespan: Dict[str, float] = field(default_factory=dict)
    #: policy -> total task time spent waiting on transfers, seconds.
    transfer_time: Dict[str, float] = field(default_factory=dict)
    #: policy -> bytes moved across WAN links.
    wan_bytes: Dict[str, int] = field(default_factory=dict)
    #: policy -> tasks per site (placement shape).
    tasks_per_site: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def properties(self) -> List[str]:
        out: List[str] = []
        if {"bandwidth_aware", "locality"} <= set(self.makespan):
            bw = self.makespan["bandwidth_aware"]
            loc = self.makespan["locality"]
            out.append(
                check(
                    "bandwidth-aware beats (or ties) locality on the "
                    "capped fan-out",
                    bw <= loc,
                    f"bandwidth_aware {bw:.1f}s vs locality {loc:.1f}s",
                )
            )
            out.append(
                check(
                    "bandwidth-aware spends less task time waiting on "
                    "transfers",
                    self.transfer_time["bandwidth_aware"]
                    <= self.transfer_time["locality"],
                    f"{self.transfer_time['bandwidth_aware']:.1f}s vs "
                    f"{self.transfer_time['locality']:.1f}s",
                )
            )
        if {"hybrid", "round_robin"} <= set(self.makespan):
            out.append(
                check(
                    "hybrid beats blind round-robin",
                    self.makespan["hybrid"]
                    <= self.makespan["round_robin"],
                    f"hybrid {self.makespan['hybrid']:.1f}s vs "
                    f"round_robin {self.makespan['round_robin']:.1f}s",
                )
            )
        return out

    def render(self) -> str:
        rows = []
        for p in self.policies:
            rows.append(
                [
                    p,
                    f"{self.makespan[p]:.2f}",
                    f"{self.transfer_time[p]:.2f}",
                    f"{self.wan_bytes[p] / MB:.0f}",
                    " ".join(
                        f"{site}:{n}"
                        for site, n in sorted(
                            self.tasks_per_site[p].items()
                        )
                    ),
                ]
            )
        table = render_table(
            [
                "scheduler",
                "makespan (s)",
                "transfer wait (s)",
                "WAN MB",
                "tasks per site",
            ],
            rows,
            title=(
                f"Scheduler comparison -- capped fan-out, "
                f"{self.n_nodes} nodes, {self.bandwidth_model} model"
            ),
        )
        return table + "\n" + "\n".join(self.properties())


def run_scheduler_compare(
    policies: Sequence[str] = SCHEDULER_NAMES,
    n_nodes: int = 8,
    seed: int = 11,
    bandwidth_model: str = "fair",
    hub_egress_bw: Optional[float] = None,
    strategy: str = "decentralized",
    input_site: str = "hub",
    jobs: int = 1,
) -> SchedulerCompareResult:
    """Run the capped-link fan-out under each placement policy.

    A spec consumer on the sweep path: one base
    :class:`~repro.scenario.ScenarioSpec` describes the whole setup
    (the ``fanout`` application, see
    :func:`~repro.workflow.applications.fanout`), and
    :func:`~repro.scenario.run_sweep` runs the one-axis
    ``scheduler.name`` grid -- every cell gets a fresh deployment on a
    freshly-built topology (site caps mutate topologies in place), so
    the only varying factor is placement.  ``jobs=N`` runs policies in
    N worker processes (identical results).  ``hub_egress_bw`` adds a
    hierarchical egress cap at the data origin (fair model only).
    """
    base = ScenarioSpec(
        name="scheduler-compare",
        surface="workflow",
        topology=TopologySpec(
            preset="hetero_fanout",
            hub_egress_mb=(
                hub_egress_bw / MB if hub_egress_bw is not None else None
            ),
        ),
        network=NetworkSpec(bandwidth_model=bandwidth_model),
        strategy=StrategySpec(name=strategy),
        scheduler=SchedulerSpec(input_site=input_site),
        application="fanout",
        ops_per_task=0,
        n_nodes=n_nodes,
        seed=seed,
    )
    result = SchedulerCompareResult(
        policies=tuple(policies),
        n_nodes=n_nodes,
        bandwidth_model=bandwidth_model,
    )
    sweep = run_sweep(base, {"scheduler.name": list(policies)}, jobs=jobs)
    for cell in sweep.cells:
        policy = cell.overrides["scheduler.name"]
        run = cell.unwrap()
        res = run.result
        result.makespan[policy] = res.makespan
        result.transfer_time[policy] = res.total_transfer_time
        result.wan_bytes[policy] = run.wan_bytes
        result.tasks_per_site[policy] = res.tasks_per_site()
    return result


if __name__ == "__main__":
    for model in ("fair", "slots"):
        print(run_scheduler_compare(bandwidth_model=model).render())
        print()
