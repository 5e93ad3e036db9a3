"""Multi-tenant workload comparison: strategies x schedulers under contention.

The scenario the workload subsystem was built for
(``docs/workloads.md``): K concurrent tenants submit workflow instances
to *one shared deployment* -- same environment, same network, same
metadata strategy, same placement policy -- and the sweep repeats the
identical workload for every (strategy, scheduler) combination.  This is
where the paper's strategies should actually diverge: a centralized
registry serializes every tenant's metadata traffic through one site,
while the decentralized/hybrid layouts spread it, and the placement
policies decide how much the tenants' data paths collide.

Checked properties (the subsystem's acceptance criteria):

- every tenant's every workflow instance completes in every combination;
- per-workflow op snapshots sum exactly to the strategy's global op
  count -- concurrent runs neither lose nor double-attribute operations;
- when the closed-loop workload runs under ``max_in_flight`` admission,
  the observed peak concurrency never exceeds the bound.

Run standalone::

    python -m repro.experiments.workload_compare
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.reporting import check, render_table
from repro.scenario import (
    NetworkSpec,
    ScenarioSpec,
    SchedulerSpec,
    StrategySpec,
    TopologySpec,
    run_cells,
)
from repro.workload import WorkloadSpec
from repro.workload.result import WorkloadResult

__all__ = ["WorkloadCompareResult", "run_workload_compare"]

Combo = Tuple[str, str]


@dataclass
class WorkloadCompareResult:
    """Per-(strategy, scheduler) workload outcomes plus property checks."""

    strategies: Sequence[str]
    schedulers: Sequence[str]
    n_tenants: int
    n_instances: int
    mode: str
    admission: str
    results: Dict[Combo, WorkloadResult] = field(default_factory=dict)

    def properties(self) -> list:
        out = []
        expected = self.n_tenants * self.n_instances
        out.append(
            check(
                "every tenant's workflows complete in every combination",
                all(
                    res.n_completed == expected
                    and len(res.tenants()) == self.n_tenants
                    for res in self.results.values()
                ),
                f"{expected} instances x {len(self.results)} combos",
            )
        )
        out.append(
            check(
                "per-workflow op counts sum to the strategy's global "
                "count (no lost/double-attributed ops)",
                all(
                    res.attributed_ops() == res.total_ops
                    for res in self.results.values()
                ),
                "tag-filtered snapshots == global delta",
            )
        )
        bounded = [
            res
            for res in self.results.values()
            if res.admission_bound is not None
        ]
        if bounded:
            out.append(
                check(
                    "admission bound never exceeded",
                    all(
                        res.peak_in_flight <= res.admission_bound
                        for res in bounded
                    ),
                    f"peak <= bound across {len(bounded)} bounded runs",
                )
            )
        return out

    def render(self) -> str:
        rows = []
        for (strategy, scheduler), res in sorted(self.results.items()):
            rows.append(
                [
                    strategy,
                    scheduler,
                    f"{res.makespan:.2f}",
                    f"{res.mean_queue_wait():.2f}",
                    f"{res.slowdown_percentile(50):.2f}",
                    f"{res.slowdown_percentile(95):.2f}",
                    f"{res.jain_fairness():.3f}",
                    f"{res.op_throughput():.0f}",
                ]
            )
        summary = render_table(
            [
                "strategy",
                "scheduler",
                "makespan (s)",
                "queue wait (s)",
                "p50 slowdown",
                "p95 slowdown",
                "Jain",
                "ops/s",
            ],
            rows,
            title=(
                f"Workload comparison -- {self.n_tenants} tenants x "
                f"{self.n_instances} instances, {self.mode} loop, "
                f"{self.admission} admission"
            ),
        )
        details = "\n\n".join(
            res.render() for _, res in sorted(self.results.items())
        )
        return (
            summary
            + "\n\n"
            + details
            + "\n\n"
            + "\n".join(self.properties())
        )


def run_workload_compare(
    strategies: Sequence[str] = ("centralized", "decentralized", "hybrid"),
    schedulers: Sequence[str] = ("locality", "bandwidth_aware"),
    n_tenants: int = 8,
    n_instances: int = 1,
    applications: Sequence[str] = (
        "montage-small",
        "buzzflow-small",
        "scatter",
        "pipeline",
    ),
    mode: str = "closed",
    think_time: float = 0.0,
    arrival_rate: Optional[float] = None,
    admission: str = "max_in_flight",
    max_in_flight: int = 4,
    ops_per_task: int = 8,
    compute_time: float = 0.25,
    n_nodes: int = 16,
    seed: int = 17,
    bandwidth_model: str = "slots",
    spread_inputs: bool = True,
    jobs: int = 1,
) -> WorkloadCompareResult:
    """Run the identical K-tenant workload under each combination.

    A spec consumer on the sweep path: one base
    :class:`~repro.scenario.ScenarioSpec` carries the shared
    workload/admission description, each (strategy, scheduler) cell is
    a ``replace(...)`` variant, and the grid runs through
    :func:`~repro.scenario.run_cells` -- every combination gets a
    fresh deployment with the same seed and an identically generated
    workload (the workload seed is independent of the deployment's),
    so strategy and placement policy are the only varying factors.
    ``jobs=N`` runs combinations in N worker processes (identical
    results).  ``spread_inputs`` stages tenant inputs round-robin
    across the topology's sites (per-tenant data origins); admission
    knobs apply to every combination alike.
    """
    topology = TopologySpec()
    base = ScenarioSpec(
        name="workload-compare",
        surface="workload",
        topology=topology,
        network=NetworkSpec(bandwidth_model=bandwidth_model),
        admission=admission,
        max_in_flight=(
            max_in_flight if admission == "max_in_flight" else None
        ),
        n_nodes=n_nodes,
        seed=seed,
    )
    result = WorkloadCompareResult(
        strategies=tuple(strategies),
        schedulers=tuple(schedulers),
        n_tenants=n_tenants,
        n_instances=n_instances,
        mode=mode,
        admission=admission,
    )
    cells = []
    for strategy in strategies:
        for scheduler in schedulers:
            spec = base.replace(
                strategy=StrategySpec(name=strategy),
                scheduler=SchedulerSpec(name=scheduler),
                workload=WorkloadSpec.uniform(
                    n_tenants,
                    applications=applications,
                    mode=mode,
                    n_instances=n_instances,
                    think_time=think_time,
                    arrival_rate=arrival_rate,
                    input_sites=(
                        topology.site_names() if spread_inputs else None
                    ),
                    ops_per_task=ops_per_task,
                    compute_time=compute_time,
                    seed=seed,
                    name=f"{strategy}/{scheduler}",
                ),
            )
            cells.append(({"strategy": strategy, "scheduler": scheduler}, spec))
    for cell in run_cells(cells, jobs=jobs):
        combo = (cell.overrides["strategy"], cell.overrides["scheduler"])
        result.results[combo] = cell.unwrap().result
    return result


if __name__ == "__main__":
    print(run_workload_compare().render())
