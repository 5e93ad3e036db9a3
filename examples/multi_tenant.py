#!/usr/bin/env python
"""Two workflows sharing one multi-site metadata service.

The paper's introduction motivates multi-site deployments with "the
possibility to globally optimize the performance of multiple workflows
that share a common public cloud infrastructure".  This example runs
BuzzFlow and Montage *concurrently* on one deployment and one metadata
service, and compares how the centralized baseline and the hybrid
strategy absorb the combined load -- down to the longest queue any
registry instance held (the exact peak each registry keeps).

Run:  python examples/multi_tenant.py
"""

from repro import ArchitectureController, Deployment, MetadataConfig, StrategyName
from repro.experiments.reporting import render_table
from repro.sim import AllOf
from repro.workflow import buzzflow, montage
from repro.workflow.engine import WorkflowEngine


def run_tenants(strategy: str):
    dep = Deployment(n_nodes=32, seed=19)
    cfg = MetadataConfig(home_site="east-us", hybrid_sync_replication=True)
    ctrl = ArchitectureController(dep, strategy=strategy, config=cfg)
    engine = WorkflowEngine(dep, ctrl.strategy)

    # Launch both tenants at t=0; they contend for the same VMs and the
    # same metadata service.
    tenants = {
        "buzzflow": dep.env.process(
            engine.execute(buzzflow(ops_per_task=300, compute_time=1.0)),
            name="tenant-buzzflow",
        ),
        "montage": dep.env.process(
            engine.execute(montage(ops_per_task=300, compute_time=1.0)),
            name="tenant-montage",
        ),
    }
    dep.env.run(until=AllOf(dep.env, list(tenants.values())))
    ctrl.shutdown()
    results = {name: proc.value for name, proc in tenants.items()}
    queue_peak = max(
        reg.max_queue_length for reg in ctrl.strategy.registries.values()
    )
    return results, queue_peak


def main() -> None:
    rows = []
    queue_peaks = {}
    for strategy in (StrategyName.CENTRALIZED, StrategyName.HYBRID):
        results, queue_peaks[strategy] = run_tenants(strategy)
        for name, res in sorted(results.items()):
            rows.append(
                [
                    strategy,
                    name,
                    res.makespan,
                    res.total_metadata_time,
                    f"{res.ops.local_fraction:.0%}",
                ]
            )

    print(
        render_table(
            ["strategy", "tenant", "makespan (s)", "metadata (s)", "local ops"],
            rows,
            title="Two tenants sharing 32 nodes / 4 DCs",
        )
    )
    print(
        render_table(
            ["strategy", "peak registry queue"],
            sorted(queue_peaks.items()),
            title="\nContention at the metadata service",
        )
    )
    print(
        "\nthe shared centralized instance queues both tenants' traffic; "
        "the hybrid service spreads it across sites."
    )


if __name__ == "__main__":
    main()
