#!/usr/bin/env python
"""Montage on a multi-site cloud: comparing all four metadata strategies.

Reproduces (at example scale) the paper's headline workflow result: the
astronomy mosaic pipeline -- a split, 156 parallel projection jobs and
a two-level merge -- executed over 32 nodes in 4 datacenters under each
metadata management strategy, in the metadata-intensive regime where
the paper reports its 28 % gain for the hybrid strategy.

Run:  python examples/montage_mosaic.py  [--ops 400]
"""

import argparse

from repro import ArchitectureController, Deployment, MetadataConfig, StrategyName
from repro.analysis import profile_workflow, recommend_strategy
from repro.experiments.reporting import render_table
from repro.workflow import montage
from repro.workflow.engine import WorkflowEngine


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--ops",
        type=int,
        default=400,
        help="metadata operations per task (1000 = the paper's MI run)",
    )
    args = parser.parse_args()

    wf = montage(ops_per_task=args.ops, compute_time=1.0)
    print(
        f"Montage: {len(wf)} jobs, {wf.total_metadata_ops} metadata ops, "
        f"{len(wf.levels())} stages"
    )

    # What does the Section VII advisor say before we run anything?
    prof = profile_workflow(wf, n_sites=4, n_nodes=32)
    advice, reasons = recommend_strategy(prof)
    print(f"advisor recommends: {advice}")
    for r in reasons:
        print(f"  - {r}")

    rows = []
    baseline = None
    for strat in StrategyName.all():
        dep = Deployment(n_nodes=32, seed=7)
        cfg = MetadataConfig(
            home_site="east-us", hybrid_sync_replication=True
        )
        ctrl = ArchitectureController(dep, strategy=strat, config=cfg)
        engine = WorkflowEngine(dep, ctrl.strategy)
        res = engine.run(
            montage(ops_per_task=args.ops, compute_time=1.0)
        )
        ctrl.shutdown()
        if strat == StrategyName.CENTRALIZED:
            baseline = res.makespan
        gain = 100 * (1 - res.makespan / baseline) if baseline else 0.0
        rows.append(
            [
                strat,
                res.makespan,
                f"{gain:+.0f}%",
                res.total_metadata_time,
                f"{res.ops.local_fraction:.0%}",
            ]
        )

    print()
    print(
        render_table(
            ["strategy", "makespan (s)", "vs baseline", "metadata (s)", "local ops"],
            rows,
            title=f"Montage, {args.ops} ops/task, 32 nodes / 4 DCs",
        )
    )
    print(
        "\npaper reference (MI): hybrid beats the centralized baseline "
        "by ~28 %."
    )


if __name__ == "__main__":
    main()
