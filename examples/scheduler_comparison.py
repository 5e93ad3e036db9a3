#!/usr/bin/env python
"""Placement policies compared on the same Montage-style workflow.

Runs the astronomy mosaic pipeline (a split, a wide parallel projection
stage and a two-level merge) under each of the five task-placement
policies of ``repro.scheduling`` -- on the paper's 4-DC Azure testbed
first, then on the heterogeneous capped fan-out WAN where proximity and
capacity disagree -- and prints makespan / transfer-bytes tables.

The takeaway mirrors docs/scheduling.md: on a uniform WAN the paper's
locality heuristic is hard to beat, but the moment links are
heterogeneous or capped, bandwidth-aware and hybrid placement win by
routing bulk staging around the narrow pipes.

Run:  python examples/scheduler_comparison.py  [--ops 100]
"""

import argparse

from repro import (
    ArchitectureController,
    Deployment,
    MetadataConfig,
    SCHEDULER_NAMES,
)
from repro.experiments.reporting import render_table
from repro.experiments.scheduler_compare import run_scheduler_compare
from repro.util.units import MB
from repro.workflow import montage
from repro.workflow.engine import WorkflowEngine


def montage_table(ops: int) -> None:
    rows = []
    for policy in SCHEDULER_NAMES:
        dep = Deployment(n_nodes=32, seed=7, bandwidth_model="fair")
        cfg = MetadataConfig(home_site="east-us")
        ctrl = ArchitectureController(dep, strategy="hybrid", config=cfg)
        engine = WorkflowEngine(dep, ctrl.strategy, scheduler=policy)
        res = engine.run(montage(ops_per_task=ops, compute_time=1.0))
        ctrl.shutdown()
        rows.append(
            [
                policy,
                f"{res.makespan:.1f}",
                f"{res.total_transfer_time:.1f}",
                f"{engine.transfer.wan_bytes / MB:.1f}",
            ]
        )
    print(
        render_table(
            ["scheduler", "makespan (s)", "transfer wait (s)", "WAN MB"],
            rows,
            title=(
                f"Montage ({ops} ops/task) x 5 placement policies, "
                "32 nodes / 4 DCs, fair WAN"
            ),
        )
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--ops",
        type=int,
        default=100,
        help="metadata operations per Montage task",
    )
    args = parser.parse_args()

    montage_table(args.ops)

    print()
    print(
        run_scheduler_compare(
            bandwidth_model="fair", hub_egress_bw=80 * MB
        ).render()
    )


if __name__ == "__main__":
    main()
