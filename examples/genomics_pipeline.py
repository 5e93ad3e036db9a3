#!/usr/bin/env python
"""A genome-sequencing pipeline: the many-small-files regime.

The paper motivates its design with workloads like human-genome
sequencing -- "up to 30 million files averaging 190 KB".  This example
models a (scaled-down) sequencing pipeline as a chain of analysis
stages, each emitting many small trace files consumed by the next
stage, and shows why the advisor picks the *hybrid* strategy for
pipeline-shaped workloads: consecutive stages run where their inputs
were produced, so local replicas turn almost every metadata read into
an intra-datacenter operation.

Run:  python examples/genomics_pipeline.py
"""

from repro import ArchitectureController, Deployment, StrategyName
from repro.analysis import profile_workflow, recommend_strategy
from repro.experiments.reporting import render_table
from repro.util.units import KB
from repro.workflow.engine import WorkflowEngine
from repro.workflow.dag import Task, Workflow, WorkflowFile

#: Sequencing stages, in order; each stage reads the previous stage's
#: trace files and emits its own.
STAGES = [
    ("basecall", 40),
    ("trim", 40),
    ("align", 40),
    ("dedup", 30),
    ("variant-call", 30),
    ("annotate", 20),
]

TRACE_FILE = 190 * KB  # the paper's human-genome average


def build_pipeline(files_per_stage_scale: int = 1) -> Workflow:
    """A chain of stages, each producing many small trace files."""
    wf = Workflow("genome-pipeline")
    prev_outputs = []
    for stage, n_files in STAGES:
        n_files *= files_per_stage_scale
        outputs = [
            WorkflowFile(f"{stage}/trace-{i}.ztr", size=TRACE_FILE)
            for i in range(n_files)
        ]
        wf.add_task(
            Task(
                task_id=stage,
                inputs=list(prev_outputs),
                outputs=outputs,
                compute_time=2.0,
                # Per-read provenance and QC entries: sequencing stages
                # publish far more registry entries than trace files
                # (the paper's 30-million-file regime, scaled down).
                extra_ops=600,
                stage=stage,
            )
        )
        prev_outputs = outputs
    return wf


def main() -> None:
    wf = build_pipeline()
    print(
        f"pipeline: {len(wf)} stages, "
        f"{sum(len(t.outputs) for t in wf)} trace files, "
        f"{wf.total_metadata_ops} metadata ops"
    )

    prof = profile_workflow(wf, n_sites=4, n_nodes=16)
    advice, reasons = recommend_strategy(prof)
    print(f"advisor recommends: {advice}")
    for r in reasons:
        print(f"  - {r}")
    assert advice == StrategyName.HYBRID

    # The centralized registry is "arbitrarily placed" (paper IV-A); in
    # a shared multi-site cloud it will generally NOT be colocated with
    # this particular pipeline's chain, so place it across the ocean.
    from repro import MetadataConfig

    cfg = MetadataConfig(home_site="east-us")
    rows = []
    for strat in (StrategyName.CENTRALIZED, StrategyName.HYBRID):
        dep = Deployment(n_nodes=16, seed=13)
        ctrl = ArchitectureController(dep, strategy=strat, config=cfg)
        engine = WorkflowEngine(dep, ctrl.strategy)
        res = engine.run(build_pipeline())
        ctrl.shutdown()
        rows.append(
            [
                strat,
                res.makespan,
                res.total_metadata_time,
                res.total_transfer_time,
                f"{res.ops.local_fraction:.0%}",
            ]
        )

    print()
    print(
        render_table(
            [
                "strategy",
                "makespan (s)",
                "metadata (s)",
                "transfers (s)",
                "local ops",
            ],
            rows,
            title="Genome pipeline, 16 nodes / 4 DCs",
        )
    )
    hybrid_local = rows[1][4]
    print(
        f"\nwith locality scheduling + local replicas, {hybrid_local} of "
        "metadata ops stayed inside a datacenter."
    )


if __name__ == "__main__":
    main()
