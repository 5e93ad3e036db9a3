"""Models of the paper's two real-life workflows (Section VI-D, Fig. 9),
plus the capped fan-out the placement policies are compared on.

**BuzzFlow** -- "a near-pipelined application that searches for trends
and correlations in large scientific publications databases like DBLP
or PubMed".  Modeled as a narrow chain of super-stages with a small
parallel width, each stage consuming the previous stage's outputs.
72 jobs, so Table I's per-job op counts yield the paper's totals
(72 x 100 = 7,200 ... 72 x 1,000 = 72,000).

**Montage** -- "an astronomy application, in which mosaics of the sky
are created based on user requests.  It includes a split followed by a
set of parallelized jobs and finally a merge operation."  Modeled as
split -> N parallel projection jobs -> regional merges -> final mosaic.
160 jobs, matching Table I's totals (160 x 100 = 16,000; 160 x 200 =
32,000; the paper rounds the MI total to 150,000 -- see ``TABLE_I``).

Both builders take ``ops_per_task`` and ``compute_time`` so the three
evaluation scenarios (Small Scale / Computation Intensive / Metadata
Intensive) are just parameterizations; presets live in
``repro.experiments.fig10_workflows.TABLE_I``.

**Fan-out** -- a splitter fanning bulky parts out to a wave of
consumers (``docs/scheduling.md``); ``repro.experiments.scheduler_compare``
runs it on the heterogeneous fan-out testbed.
"""

from __future__ import annotations

from typing import List

from repro.util.units import KB, MB
from repro.workflow.dag import Task, Workflow, WorkflowFile

__all__ = ["buzzflow", "fanout", "montage", "BUZZFLOW_JOBS", "MONTAGE_JOBS"]

#: Job counts implied by Table I's totals.
BUZZFLOW_JOBS = 72
MONTAGE_JOBS = 160


def _extra(ops_per_task: int, n_inputs: int, n_outputs: int) -> int:
    """Extra registry ops so the task's total equals ``ops_per_task``."""
    return max(0, ops_per_task - n_inputs - n_outputs)


def buzzflow(
    ops_per_task: int = 100,
    compute_time: float = 1.0,
    width: int = 4,
    n_stages: int = 18,
    file_size: int = 190 * KB,
) -> Workflow:
    """The near-pipelined BuzzFlow DAG: ``n_stages`` x ``width`` jobs.

    Stage ``k`` tasks each read every output of stage ``k-1`` (the
    trend/correlation passes repeatedly re-aggregate the previous
    analysis round), keeping the graph "near-pipelined": long and
    narrow rather than wide and flat.
    """
    if width <= 0 or n_stages <= 0:
        raise ValueError("width and n_stages must be positive")
    wf = Workflow("buzzflow")
    prev_outputs: List[WorkflowFile] = []
    for stage in range(n_stages):
        stage_outputs: List[WorkflowFile] = []
        for j in range(width):
            out = WorkflowFile(f"buzz/s{stage}/t{j}", size=file_size)
            stage_outputs.append(out)
            wf.add_task(
                Task(
                    task_id=f"buzz-{stage}-{j}",
                    inputs=list(prev_outputs),
                    outputs=[out],
                    compute_time=compute_time,
                    extra_ops=_extra(ops_per_task, len(prev_outputs), 1),
                    stage=f"stage-{stage}",
                )
            )
        prev_outputs = stage_outputs
    assert len(wf) == n_stages * width
    return wf


def montage(
    ops_per_task: int = 100,
    compute_time: float = 1.0,
    n_parallel: int = 156,
    n_merges: int = 2,
    file_size: int = 1 * MB,
) -> Workflow:
    """The Montage mosaic DAG: split -> parallel jobs -> merge -> mosaic.

    ``1 + n_parallel + n_merges + 1`` jobs; defaults give the 160 jobs
    of Table I.  The parallel projection jobs are independent (a
    scatter), then regional merges gather disjoint halves and the final
    task assembles the mosaic -- the "parallel, geo-distributed"
    structure for which the paper reports its best result (28 % gain).
    """
    if n_parallel <= 0 or n_merges <= 0:
        raise ValueError("n_parallel and n_merges must be positive")
    if n_parallel % n_merges != 0:
        raise ValueError("n_parallel must divide evenly across merges")
    wf = Workflow("montage")
    split_outs = [
        WorkflowFile(f"montage/tile-{i}", size=file_size)
        for i in range(n_parallel)
    ]
    wf.add_task(
        Task(
            task_id="montage-split",
            outputs=split_outs,
            compute_time=compute_time,
            extra_ops=_extra(ops_per_task, 0, n_parallel),
            stage="split",
        )
    )
    proj_outs: List[WorkflowFile] = []
    for i in range(n_parallel):
        out = WorkflowFile(f"montage/proj-{i}", size=file_size)
        proj_outs.append(out)
        wf.add_task(
            Task(
                task_id=f"montage-project-{i}",
                inputs=[split_outs[i]],
                outputs=[out],
                compute_time=compute_time,
                extra_ops=_extra(ops_per_task, 1, 1),
                stage="project",
            )
        )
    per_merge = n_parallel // n_merges
    merge_outs: List[WorkflowFile] = []
    for m in range(n_merges):
        group = proj_outs[m * per_merge : (m + 1) * per_merge]
        out = WorkflowFile(f"montage/merge-{m}", size=file_size * 4)
        merge_outs.append(out)
        wf.add_task(
            Task(
                task_id=f"montage-merge-{m}",
                inputs=group,
                outputs=[out],
                compute_time=compute_time,
                extra_ops=_extra(ops_per_task, len(group), 1),
                stage="merge",
            )
        )
    wf.add_task(
        Task(
            task_id="montage-mosaic",
            inputs=merge_outs,
            outputs=[WorkflowFile("montage/mosaic", size=file_size * 8)],
            compute_time=compute_time,
            extra_ops=_extra(ops_per_task, len(merge_outs), 1),
            stage="mosaic",
        )
    )
    assert len(wf) == 1 + n_parallel + n_merges + 1
    return wf


def fanout(ops_per_task: int = 0, compute_time: float = 2.0) -> Workflow:
    """A splitter fanning out 12 bulky 24 MB parts to 12 consumers.

    ``ops_per_task`` extra registry ops go to each consumer, as in the
    workload surface's ``scatter`` and ``pipeline`` applications.  The
    splitter reads one external ``seed`` input staged at the engine's
    ``input_site``.  Data-*aware* policies (bandwidth_aware, hybrid)
    anchor the splitter there because staging is free on-site;
    data-blind ones (locality's root round-robin, round_robin,
    load_balanced) place it on the fleet's first worker regardless.
    With the scenario default ``input_site="hub"`` both coincide --
    worker 0 lives at the topology's first site -- so every policy
    starts from an identical data layout and the comparison varies
    only the consumer placements.  Moving ``input_site`` elsewhere
    additionally charges the data-blind policies a cross-WAN seed
    fetch (the ``input_site`` knob's purpose).
    """
    fan_out = 12
    wf = Workflow("capped-fanout")
    seed = WorkflowFile("fanout/seed", size=1 * MB)
    parts = [
        WorkflowFile(f"fanout/part-{i}", size=24 * MB)
        for i in range(fan_out)
    ]
    wf.add_task(
        Task(
            "split",
            inputs=[seed],
            outputs=parts,
            compute_time=min(compute_time, 0.5),
            stage="split",
        )
    )
    for i in range(fan_out):
        wf.add_task(
            Task(
                f"consume-{i}",
                inputs=[parts[i]],
                outputs=[WorkflowFile(f"fanout/result-{i}", size=64 * 1024)],
                compute_time=compute_time,
                extra_ops=ops_per_task,
                stage="consume",
            )
        )
    return wf
