"""Workflow DAG structures: files, tasks and the dependency graph.

A :class:`Workflow` is a DAG whose edges are *implied by files*: task B
depends on task A iff B reads a file A writes, mirroring how real
engines (Swift, Chiron, Pegasus) derive the task graph from declared
inputs/outputs rather than explicit edges.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.util.units import KB

__all__ = ["Task", "Workflow", "WorkflowFile", "WorkflowValidationError"]


class WorkflowValidationError(Exception):
    """The task graph is malformed (cycle, missing producer, ...)."""


@dataclass(frozen=True)
class WorkflowFile:
    """A (small) file exchanged between tasks.

    Workflow studies report median sizes in the KB-MB range; the default
    here is a representative small file.  Initial inputs have no
    producer.
    """

    name: str
    size: int = 190 * KB  # the human-genome trace average from the paper

    def __post_init__(self):
        if not self.name:
            raise ValueError("file name must be non-empty")
        if self.size < 0:
            raise ValueError("file size must be >= 0")


@dataclass
class Task:
    """One workflow job: inputs, outputs and simulated computation.

    Attributes
    ----------
    task_id:
        Unique id within the workflow.
    inputs / outputs:
        Files read / written.  Dependencies are derived from these.
    compute_time:
        Simulated execution time (the paper models task internals as a
        sleep; so do we).
    extra_ops:
        Additional metadata operations the task performs beyond its
        input reads and output writes.  This is how Table I's
        "operations per node" (100 / 200 / 1000) are expressed: each job
        touches many more small registry entries than its declared
        input/output files (intermediate products, logs, provenance).
        Split evenly between reads (of already-published keys) and
        writes (of fresh keys).
    stage:
        Optional label for reporting (e.g. "mProject", "merge").
    """

    task_id: str
    inputs: List[WorkflowFile] = field(default_factory=list)
    outputs: List[WorkflowFile] = field(default_factory=list)
    compute_time: float = 1.0
    extra_ops: int = 0
    stage: str = ""

    def __post_init__(self):
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if self.compute_time < 0:
            raise ValueError("compute_time must be >= 0")
        if self.extra_ops < 0:
            raise ValueError("extra_ops must be >= 0")
        out_names = [f.name for f in self.outputs]
        if len(set(out_names)) != len(out_names):
            raise ValueError(f"duplicate outputs in task {self.task_id}")

    @property
    def metadata_ops(self) -> int:
        """Total registry operations this task will perform."""
        return len(self.inputs) + len(self.outputs) + self.extra_ops

    def __hash__(self) -> int:
        return hash(self.task_id)

    def __repr__(self) -> str:
        return (
            f"<Task {self.task_id} in={len(self.inputs)} "
            f"out={len(self.outputs)} t={self.compute_time}s>"
        )


class Workflow:
    """A file-linked task DAG with structural validation.

    >>> wf = Workflow("demo")
    >>> a = wf.add_task(Task("a", outputs=[WorkflowFile("x")]))
    >>> b = wf.add_task(Task("b", inputs=[WorkflowFile("x")]))
    >>> [t.task_id for t in wf.topological_order()]
    ['a', 'b']
    """

    def __init__(self, name: str):
        if not name:
            raise ValueError("workflow name must be non-empty")
        self.name = name
        self.tasks: Dict[str, Task] = {}
        self._producer: Dict[str, str] = {}  # file name -> task id

    # -- construction -----------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        if task.task_id in self.tasks:
            raise WorkflowValidationError(
                f"duplicate task id {task.task_id!r}"
            )
        for f in task.outputs:
            if f.name in self._producer:
                raise WorkflowValidationError(
                    f"file {f.name!r} produced by both "
                    f"{self._producer[f.name]!r} and {task.task_id!r} "
                    "(workflow files are write-once)"
                )
        self.tasks[task.task_id] = task
        for f in task.outputs:
            self._producer[f.name] = task.task_id
        return task

    def namespaced(self, prefix: str) -> "Workflow":
        """A copy of this workflow with every key under ``prefix``.

        Task ids and file names are rewritten to ``{prefix}/{original}``
        (the workflow name to ``{prefix}:{name}``), so two concurrent
        instances of the same application submitted to one shared
        deployment touch disjoint :class:`~repro.storage.filestore.FileStore`
        keys, registry entries and scheduler bookkeeping (scratch keys
        and placement-ledger claims derive from task ids).  Structure,
        sizes, compute times and op counts are preserved, as is task
        insertion order -- the namespaced DAG schedules identically to
        the original.
        """
        if not prefix:
            raise ValueError("namespace prefix must be non-empty")
        clone = Workflow(f"{prefix}:{self.name}")

        def rename(f: WorkflowFile) -> WorkflowFile:
            return WorkflowFile(f"{prefix}/{f.name}", size=f.size)

        for task in self.tasks.values():
            clone.add_task(
                Task(
                    task_id=f"{prefix}/{task.task_id}",
                    inputs=[rename(f) for f in task.inputs],
                    outputs=[rename(f) for f in task.outputs],
                    compute_time=task.compute_time,
                    extra_ops=task.extra_ops,
                    stage=task.stage,
                )
            )
        return clone

    # -- graph queries ------------------------------------------------------------

    def producer_of(self, file_name: str) -> Optional[Task]:
        """The task writing ``file_name``, or None for initial inputs."""
        tid = self._producer.get(file_name)
        return self.tasks[tid] if tid is not None else None

    def parents(self, task: Task) -> List[Task]:
        """Distinct tasks producing this task's inputs."""
        seen: Set[str] = set()
        out: List[Task] = []
        for f in task.inputs:
            p = self.producer_of(f.name)
            if p is not None and p.task_id not in seen:
                seen.add(p.task_id)
                out.append(p)
        return out

    def children(self, task: Task) -> List[Task]:
        """Distinct tasks consuming this task's outputs."""
        out_names = {f.name for f in task.outputs}
        return [
            t
            for t in self.tasks.values()
            if any(f.name in out_names for f in t.inputs)
        ]

    def initial_inputs(self) -> List[WorkflowFile]:
        """Files read by tasks but produced by none (external inputs)."""
        seen: Set[str] = set()
        out: List[WorkflowFile] = []
        for t in self.tasks.values():
            for f in t.inputs:
                if f.name not in self._producer and f.name not in seen:
                    seen.add(f.name)
                    out.append(f)
        return out

    def roots(self) -> List[Task]:
        """Tasks with no produced inputs (may still read initial inputs)."""
        return [t for t in self.tasks.values() if not self.parents(t)]

    def sinks(self) -> List[Task]:
        return [t for t in self.tasks.values() if not self.children(t)]

    # -- ordering --------------------------------------------------------------------

    def topological_order(self) -> List[Task]:
        """Kahn's algorithm; raises on cycles."""
        indeg: Dict[str, int] = {}
        # Child lists come from parents(), which reads the producer
        # index; children() would rescan every task's inputs per call.
        kids: Dict[str, List[str]] = {tid: [] for tid in self.tasks}
        for tid, task in self.tasks.items():
            parents = self.parents(task)
            indeg[tid] = len(parents)
            for p in parents:
                kids[p.task_id].append(tid)
        # Deterministic ordering: process ready tasks in id order (so
        # the order children are released in does not matter).
        ready = sorted(tid for tid, d in indeg.items() if d == 0)
        order: List[Task] = []
        while ready:
            tid = ready.pop(0)
            order.append(self.tasks[tid])
            for child in kids[tid]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    bisect.insort(ready, child)
        if len(order) != len(self.tasks):
            raise WorkflowValidationError(
                f"workflow {self.name!r} contains a cycle"
            )
        return order

    def levels(self) -> List[List[Task]]:
        """Tasks grouped by depth (parallel waves)."""
        depth: Dict[str, int] = {}
        for task in self.topological_order():
            ps = self.parents(task)
            depth[task.task_id] = (
                1 + max(depth[p.task_id] for p in ps) if ps else 0
            )
        n_levels = max(depth.values()) + 1 if depth else 0
        out: List[List[Task]] = [[] for _ in range(n_levels)]
        for tid, d in depth.items():
            out[d].append(self.tasks[tid])
        for level in out:
            level.sort(key=lambda t: t.task_id)
        return out

    def validate(self) -> None:
        """Full structural check: acyclicity (implicit) + sanity."""
        self.topological_order()

    # -- aggregate properties -----------------------------------------------------------

    @property
    def total_metadata_ops(self) -> int:
        return sum(t.metadata_ops for t in self.tasks.values())

    @property
    def total_compute_time(self) -> float:
        return sum(t.compute_time for t in self.tasks.values())

    def critical_path_time(self) -> float:
        """Lower bound on makespan from compute times alone."""
        finish: Dict[str, float] = {}
        for task in self.topological_order():
            start = max(
                (finish[p.task_id] for p in self.parents(task)), default=0.0
            )
            finish[task.task_id] = start + task.compute_time
        return max(finish.values(), default=0.0)

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks.values())

    def __repr__(self) -> str:
        return f"<Workflow {self.name} tasks={len(self)}>"
