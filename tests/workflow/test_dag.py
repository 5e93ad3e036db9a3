"""Tests for the workflow DAG structures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario.spec import WORKFLOW_BUILDERS
from repro.workflow.dag import (
    Task,
    Workflow,
    WorkflowFile,
    WorkflowValidationError,
)


def wf_chain(n):
    wf = Workflow("chain")
    prev = None
    for i in range(n):
        out = WorkflowFile(f"f{i}")
        wf.add_task(
            Task(
                f"t{i}",
                inputs=[prev] if prev else [],
                outputs=[out],
                compute_time=1.0,
            )
        )
        prev = out
    return wf


def reference_order(wf):
    """Task ids in Kahn order, walking ``children()`` per task: the
    quadratic reference sort.  A cycle leaves tasks out."""
    indeg = {tid: len(wf.parents(t)) for tid, t in wf.tasks.items()}
    ready = sorted(tid for tid, d in indeg.items() if d == 0)
    order = []
    while ready:
        tid = ready.pop(0)
        order.append(tid)
        for child in sorted(
            wf.children(wf.tasks[tid]), key=lambda t: t.task_id
        ):
            indeg[child.task_id] -= 1
            if indeg[child.task_id] == 0:
                ready.append(child.task_id)
                ready.sort()
    return order


def random_dag(seed, n=40):
    """A seeded DAG whose id order differs from its dependency order:
    each task reads a random subset (with repeats) of earlier outputs
    and some initial inputs, under a shuffled id."""
    rng = random.Random(seed)
    ids = [f"t{i:02d}" for i in range(n)]
    rng.shuffle(ids)
    wf = Workflow(f"random-{seed}")
    files = [WorkflowFile(f"in{i}") for i in range(3)]
    for tid in ids:
        inputs = [rng.choice(files) for _ in range(rng.randrange(4))]
        outputs = [
            WorkflowFile(f"{tid}/{k}") for k in range(rng.randint(1, 2))
        ]
        wf.add_task(Task(tid, inputs=inputs, outputs=outputs))
        files.extend(outputs)
    return wf


class TestValidation:
    def test_empty_names_rejected(self):
        with pytest.raises(ValueError):
            Workflow("")
        with pytest.raises(ValueError):
            Task("")
        with pytest.raises(ValueError):
            WorkflowFile("")

    def test_duplicate_task_rejected(self):
        wf = Workflow("w")
        wf.add_task(Task("a"))
        with pytest.raises(WorkflowValidationError):
            wf.add_task(Task("a"))

    def test_write_once_enforced(self):
        wf = Workflow("w")
        wf.add_task(Task("a", outputs=[WorkflowFile("f")]))
        with pytest.raises(WorkflowValidationError, match="write-once"):
            wf.add_task(Task("b", outputs=[WorkflowFile("f")]))

    def test_duplicate_outputs_within_task(self):
        with pytest.raises(ValueError):
            Task("a", outputs=[WorkflowFile("f"), WorkflowFile("f")])

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Task("a", compute_time=-1)


class TestGraphQueries:
    def test_parents_children(self):
        wf = wf_chain(3)
        t0, t1, t2 = (wf.tasks[f"t{i}"] for i in range(3))
        assert wf.parents(t0) == []
        assert wf.parents(t1) == [t0]
        assert wf.children(t1) == [t2]
        assert wf.producer_of("f0") is t0
        assert wf.producer_of("external") is None

    def test_roots_and_sinks(self):
        wf = wf_chain(4)
        assert [t.task_id for t in wf.roots()] == ["t0"]
        assert [t.task_id for t in wf.sinks()] == ["t3"]

    def test_initial_inputs(self):
        wf = Workflow("w")
        wf.add_task(Task("a", inputs=[WorkflowFile("external.dat")]))
        assert [f.name for f in wf.initial_inputs()] == ["external.dat"]

    def test_diamond_parents_distinct(self):
        wf = Workflow("d")
        a_out = WorkflowFile("a-out")
        b_out = WorkflowFile("b-out")
        wf.add_task(Task("a", outputs=[a_out]))
        wf.add_task(Task("b", inputs=[a_out], outputs=[b_out]))
        wf.add_task(Task("c", inputs=[a_out], outputs=[WorkflowFile("c-out")]))
        wf.add_task(
            Task("d", inputs=[b_out, WorkflowFile("c-out")])
        )
        d = wf.tasks["d"]
        assert sorted(t.task_id for t in wf.parents(d)) == ["b", "c"]


class TestOrdering:
    def test_topological_order_respects_deps(self):
        wf = wf_chain(5)
        order = [t.task_id for t in wf.topological_order()]
        assert order == [f"t{i}" for i in range(5)]

    def test_cycle_detected(self):
        wf = Workflow("cyclic")
        f1, f2 = WorkflowFile("f1"), WorkflowFile("f2")
        wf.add_task(Task("a", inputs=[f2], outputs=[f1]))
        wf.add_task(Task("b", inputs=[f1], outputs=[f2]))
        with pytest.raises(WorkflowValidationError, match="cycle"):
            wf.topological_order()

    def test_levels(self):
        wf = Workflow("w")
        s = WorkflowFile("s")
        wf.add_task(Task("split", outputs=[s]))
        for i in range(3):
            wf.add_task(
                Task(f"p{i}", inputs=[s], outputs=[WorkflowFile(f"o{i}")])
            )
        levels = wf.levels()
        assert [t.task_id for t in levels[0]] == ["split"]
        assert sorted(t.task_id for t in levels[1]) == ["p0", "p1", "p2"]

    def test_critical_path(self):
        wf = wf_chain(4)  # four 1-second tasks in sequence
        assert wf.critical_path_time() == 4.0

    def test_metadata_ops_total(self):
        wf = Workflow("w")
        wf.add_task(Task("a", outputs=[WorkflowFile("f")], extra_ops=10))
        assert wf.total_metadata_ops == 11


class TestDagProperties:
    @given(
        widths=st.lists(
            st.integers(min_value=1, max_value=5), min_size=1, max_size=6
        )
    )
    @settings(max_examples=30)
    def test_layered_dag_invariants(self, widths):
        """For any layered DAG: topo order valid, levels match layers."""
        wf = Workflow("rand")
        prev_outputs = []
        for li, width in enumerate(widths):
            outputs = []
            for j in range(width):
                out = WorkflowFile(f"L{li}-{j}")
                outputs.append(out)
                wf.add_task(
                    Task(
                        f"t{li}-{j}",
                        inputs=list(prev_outputs),
                        outputs=[out],
                    )
                )
            prev_outputs = outputs
        order = wf.topological_order()
        assert len(order) == sum(widths)
        assert [t.task_id for t in order] == reference_order(wf)
        pos = {t.task_id: i for i, t in enumerate(order)}
        for t in wf:
            for p in wf.parents(t):
                assert pos[p.task_id] < pos[t.task_id]
        levels = wf.levels()
        assert [len(lv) for lv in levels] == widths
        # Critical path: one task per layer.
        assert wf.critical_path_time() == pytest.approx(len(widths) * 1.0)


class TestTopologicalOrderMatchesReference:
    """The O(V + E) sort visits tasks exactly as the children()-based
    Kahn sort it replaced."""

    @pytest.mark.parametrize("name", sorted(WORKFLOW_BUILDERS))
    @pytest.mark.parametrize("prefix", [None, "tenant-07"])
    def test_application_dags(self, name, prefix):
        wf = WORKFLOW_BUILDERS[name]()
        if prefix is not None:
            wf = wf.namespaced(prefix)
        order = [t.task_id for t in wf.topological_order()]
        assert order == reference_order(wf)
        assert len(order) == len(wf)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_dags(self, seed):
        wf = random_dag(seed)
        order = [t.task_id for t in wf.topological_order()]
        assert order == reference_order(wf)
        assert len(order) == len(wf)

    @pytest.mark.parametrize("seed", range(5))
    def test_cycle_behind_valid_prefix_raises(self, seed):
        wf = random_dag(seed)
        f1, f2, f3 = (WorkflowFile(f"cyc{i}") for i in range(3))
        wf.add_task(Task("zz-a", inputs=[f3], outputs=[f1]))
        wf.add_task(Task("zz-b", inputs=[f1], outputs=[f2]))
        wf.add_task(Task("zz-c", inputs=[f2], outputs=[f3]))
        assert len(reference_order(wf)) == len(wf) - 3
        with pytest.raises(WorkflowValidationError, match="cycle"):
            wf.topological_order()

    def test_self_loop_raises(self):
        wf = Workflow("loop")
        f = WorkflowFile("f")
        wf.add_task(Task("a", inputs=[f], outputs=[f]))
        with pytest.raises(WorkflowValidationError, match="cycle"):
            wf.validate()
