"""Tests for the five access patterns and the two application models."""

import pytest

from repro.workflow.applications import (
    BUZZFLOW_JOBS,
    MONTAGE_JOBS,
    buzzflow,
    montage,
)
from repro.workflow.patterns import (
    broadcast,
    gather,
    pipeline,
    reduce_tree,
    scatter,
)
from repro.experiments.fig10_workflows import TABLE_I


class TestPipeline:
    def test_linear_chain(self):
        wf = pipeline(5)
        wf.validate()
        assert len(wf) == 5
        assert len(wf.roots()) == 1
        assert len(wf.sinks()) == 1
        assert len(wf.levels()) == 5  # fully sequential

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pipeline(0)


class TestScatter:
    def test_shape(self):
        wf = scatter(6)
        wf.validate()
        assert len(wf) == 7
        levels = wf.levels()
        assert len(levels[0]) == 1 and len(levels[1]) == 6

    def test_workers_independent(self):
        wf = scatter(4)
        workers = [t for t in wf if t.stage == "worker"]
        for w in workers:
            assert len(wf.parents(w)) == 1


class TestGather:
    def test_shape(self):
        wf = gather(5)
        wf.validate()
        assert len(wf) == 6
        collect = wf.tasks["gather-collect"]
        assert len(wf.parents(collect)) == 5


class TestReduceTree:
    def test_binary_tree(self):
        wf = reduce_tree(8, arity=2)
        wf.validate()
        # 8 leaves + 4 + 2 + 1 reducers.
        assert len(wf) == 15
        assert len(wf.sinks()) == 1

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            reduce_tree(4, arity=1)

    def test_uneven_leaves(self):
        wf = reduce_tree(5, arity=2)
        wf.validate()
        assert len(wf.sinks()) == 1


class TestBroadcast:
    def test_hot_entry_shape(self):
        wf = broadcast(7)
        wf.validate()
        source = wf.tasks["broadcast-source"]
        assert len(wf.children(source)) == 7
        # All consumers read the SAME file: the hot metadata entry.
        consumer_inputs = {
            f.name
            for t in wf
            if t.stage == "consumer"
            for f in t.inputs
        }
        assert len(consumer_inputs) == 1


class TestBuzzFlow:
    def test_job_count_matches_table1(self):
        wf = buzzflow()
        assert len(wf) == BUZZFLOW_JOBS == 72

    def test_near_pipeline_shape(self):
        """Long and narrow: many levels, small width."""
        wf = buzzflow()
        levels = wf.levels()
        assert len(levels) == 18
        assert all(len(lv) == 4 for lv in levels)

    def test_table1_totals(self):
        for row in TABLE_I.values():
            wf = buzzflow(**row)
            assert wf.total_metadata_ops == row["ops_per_task"] * BUZZFLOW_JOBS

    def test_stage_dependencies(self):
        wf = buzzflow(width=3, n_stages=4)
        t = wf.tasks["buzz-2-0"]
        parents = {p.task_id for p in wf.parents(t)}
        assert parents == {"buzz-1-0", "buzz-1-1", "buzz-1-2"}


class TestMontage:
    def test_job_count_matches_table1(self):
        wf = montage()
        assert len(wf) == MONTAGE_JOBS == 160

    def test_split_parallel_merge_shape(self):
        wf = montage()
        levels = wf.levels()
        assert len(levels) == 4  # split, project, merge, mosaic
        assert len(levels[0]) == 1
        assert len(levels[1]) == 156
        assert len(levels[2]) == 2
        assert len(levels[3]) == 1

    def test_table1_totals(self):
        # SS: the split job's 156 mandatory output publishes exceed the
        # 100-op budget, so the total lands 0.35 % above Table I.
        wf = montage(ops_per_task=TABLE_I["SS"]["ops_per_task"])
        assert abs(wf.total_metadata_ops - 16_000) / 16_000 < 0.005
        # CI and MI budgets exceed the structural op counts: exact.
        wf = montage(ops_per_task=TABLE_I["CI"]["ops_per_task"])
        assert wf.total_metadata_ops == 32_000
        wf = montage(ops_per_task=TABLE_I["MI"]["ops_per_task"])
        assert wf.total_metadata_ops == 160_000  # paper rounds to 150k

    def test_split_fans_out_to_all_projections(self):
        wf = montage(n_parallel=12, n_merges=2)
        split = wf.tasks["montage-split"]
        assert len(wf.children(split)) == 12

    def test_merge_divisibility_enforced(self):
        with pytest.raises(ValueError):
            montage(n_parallel=5, n_merges=2)
