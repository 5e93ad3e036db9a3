"""Tests for trace generation and workload characterization."""

import numpy as np
import pytest

from repro.workflow.applications import montage
from repro.workflow.patterns import broadcast, gather, pipeline, scatter
from repro.workflow.traces import (
    HUMAN_GENOME,
    SLOAN_SKY_SURVEY,
    TraceProfile,
    characterize,
    generate_trace_workflow,
)


class TestTraceProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceProfile(median_file_size=0)
        with pytest.raises(ValueError):
            TraceProfile(pattern_mix=(0.5, 0.5))
        with pytest.raises(ValueError):
            TraceProfile(pattern_mix=(0.9, 0.2, 0.2))


class TestGeneration:
    def test_valid_dag(self):
        wf = generate_trace_workflow(HUMAN_GENOME, n_stages=5, stage_width=3)
        wf.validate()
        assert len(wf) >= 5

    def test_deterministic_by_seed(self):
        a = generate_trace_workflow(HUMAN_GENOME, seed=3)
        b = generate_trace_workflow(HUMAN_GENOME, seed=3)
        assert [t.task_id for t in a] == [t.task_id for t in b]
        assert [f.size for t in a for f in t.outputs] == [
            f.size for t in b for f in t.outputs
        ]

    def test_file_sizes_follow_median(self):
        wf = generate_trace_workflow(
            HUMAN_GENOME, n_stages=20, stage_width=8, seed=1
        )
        sizes = [f.size for t in wf for f in t.outputs]
        median = float(np.median(sizes))
        # Lognormal around 190 KB: the sample median lands nearby.
        assert 0.5 * HUMAN_GENOME.median_file_size < median
        assert median < 2.0 * HUMAN_GENOME.median_file_size

    def test_profiles_differ(self):
        genome = generate_trace_workflow(HUMAN_GENOME, seed=2, n_stages=10)
        sloan = generate_trace_workflow(SLOAN_SKY_SURVEY, seed=2, n_stages=10)
        g_sizes = np.median([f.size for t in genome for f in t.outputs])
        s_sizes = np.median([f.size for t in sloan for f in t.outputs])
        assert s_sizes > g_sizes  # Sloan images are bigger

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_trace_workflow(HUMAN_GENOME, n_stages=0)


class TestCharacterize:
    def test_pipeline_detected(self):
        ch = characterize(pipeline(8))
        assert ch.dominant_pattern == "pipeline"

    def test_scatter_produces_broadcasty_consumers(self):
        # A scatter stage's workers each read a distinct split file ->
        # pipeline-ish consumers; the splitter itself is a scatter.
        ch = characterize(scatter(6))
        assert ch.pattern_counts["scatter"] >= 1

    def test_broadcast_detected(self):
        ch = characterize(broadcast(6))
        assert ch.pattern_counts["broadcast"] == 6

    def test_gather_detected(self):
        ch = characterize(gather(5))
        assert ch.pattern_counts["gather"] == 1

    def test_montage_mix(self):
        ch = characterize(montage(ops_per_task=100))
        # 156 projections each reading a distinct tile + 2 gathers + final.
        assert ch.pattern_counts["gather"] >= 2
        assert ch.n_tasks == 160
        assert ch.small_file_fraction == 1.0

    def test_metadata_intensity(self):
        assert characterize(montage(ops_per_task=1000)).is_metadata_intensive()
        assert not characterize(
            montage(ops_per_task=100)
        ).is_metadata_intensive()

    def test_read_write_ratio(self):
        ch = characterize(pipeline(4, extra_ops=0))
        # 3 reads (stage inputs) / 4 writes (stage outputs).
        assert ch.read_write_ratio == pytest.approx(0.75)

    def test_empty_rejected(self):
        from repro.workflow.dag import Workflow

        with pytest.raises(ValueError):
            characterize(Workflow("empty"))
