"""Tests for the strategy advisor."""

import pytest

from repro.analysis.advisor import (
    WorkloadProfile,
    profile_workflow,
    recommend_strategy,
)
from repro.metadata.controller import StrategyName
from repro.util.units import KB, MB
from repro.workflow.applications import buzzflow, montage


def profile(**kw):
    defaults = dict(
        n_sites=4,
        n_nodes=32,
        ops_per_task=1000,
        mean_file_size=200 * KB,
        parallelism_ratio=0.5,
        n_tasks=100,
    )
    defaults.update(kw)
    return WorkloadProfile(**defaults)


class TestAdvisor:
    def test_single_site_centralized(self):
        strat, reasons = recommend_strategy(profile(n_sites=1))
        assert strat == StrategyName.CENTRALIZED
        assert reasons

    def test_small_scale_centralized(self):
        strat, _ = recommend_strategy(
            profile(n_nodes=16, ops_per_task=100, n_tasks=50)
        )
        assert strat == StrategyName.CENTRALIZED

    def test_large_files_low_ops_replicated(self):
        strat, _ = recommend_strategy(
            profile(
                mean_file_size=200 * MB,
                ops_per_task=50,
                n_nodes=64,
                n_tasks=400,
            )
        )
        assert strat == StrategyName.REPLICATED

    def test_parallel_small_files_decentralized(self):
        strat, _ = recommend_strategy(
            profile(parallelism_ratio=0.9, n_nodes=128)
        )
        assert strat == StrategyName.DECENTRALIZED

    def test_pipeline_small_files_hybrid(self):
        strat, _ = recommend_strategy(
            profile(parallelism_ratio=0.05, n_nodes=128)
        )
        assert strat == StrategyName.HYBRID

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            profile(n_sites=0)
        with pytest.raises(ValueError):
            profile(parallelism_ratio=1.5)


class TestProfileWorkflow:
    def test_montage_is_parallel(self):
        wf = montage(ops_per_task=1000)
        p = profile_workflow(wf, n_sites=4, n_nodes=32)
        assert p.parallelism_ratio > 0.5
        strat, _ = recommend_strategy(p)
        assert strat == StrategyName.DECENTRALIZED

    def test_buzzflow_is_near_pipeline(self):
        wf = buzzflow(ops_per_task=1000)
        p = profile_workflow(wf, n_sites=4, n_nodes=32)
        assert p.parallelism_ratio < 0.1
        strat, _ = recommend_strategy(p)
        assert strat == StrategyName.HYBRID

    def test_empty_workflow_rejected(self):
        from repro.workflow.dag import Workflow

        with pytest.raises(ValueError):
            profile_workflow(Workflow("empty"), n_sites=4, n_nodes=8)

