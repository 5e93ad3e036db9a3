"""Tests for the Section VI-B synthetic reader/writer workload."""

import pytest

from repro.experiments.synthetic import run_synthetic_workload


@pytest.fixture
def cfg(fast_config):
    return fast_config


class TestSyntheticWorkload:
    def test_completes_all_ops(self, cfg):
        res = run_synthetic_workload(
            "centralized", n_nodes=8, ops_per_node=20, seed=1, config=cfg
        )
        assert res.total_ops == 160
        assert len(res.ops.records) == 160
        assert res.makespan > 0
        assert res.throughput > 0

    def test_roles_split_within_sites(self, cfg):
        res = run_synthetic_workload(
            "decentralized", n_nodes=8, ops_per_node=10, seed=1, config=cfg
        )
        # 4 writers and 4 readers, one of each per site.
        writes = res.ops.count_by_kind.__self__  # same OpStats
        from repro.metadata.stats import OpKind

        assert res.ops.count_by_kind(OpKind.WRITE) == 40
        assert res.ops.count_by_kind(OpKind.READ) == 40

    def test_reads_target_written_files(self, cfg):
        """Readers only request published keys: every read is found."""
        res = run_synthetic_workload(
            "centralized", n_nodes=4, ops_per_node=30, seed=2, config=cfg
        )
        from repro.metadata.stats import OpKind

        reads = [r for r in res.ops.records if r.kind is OpKind.READ]
        assert reads and all(r.found for r in reads)

    def test_deterministic_given_seed(self, cfg):
        a = run_synthetic_workload(
            "hybrid", n_nodes=4, ops_per_node=25, seed=9, config=cfg
        )
        b = run_synthetic_workload(
            "hybrid", n_nodes=4, ops_per_node=25, seed=9, config=cfg
        )
        assert a.makespan == b.makespan
        assert a.node_times == b.node_times

    def test_different_seeds_differ(self, cfg):
        a = run_synthetic_workload(
            "hybrid", n_nodes=4, ops_per_node=25, seed=1, config=cfg
        )
        b = run_synthetic_workload(
            "hybrid", n_nodes=4, ops_per_node=25, seed=2, config=cfg
        )
        assert a.makespan != b.makespan

    def test_node_time_by_site_covers_sites(self, cfg):
        res = run_synthetic_workload(
            "decentralized", n_nodes=8, ops_per_node=10, seed=3, config=cfg
        )
        assert set(res.node_time_by_site()) == {
            "west-europe",
            "north-europe",
            "east-us",
            "south-central-us",
        }

    def test_validation(self, cfg):
        with pytest.raises(ValueError):
            run_synthetic_workload("centralized", n_nodes=1, config=cfg)
        with pytest.raises(ValueError):
            run_synthetic_workload(
                "centralized", n_nodes=4, ops_per_node=0, config=cfg
            )

    def test_replicated_pays_visibility_penalty(self, cfg):
        """Replicated reads retry while entries are unsynced; the trace
        records those retries (the MI-penalty mechanism)."""
        res = run_synthetic_workload(
            "replicated", n_nodes=8, ops_per_node=40, seed=4, config=cfg
        )
        assert res.ops.total_retries > 0
