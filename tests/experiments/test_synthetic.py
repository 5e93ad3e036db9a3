"""Tests for the Section VI-B synthetic reader/writer workload."""

import pytest

from repro.metadata.stats import OpKind
from repro.scenario import get_scenario


@pytest.fixture
def run(run_synthetic, fast_config):
    """The benchmark at the fast test calibration."""

    def go(strategy, n_nodes, ops_per_node, seed):
        return run_synthetic(
            strategy, n_nodes, ops_per_node, seed=seed, config=fast_config
        )

    return go


class TestSyntheticWorkload:
    def test_completes_all_ops(self, run):
        res = run("centralized", n_nodes=8, ops_per_node=20, seed=1)
        assert res.total_ops == 160
        assert len(res.ops.records) == 160
        assert res.makespan > 0
        assert res.throughput > 0

    def test_roles_split_within_sites(self, run):
        res = run("decentralized", n_nodes=8, ops_per_node=10, seed=1)
        # 4 writers and 4 readers, one of each per site.
        assert res.ops.count_by_kind(OpKind.WRITE) == 40
        assert res.ops.count_by_kind(OpKind.READ) == 40

    def test_reads_target_written_files(self, run):
        """Readers only request published keys: every read is found."""
        res = run("centralized", n_nodes=4, ops_per_node=30, seed=2)
        reads = [r for r in res.ops.records if r.kind is OpKind.READ]
        assert reads and all(r.found for r in reads)

    def test_deterministic_given_seed(self, run):
        a = run("hybrid", n_nodes=4, ops_per_node=25, seed=9)
        b = run("hybrid", n_nodes=4, ops_per_node=25, seed=9)
        assert a.makespan == b.makespan
        assert a.node_times == b.node_times

    def test_different_seeds_differ(self, run):
        a = run("hybrid", n_nodes=4, ops_per_node=25, seed=1)
        b = run("hybrid", n_nodes=4, ops_per_node=25, seed=2)
        assert a.makespan != b.makespan

    def test_node_time_by_site_covers_sites(self, run):
        res = run("decentralized", n_nodes=8, ops_per_node=10, seed=3)
        assert set(res.node_time_by_site()) == {
            "west-europe",
            "north-europe",
            "east-us",
            "south-central-us",
        }

    def test_validation(self, run):
        with pytest.raises(ValueError, match="too small"):
            run("centralized", n_nodes=1, ops_per_node=10, seed=0)
        with pytest.raises(ValueError, match="ops_per_node"):
            get_scenario("paper_synthetic").replace(ops_per_node=0).run()

    def test_replicated_pays_visibility_penalty(self, run):
        """Replicated reads retry while entries are unsynced; the trace
        records those retries (the MI-penalty mechanism)."""
        res = run("replicated", n_nodes=8, ops_per_node=40, seed=4)
        assert res.ops.total_retries > 0
