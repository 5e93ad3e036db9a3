"""Tests for the related-work comparison strategies and extensions."""

import pytest

from repro.cloud.deployment import Deployment
from repro.cloud.presets import azure_4dc_topology
from repro.metadata.controller import ArchitectureController
from repro.metadata.entry import RegistryEntry
from repro.metadata.strategies.extensions import (
    KReplicatedStrategy,
    RelationalDBStrategy,
    SubtreePartitionedStrategy,
)


@pytest.fixture
def dep():
    return Deployment(
        topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=31
    )


def drive(env, gen):
    return env.run(until=env.process(gen))


def e(key, site="west-europe"):
    return RegistryEntry(key=key, locations=frozenset({site}))


class TestSubtreePartitioned:
    def test_directory_colocation(self, dep, fast_config):
        """All entries under one directory live at one site -- maximal
        locality, and the hot-directory hazard."""
        strat = SubtreePartitionedStrategy(
            dep.env, dep.network, dep.sites, fast_config
        )

        def flow():
            for i in range(30):
                yield from strat.write("west-europe", e(f"hotdir/file-{i}"))

        drive(dep.env, flow())
        owner = strat.site_for("hotdir/anything")
        assert len(strat.registries[owner]) == 30
        for site, reg in strat.registries.items():
            if site != owner:
                assert len(reg) == 0

    def test_imbalance_vs_hashing(self, dep, fast_config):
        """A single hot directory maximally imbalances subtree
        partitioning while consistent hashing spreads it."""
        from repro.metadata.strategies import DecentralizedStrategy

        sub = SubtreePartitionedStrategy(
            dep.env, dep.network, dep.sites, fast_config
        )
        dht = DecentralizedStrategy(
            dep.env, dep.network, dep.sites, fast_config
        )

        def flow(strategy):
            for i in range(80):
                yield from strategy.write("west-europe", e(f"hot/f-{i}"))

        drive(dep.env, flow(sub))
        drive(dep.env, flow(dht))
        assert sub.load_imbalance() == pytest.approx(len(dep.sites))
        dht_counts = [len(r) for r in dht.registries.values()]
        assert max(dht_counts) < 80  # spread over several sites

    def test_flat_keys_form_singleton_subtrees(self):
        assert SubtreePartitionedStrategy.subtree_of("flatfile") == "flatfile"
        assert SubtreePartitionedStrategy.subtree_of("a/b/c") == "a"

    def test_read_roundtrip(self, dep, fast_config):
        strat = SubtreePartitionedStrategy(
            dep.env, dep.network, dep.sites, fast_config
        )

        def flow():
            yield from strat.write("east-us", e("dir/x", "east-us"))
            got = yield from strat.read("north-europe", "dir/x")
            return got

        assert drive(dep.env, flow()) is not None


class TestRelationalDB:
    def test_db_overhead_slows_service(self, dep, fast_config):
        from repro.metadata.strategies import CentralizedStrategy

        db = RelationalDBStrategy(dep.env, dep.network, dep.sites, fast_config)
        mem = CentralizedStrategy(dep.env, dep.network, dep.sites, fast_config)
        assert db.registry.config.service_time == pytest.approx(
            mem.registry.config.service_time * 10
        )

    def test_functional_roundtrip(self, dep, fast_config):
        strat = RelationalDBStrategy(
            dep.env, dep.network, dep.sites, fast_config
        )

        def flow():
            yield from strat.write("west-europe", e("row-1"))
            got = yield from strat.read("east-us", "row-1")
            return got

        assert drive(dep.env, flow()) is not None

    def test_slower_than_in_memory_under_load(
        self, run_synthetic, fast_config
    ):
        """The paper's claim: DBs are too heavy for metadata-intensive
        workloads."""
        mem = run_synthetic(
            "centralized", n_nodes=8, ops_per_node=60, seed=1,
            config=fast_config,
        )
        db = run_synthetic(
            "relational-db", n_nodes=8, ops_per_node=60, seed=1,
            config=fast_config,
        )
        assert db.makespan > mem.makespan


class TestKReplicated:
    def test_entries_at_k_sites(self, dep, fast_config):
        strat = KReplicatedStrategy(
            dep.env, dep.network, dep.sites, fast_config, replication_factor=2
        )

        def flow():
            for i in range(20):
                yield from strat.write("west-europe", e(f"f{i}"))

        drive(dep.env, flow())
        for i in range(20):
            holders = [
                s for s, reg in strat.registries.items() if f"f{i}" in reg
            ]
            assert sorted(holders) == sorted(strat.replica_sites(f"f{i}"))
            assert len(holders) == 2

    def test_k_capped_by_site_count(self, dep, fast_config):
        strat = KReplicatedStrategy(
            dep.env, dep.network, dep.sites, fast_config, replication_factor=99
        )
        assert strat.k == len(dep.sites)

    def test_invalid_k(self, dep, fast_config):
        with pytest.raises(ValueError):
            KReplicatedStrategy(
                dep.env, dep.network, dep.sites, fast_config,
                replication_factor=0,
            )

    def test_read_uses_nearest_replica(self, dep, fast_config):
        strat = KReplicatedStrategy(
            dep.env, dep.network, dep.sites, fast_config, replication_factor=4
        )

        def flow():
            yield from strat.write("west-europe", e("everywhere"))
            t0 = dep.env.now
            yield from strat.read("south-central-us", "everywhere")
            return dep.env.now - t0

        # k=4 => a replica exists at every site: the read is local.
        latency = drive(dep.env, flow())
        assert latency < 0.02

    def test_delete_removes_all_replicas(self, dep, fast_config):
        strat = KReplicatedStrategy(
            dep.env, dep.network, dep.sites, fast_config, replication_factor=3
        )

        def flow():
            yield from strat.write("west-europe", e("gone"))
            existed = yield from strat.delete("west-europe", "gone")
            return existed

        assert drive(dep.env, flow()) is True
        assert all("gone" not in reg for reg in strat.registries.values())


class TestControllerIntegration:
    @pytest.mark.parametrize(
        "name", ["subtree", "relational-db", "k-replicated"]
    )
    def test_available_via_controller(self, dep, fast_config, name):
        ctrl = ArchitectureController(dep, strategy=name, config=fast_config)

        def flow():
            yield from ctrl.write("west-europe", e("k"))
            got = yield from ctrl.read("east-us", "k", require_found=True)
            return got

        assert drive(dep.env, flow()) is not None
        ctrl.shutdown()
