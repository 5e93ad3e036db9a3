"""Behavioural tests for the four metadata management strategies."""

import pytest

from repro.cloud.deployment import Deployment
from repro.cloud.presets import AZURE_4DC, azure_4dc_topology
from repro.metadata.entry import RegistryEntry
from repro.metadata.stats import OpKind
from repro.metadata.strategies import (
    CentralizedStrategy,
    DecentralizedStrategy,
    HybridStrategy,
    ReplicatedStrategy,
)
from repro.metadata.strategies.base import ReadMissError

ALL_STRATEGIES = [
    CentralizedStrategy,
    ReplicatedStrategy,
    DecentralizedStrategy,
    HybridStrategy,
]


@pytest.fixture
def dep():
    return Deployment(
        topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=3
    )


@pytest.fixture
def cfg(fast_config):
    return fast_config


def make(cls, dep, cfg):
    return cls(dep.env, dep.network, dep.sites, cfg)


def drive(env, gen):
    return env.run(until=env.process(gen))


def entry(key="f", site="west-europe"):
    return RegistryEntry(key=key, locations=frozenset({site}))


@pytest.mark.parametrize("cls", ALL_STRATEGIES)
class TestCommonSemantics:
    def test_write_then_read_roundtrip(self, cls, dep, cfg):
        strat = make(cls, dep, cfg)

        def flow():
            yield from strat.write("west-europe", entry())
            got = yield from strat.read(
                "east-us", "f", require_found=True
            )
            return got

        got = drive(dep.env, flow())
        strat.shutdown()
        assert got is not None
        assert "west-europe" in got.locations

    def test_plain_miss_returns_none(self, cls, dep, cfg):
        strat = make(cls, dep, cfg)

        def flow():
            got = yield from strat.read("east-us", "ghost")
            return got

        assert drive(dep.env, flow()) is None
        strat.shutdown()

    def test_ops_recorded(self, cls, dep, cfg):
        strat = make(cls, dep, cfg)

        def flow():
            yield from strat.write("west-europe", entry())
            yield from strat.read("west-europe", "f")

        drive(dep.env, flow())
        strat.shutdown()
        assert strat.stats.count == 2
        assert strat.stats.count_by_kind(OpKind.WRITE) == 1
        assert strat.stats.count_by_kind(OpKind.READ) == 1
        for r in strat.stats.records:
            assert r.latency > 0

    def test_delete_removes_visibility(self, cls, dep, cfg):
        strat = make(cls, dep, cfg)

        def flow():
            yield from strat.write("west-europe", entry())
            yield from strat.flush()
            existed = yield from strat.delete("west-europe", "f")
            got = yield from strat.read("west-europe", "f")
            return existed, got

        existed, got = drive(dep.env, flow())
        strat.shutdown()
        assert existed is True
        assert got is None

    def test_required_read_gives_up_eventually(self, cls, dep, cfg):
        cfg.read_max_retries = 2
        strat = make(cls, dep, cfg)

        def flow():
            yield from strat.read("east-us", "never", require_found=True)

        with pytest.raises(ReadMissError):
            drive(dep.env, flow())
        strat.shutdown()

    def test_write_adds_writer_location(self, cls, dep, cfg):
        strat = make(cls, dep, cfg)

        def flow():
            stored = yield from strat.write(
                "north-europe", RegistryEntry(key="g")
            )
            return stored

        stored = drive(dep.env, flow())
        strat.shutdown()
        assert "north-europe" in stored.locations


class TestCentralized:
    def test_single_instance(self, dep, cfg):
        strat = make(CentralizedStrategy, dep, cfg)
        assert list(strat.registries) == [dep.sites[0]]

    def test_home_site_config(self, dep, cfg):
        cfg.home_site = "east-us"
        strat = make(CentralizedStrategy, dep, cfg)
        assert strat.home_site == "east-us"

    def test_bad_home_site(self, dep, cfg):
        cfg.home_site = "nowhere"
        with pytest.raises(ValueError):
            make(CentralizedStrategy, dep, cfg)

    def test_locality_flag(self, dep, cfg):
        strat = make(CentralizedStrategy, dep, cfg)

        def flow():
            yield from strat.write(strat.home_site, entry("local-key"))
            yield from strat.write("east-us", entry("remote-key"))

        drive(dep.env, flow())
        local, remote = strat.stats.records
        assert local.local and not remote.local

    def test_remote_ops_slower(self, dep, cfg):
        strat = make(CentralizedStrategy, dep, cfg)

        def flow():
            t0 = dep.env.now
            yield from strat.read(strat.home_site, "x")
            local_t = dep.env.now - t0
            t0 = dep.env.now
            yield from strat.read("south-central-us", "x")
            remote_t = dep.env.now - t0
            return local_t, remote_t

        local_t, remote_t = drive(dep.env, flow())
        assert remote_t > local_t * 5


class TestReplicated:
    def test_all_ops_local(self, dep, cfg):
        strat = make(ReplicatedStrategy, dep, cfg)

        def flow():
            for site in AZURE_4DC:
                yield from strat.write(site, entry(f"k-{site}", site))
                yield from strat.read(site, f"k-{site}")

        drive(dep.env, flow())
        strat.shutdown()
        assert all(r.local for r in strat.stats.records)

    def test_remote_visibility_after_sync(self, dep, cfg):
        strat = make(ReplicatedStrategy, dep, cfg)

        def flow():
            yield from strat.write("west-europe", entry())
            # Immediately miss at a remote site (not yet synced)...
            miss = yield from strat.read("east-us", "f")
            # ...then wait for the agent and hit.
            yield dep.env.timeout(cfg.sync_period * 4)
            hit = yield from strat.read("east-us", "f")
            return miss, hit

        miss, hit = drive(dep.env, flow())
        strat.shutdown()
        assert miss is None
        assert hit is not None

    def test_flush_makes_all_visible(self, dep, cfg):
        strat = make(ReplicatedStrategy, dep, cfg)

        def flow():
            for i in range(5):
                yield from strat.write("west-europe", entry(f"k{i}"))
            yield from strat.flush()

        drive(dep.env, flow())
        strat.shutdown()
        for reg in strat.registries.values():
            for i in range(5):
                assert f"k{i}" in reg


class TestDecentralized:
    def test_partitioned_not_replicated(self, dep, cfg):
        strat = make(DecentralizedStrategy, dep, cfg)
        keys = [f"file-{i}" for i in range(40)]

        def flow():
            for k in keys:
                yield from strat.write("west-europe", entry(k))

        drive(dep.env, flow())
        # Every key lives at exactly one instance: its DHT home.
        for k in keys:
            holders = [
                s for s, reg in strat.registries.items() if k in reg
            ]
            assert holders == [strat.home_of(k)]

    def test_local_fraction_about_one_over_n(self, dep, cfg):
        strat = make(DecentralizedStrategy, dep, cfg)

        def flow():
            for i in range(200):
                yield from strat.write("west-europe", entry(f"file-{i}"))

        drive(dep.env, flow())
        frac = strat.stats.local_fraction
        assert 0.10 < frac < 0.45  # ~1/4 for 4 sites


class TestHybrid:
    def test_local_replica_plus_home_copy(self, dep, cfg):
        strat = make(HybridStrategy, dep, cfg)

        def flow():
            yield from strat.write("west-europe", entry("file-x"))
            yield from strat.flush()

        drive(dep.env, flow())
        strat.shutdown()
        home = strat.home_of("file-x")
        assert "file-x" in strat.registries["west-europe"]
        assert "file-x" in strat.registries[home]
        # And nowhere else.
        extra = [
            s
            for s, reg in strat.registries.items()
            if "file-x" in reg and s not in {home, "west-europe"}
        ]
        assert extra == []

    def test_local_read_hit_after_local_write(self, dep, cfg):
        strat = make(HybridStrategy, dep, cfg)

        def flow():
            yield from strat.write("west-europe", entry("file-x"))
            got = yield from strat.read("west-europe", "file-x")
            return got

        got = drive(dep.env, flow())
        strat.shutdown()
        assert got is not None
        assert strat.local_hits >= 1
        # The local-hit read never left the site.
        read_rec = strat.stats.records[-1]
        assert read_rec.local

    def test_remote_read_falls_through_to_home(self, dep, cfg):
        strat = make(HybridStrategy, dep, cfg)

        def flow():
            yield from strat.write("west-europe", entry("file-y"))
            yield from strat.flush()
            # Read from a site that is neither writer nor (necessarily)
            # home: resolves via the hash site.
            sites = [
                s
                for s in AZURE_4DC
                if s not in {"west-europe", strat.home_of("file-y")}
            ]
            got = yield from strat.read(sites[0], "file-y", require_found=True)
            return got

        got = drive(dep.env, flow())
        strat.shutdown()
        assert got is not None

    def test_sync_mode_immediate_home_visibility(self, dep, cfg):
        cfg.hybrid_sync_replication = True
        strat = make(HybridStrategy, dep, cfg)

        def flow():
            yield from strat.write("west-europe", entry("file-z"))
            home = strat.home_of("file-z")
            return home

        home = drive(dep.env, flow())
        strat.shutdown()
        assert "file-z" in strat.registries[home]
        assert strat.pumps == {}

    def test_local_hit_ratio_metric(self, dep, cfg):
        strat = make(HybridStrategy, dep, cfg)

        def flow():
            yield from strat.write("west-europe", entry("a"))
            yield from strat.read("west-europe", "a")  # hit
            yield from strat.flush()
            yield from strat.read("south-central-us", "a")  # likely miss

        drive(dep.env, flow())
        strat.shutdown()
        assert 0 <= strat.local_hit_ratio <= 1
        assert strat.local_hits >= 1
