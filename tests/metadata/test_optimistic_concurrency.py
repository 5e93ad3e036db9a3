"""Optimistic-concurrency behaviour through the full RPC stack.

The paper leverages the cache's Optimistic Concurrency Model: no locks
are held during metadata operations (workflow data is written once).
These tests exercise the conditional-put path under racing writers.
"""

import pytest

from repro.cloud.network import Network
from repro.cloud.presets import azure_4dc_topology
from repro.metadata.config import MetadataConfig
from repro.metadata.entry import RegistryEntry, VersionConflict
from repro.metadata.registry import MetadataRegistry
from repro.sim import AllOf


@pytest.fixture
def net(env):
    return Network(env, azure_4dc_topology(jitter=False))


@pytest.fixture
def registry(env):
    return MetadataRegistry(
        env, "west-europe", MetadataConfig(service_time=0.002)
    )


def e(key="f", site="west-europe"):
    return RegistryEntry(key=key, locations=frozenset({site}))


class TestConditionalPut:
    def test_read_modify_write_cycle(self, env, net, registry):
        """The classic OCC loop: get, modify, conditional put."""

        def flow():
            stored = yield from registry.rpc_put(net, "west-europe", e())
            current = yield from registry.rpc_get(net, "west-europe", "f")
            updated = current.with_location("east-us")
            final = yield from registry.rpc_put(
                net, "west-europe", updated, expected_version=current.version
            )
            return final

        final = env.run(until=env.process(flow()))
        assert final.version == 2
        assert final.locations == {"west-europe", "east-us"}

    def test_racing_writers_one_loses(self, env, net, registry):
        """Two writers race the same conditional update; exactly one
        conflicts (no lost update, no lock)."""
        outcomes = []

        def writer(writer_id, location):
            # Same source site for both: symmetric RTTs make the two
            # get/put sequences genuinely interleave at the registry.
            current = yield from registry.rpc_get(net, "north-europe", "f")
            try:
                yield from registry.rpc_put(
                    net,
                    "north-europe",
                    current.with_location(location),
                    expected_version=current.version,
                )
                outcomes.append(("ok", writer_id))
            except VersionConflict:
                outcomes.append(("conflict", writer_id))

        def setup():
            yield from registry.rpc_put(net, "west-europe", e())

        env.run(until=env.process(setup()))
        procs = [
            env.process(writer(1, "north-europe")),
            env.process(writer(2, "east-us")),
        ]
        env.run(until=AllOf(env, procs))
        results = sorted(o for o, _ in outcomes)
        assert results == ["conflict", "ok"]
        assert registry.cache.conflicts == 1

    def test_loser_retry_succeeds(self, env, net, registry):
        """The OCC loser retries with the fresh version and wins."""

        def writer(site):
            while True:
                current = yield from registry.rpc_get(net, site, "f")
                try:
                    yield from registry.rpc_put(
                        net,
                        site,
                        current.with_location(site),
                        expected_version=current.version,
                    )
                    return
                except VersionConflict:
                    continue

        def setup():
            yield from registry.rpc_put(net, "west-europe", e())

        env.run(until=env.process(setup()))
        procs = [
            env.process(writer("north-europe")),
            env.process(writer("east-us")),
        ]
        env.run(until=AllOf(env, procs))
        final = registry.cache.get("f")
        # Both updates landed despite the race.
        assert {"north-europe", "east-us"} <= final.locations
        assert final.version == 3

    def test_merging_upsert_needs_no_occ_for_location_adds(
        self, env, net, registry
    ):
        """The server-side merging upsert makes plain location
        publication conflict-free -- the write-once pattern never needs
        the OCC loop at all."""

        def writer(site):
            yield from registry.rpc_put(
                net, site, RegistryEntry(key="f", locations=frozenset({site}))
            )

        procs = [
            env.process(writer(s))
            for s in ("west-europe", "north-europe", "east-us")
        ]
        env.run(until=AllOf(env, procs))
        final = registry.cache.get("f")
        assert final.locations == {
            "west-europe",
            "north-europe",
            "east-us",
        }
        assert registry.cache.conflicts == 0
