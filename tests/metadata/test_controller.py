"""Tests for the ArchitectureController: plug-and-play strategy switching."""

import pytest

from repro.cloud.deployment import Deployment
from repro.cloud.presets import azure_4dc_topology
from repro.metadata.controller import (
    STRATEGIES,
    ArchitectureController,
    StrategyName,
)
from repro.metadata.entry import RegistryEntry
from repro.metadata.strategies.base import MetadataStrategy as Base


@pytest.fixture
def dep():
    return Deployment(
        topology=azure_4dc_topology(jitter=False), n_nodes=4, seed=5
    )


def drive(env, gen):
    return env.run(until=env.process(gen))


class TestNames:
    def test_canonical_aliases(self):
        assert StrategyName.canonical("DN") == StrategyName.DECENTRALIZED
        assert StrategyName.canonical("dr") == StrategyName.HYBRID
        assert StrategyName.canonical("Baseline") == StrategyName.CENTRALIZED
        assert StrategyName.canonical("hybrid") == StrategyName.HYBRID

    def test_all_lists_four(self):
        assert len(StrategyName.all()) == 4


class TestController:
    def test_builds_requested_strategy(self, dep, fast_config):
        ctrl = ArchitectureController(
            dep, strategy="dn", config=fast_config
        )
        assert ctrl.strategy.name == "decentralized"

    def test_unknown_strategy_rejected(self, dep, fast_config):
        with pytest.raises(ValueError, match="unknown strategy"):
            ArchitectureController(
                dep, strategy="quantum", config=fast_config
            )

    def test_proxy_read_write(self, dep, fast_config):
        ctrl = ArchitectureController(
            dep, strategy="centralized", config=fast_config
        )

        def flow():
            yield from ctrl.write(
                "west-europe", RegistryEntry(key="k")
            )
            got = yield from ctrl.read("east-us", "k", require_found=True)
            return got

        assert drive(dep.env, flow()) is not None
        ctrl.shutdown()

    def test_switch_migrates_entries(self, dep, fast_config):
        ctrl = ArchitectureController(
            dep, strategy="centralized", config=fast_config
        )

        def flow():
            for i in range(10):
                yield from ctrl.write(
                    "west-europe", RegistryEntry(key=f"k{i}")
                )
            yield from ctrl.switch("decentralized", migrate=True)
            got = yield from ctrl.read(
                "east-us", "k3", require_found=True
            )
            return got

        got = drive(dep.env, flow())
        ctrl.shutdown()
        assert got is not None
        assert ctrl.strategy.name == "decentralized"

    def test_switch_without_migration_loses_entries(self, dep, fast_config):
        ctrl = ArchitectureController(
            dep, strategy="centralized", config=fast_config
        )

        def flow():
            yield from ctrl.write("west-europe", RegistryEntry(key="k"))
            yield from ctrl.switch("decentralized", migrate=False)
            got = yield from ctrl.read("east-us", "k")
            return got

        assert drive(dep.env, flow()) is None
        ctrl.shutdown()

    def test_switch_costs_simulated_time(self, dep, fast_config):
        ctrl = ArchitectureController(
            dep, strategy="centralized", config=fast_config
        )

        def flow():
            for i in range(20):
                yield from ctrl.write(
                    "west-europe", RegistryEntry(key=f"k{i}")
                )
            t0 = dep.env.now
            yield from ctrl.switch("hybrid", migrate=True)
            return dep.env.now - t0

        cost = drive(dep.env, flow())
        ctrl.shutdown()
        assert cost > 0  # re-partitioning is never free

    def test_register_custom_strategy(self, dep, fast_config):
        class NullStrategy(Base):
            name = "null"

            def _do_write(self, site, entry):
                return entry, True
                yield  # pragma: no cover

            def _do_read(self, site, key):
                return None, True
                yield  # pragma: no cover

        ArchitectureController.register("null", NullStrategy)
        try:
            ctrl = ArchitectureController(
                dep, strategy="null", config=fast_config
            )
            assert ctrl.strategy.name == "null"
        finally:
            STRATEGIES.pop("null", None)

    def test_register_non_strategy_rejected(self):
        with pytest.raises(TypeError):
            ArchitectureController.register("bad", dict)
