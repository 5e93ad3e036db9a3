"""Tests for the registry runtime monitor."""

import pytest

from repro.analysis.monitor import RegistryMonitor
from repro.cloud.deployment import Deployment
from repro.cloud.presets import azure_4dc_topology
from repro.metadata.controller import ArchitectureController
from repro.metadata.entry import RegistryEntry


@pytest.fixture
def dep():
    return Deployment(
        topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=51
    )


class TestRegistryMonitor:
    def test_samples_on_cadence(self, dep, fast_config):
        ctrl = ArchitectureController(
            dep, strategy="centralized", config=fast_config
        )
        mon = RegistryMonitor(dep.env, ctrl.strategy, interval=0.5)

        def flow():
            yield dep.env.timeout(2.4)

        dep.env.run(until=dep.env.process(flow()))
        mon.stop()
        ctrl.shutdown()
        assert 4 <= len(mon) <= 6
        assert mon.samples[0].at == 0.0

    def test_detects_queue_buildup(self, dep, fast_config):
        """Hammering one instance shows up as queue growth."""
        ctrl = ArchitectureController(
            dep, strategy="centralized", config=fast_config
        )
        strat = ctrl.strategy
        mon = RegistryMonitor(dep.env, strat, interval=0.002)

        def client(i):
            for j in range(10):
                yield from strat.write(
                    "west-europe", RegistryEntry(key=f"c{i}-{j}")
                )

        procs = [dep.env.process(client(i)) for i in range(6)]
        from repro.sim import AllOf

        dep.env.run(until=AllOf(dep.env, procs))
        mon.stop()
        ctrl.shutdown()
        assert mon.peak_queue_length(strat.home_site) >= 2
        assert mon.saturation_onset(strat.home_site, threshold=1) is not None

    def test_backlog_tracks_hybrid_pump(self, dep, fast_config):
        fast_config.hybrid_sync_replication = False
        fast_config.replication_flush_interval = 1.0  # slow pump
        ctrl = ArchitectureController(dep, strategy="hybrid", config=fast_config)
        strat = ctrl.strategy
        mon = RegistryMonitor(dep.env, strat, interval=0.05)

        def flow():
            for i in range(10):
                yield from strat.write(
                    "west-europe", RegistryEntry(key=f"k{i}")
                )
            yield dep.env.timeout(0.2)

        dep.env.run(until=dep.env.process(flow()))
        mon.stop()
        ctrl.shutdown()
        assert mon.peak_backlog() > 0

    def test_empty_monitor_safe(self, dep, fast_config):
        ctrl = ArchitectureController(
            dep, strategy="centralized", config=fast_config
        )
        mon = RegistryMonitor(dep.env, ctrl.strategy, interval=1.0)
        mon.stop()
        ctrl.shutdown()
        assert mon.peak_queue_length() == 0
        assert mon.mean_backlog() == 0.0
        assert mon.saturation_onset("west-europe") is None

    def test_invalid_interval(self, dep, fast_config):
        ctrl = ArchitectureController(
            dep, strategy="centralized", config=fast_config
        )
        with pytest.raises(ValueError):
            RegistryMonitor(dep.env, ctrl.strategy, interval=0)
        ctrl.shutdown()
