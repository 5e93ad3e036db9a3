"""Integration tests: full multi-site workflow runs across subsystems.

These exercise the complete stack -- DES kernel, cloud network, metadata
strategies (with their background agents/pumps), storage transfers and
the workflow engine -- on small but structurally faithful scenarios.
"""

import pytest

from repro.cloud.deployment import Deployment
from repro.cloud.presets import azure_4dc_topology, make_topology
from repro.metadata.controller import ArchitectureController, StrategyName
from repro.metadata.entry import RegistryEntry
from repro.workflow.applications import buzzflow, montage
from repro.workflow.engine import WorkflowEngine
from repro.workflow.patterns import pipeline, scatter


@pytest.fixture
def dep():
    return Deployment(
        topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=21
    )


class TestFullWorkflowRuns:
    @pytest.mark.parametrize("strategy", StrategyName.all())
    def test_miniature_montage_all_strategies(
        self, dep, fast_config, strategy
    ):
        ctrl = ArchitectureController(dep, strategy=strategy, config=fast_config)
        engine = WorkflowEngine(dep, ctrl.strategy)
        wf = montage(
            ops_per_task=10, compute_time=0.05, n_parallel=12, n_merges=2
        )
        res = engine.run(wf)
        ctrl.shutdown()
        assert len(res.task_results) == 16
        # The final mosaic exists and its metadata resolves everywhere
        # (after propagation drains).
        assert engine.transfer.locations_of("montage/mosaic")

    def test_miniature_buzzflow_hybrid(self, dep, fast_config):
        ctrl = ArchitectureController(dep, strategy="dr", config=fast_config)
        engine = WorkflowEngine(dep, ctrl.strategy)
        wf = buzzflow(ops_per_task=8, compute_time=0.05, width=2, n_stages=5)
        res = engine.run(wf)
        ctrl.shutdown()
        assert len(res.task_results) == 10
        # Near-pipeline + locality: hybrid reads mostly resolve locally.
        assert ctrl.strategy.local_hit_ratio > 0.5

    def test_metadata_locations_match_data_locations(self, dep, fast_config):
        """The registry's location sets must reflect where data really is."""
        ctrl = ArchitectureController(
            dep, strategy="decentralized", config=fast_config
        )
        engine = WorkflowEngine(dep, ctrl.strategy)
        wf = scatter(8, compute_time=0.05)
        engine.run(wf)
        ctrl.shutdown()
        for site, store in engine.transfer.stores.items():
            for f in store:
                env = dep.env

                def check(name=f.name):
                    entry = yield from ctrl.strategy.read(
                        "west-europe", name, require_found=True
                    )
                    return entry

                entry = env.run(until=env.process(check()))
                # Every site holding the file is recorded (transfers may
                # add locations metadata does not know about, but the
                # producer site always is known).
                assert entry.locations


class TestStrategySwitchMidStream:
    def test_switch_between_workflows(self, dep, fast_config):
        ctrl = ArchitectureController(
            dep, strategy="centralized", config=fast_config
        )
        engine = WorkflowEngine(dep, ctrl.strategy)
        res1 = engine.run(pipeline(3, compute_time=0.05, name="w1"))

        def switch():
            yield from ctrl.switch("hybrid", migrate=True)

        dep.env.run(until=dep.env.process(switch()))
        engine2 = WorkflowEngine(dep, ctrl.strategy)
        res2 = engine2.run(pipeline(3, compute_time=0.05, name="w2"))
        ctrl.shutdown()
        assert res1.strategy == "centralized"
        assert res2.strategy == "hybrid"


class TestFailureInjection:
    def test_primary_cache_failure_is_transparent(self, dep, fast_config):
        """The HA cache tier hides a primary failure (Section III-B)."""
        ctrl = ArchitectureController(dep, strategy="hybrid", config=fast_config)
        strat = ctrl.strategy
        env = dep.env

        def flow():
            for i in range(5):
                yield from strat.write(
                    "west-europe", RegistryEntry(key=f"k{i}")
                )
            # Kill the primary at the busiest instance.
            strat.registries["west-europe"].cache.fail_primary()
            got = yield from strat.read("west-europe", "k3", require_found=True)
            yield from strat.write("west-europe", RegistryEntry(key="post"))
            post = yield from strat.read(
                "west-europe", "post", require_found=True
            )
            return got, post

        got, post = env.run(until=env.process(flow()))
        ctrl.shutdown()
        assert got is not None and post is not None
        assert strat.registries["west-europe"].cache.failovers == 1


class TestEventualConsistencyConvergence:
    @pytest.mark.parametrize("strategy", ["replicated", "hybrid"])
    def test_all_writes_eventually_globally_visible(
        self, dep, fast_config, strategy
    ):
        """The core eventual-consistency guarantee (Section III-D)."""
        ctrl = ArchitectureController(dep, strategy=strategy, config=fast_config)
        strat = ctrl.strategy
        env = dep.env
        keys = [f"file-{i}" for i in range(20)]

        def flow():
            for i, key in enumerate(keys):
                site = dep.sites[i % 4]
                yield from strat.write(site, RegistryEntry(key=key))
            yield from strat.flush()

        env.run(until=env.process(flow()))
        ctrl.shutdown()
        if strategy == "replicated":
            # Every instance holds every entry.
            for reg in strat.registries.values():
                for key in keys:
                    assert key in reg
        else:
            # Every entry resolvable from its DHT home.
            for key in keys:
                assert key in strat.registries[strat.home_of(key)]

    def test_consistency_window_measured(self, dep, fast_config):
        ctrl = ArchitectureController(
            dep, strategy="replicated", config=fast_config
        )
        strat = ctrl.strategy
        env = dep.env

        def flow():
            for i in range(5):
                yield from strat.write(
                    "east-us", RegistryEntry(key=f"w{i}")
                )
            yield from strat.flush()

        env.run(until=env.process(flow()))
        ctrl.shutdown()
        assert len(strat.tracker.windows) == 5
        # The inconsistency window is bounded by ~2 sync periods.
        assert strat.tracker.max_window() <= fast_config.sync_period * 4


class TestSingleSiteDeployment:
    def test_everything_local_single_site(self, fast_config):
        """A one-site cloud degenerates gracefully: all strategies local."""
        dep = Deployment(
            topology=make_topology(["solo"]), n_nodes=4, seed=2
        )
        ctrl = ArchitectureController(
            dep, strategy="decentralized", config=fast_config
        )
        engine = WorkflowEngine(dep, ctrl.strategy)
        res = engine.run(pipeline(3, compute_time=0.05, extra_ops=4))
        ctrl.shutdown()
        assert all(r.local for r in ctrl.strategy.stats.records)
        assert res.makespan > 0
