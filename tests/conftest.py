"""Shared fixtures for the test suite."""

import pytest

from repro.sim import Environment
from repro.cloud.deployment import Deployment
from repro.cloud.network import Network
from repro.cloud.presets import azure_4dc_topology
from repro.experiments.synthetic import run_synthetic_workload
from repro.metadata.config import MetadataConfig
from repro.metadata.controller import ArchitectureController


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def topo():
    """The paper's 4-DC Azure topology, deterministic (no jitter)."""
    return azure_4dc_topology(jitter=False)


@pytest.fixture
def network(env, topo):
    return Network(env, topo)


@pytest.fixture
def deployment():
    """A small 8-node deployment over the 4-DC testbed."""
    return Deployment(
        topology=azure_4dc_topology(jitter=False), n_nodes=8, seed=42
    )


@pytest.fixture
def fast_config():
    """Config with tiny overheads so tests run quickly in simulated time."""
    return MetadataConfig(
        client_overhead=0.001,
        service_time=0.001,
        merge_entry_time=0.0005,
        sync_period=0.5,
        replication_flush_interval=0.05,
        read_retry_interval=0.05,
        read_retry_max_delay=0.2,
    )


@pytest.fixture
def run_synthetic():
    """The synthetic benchmark on a hand-built deployment and controller.

    For calibrations no spec field names (``fast_config``);
    ``ScenarioSpec.run`` is the route for everything else.
    """

    def run(strategy, n_nodes, ops_per_node, seed=0, config=None):
        dep = Deployment(n_nodes=n_nodes, seed=seed)
        ctrl = ArchitectureController(dep, strategy=strategy, config=config)
        result = run_synthetic_workload(dep, ctrl.strategy, ops_per_node)
        ctrl.shutdown()
        return result

    return run


def drive(env, gen, name="test"):
    """Run a generator process to completion; return its value."""
    proc = env.process(gen, name=name)
    return env.run(until=proc)
