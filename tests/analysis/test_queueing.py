"""Validate the simulator against analytic queueing theory.

The registry is a single-server queue fed by a closed client
population; the machine-repairman model predicts its throughput.  The
DES must agree with theory within modest tolerance -- this is the
simulation-credibility test for the whole reproduction.
"""

import pytest

from repro.analysis.queueing import (
    closed_network_throughput,
    mm1_mean_wait,
    mm1_utilization,
    saturation_point,
    throughput_upper_bound,
)
from repro.metadata.config import MetadataConfig
from repro.metadata.registry import MetadataRegistry
from repro.sim import Environment


class TestFormulas:
    def test_mm1_utilization(self):
        assert mm1_utilization(100, 0.005) == pytest.approx(0.5)

    def test_mm1_wait_explodes_at_saturation(self):
        assert mm1_mean_wait(100, 0.005) == pytest.approx(0.01)
        assert mm1_mean_wait(300, 0.005) == float("inf")

    def test_upper_bound_two_regimes(self):
        # Client-bound: 4 clients, 0.1 s think, 0.001 s service.
        assert throughput_upper_bound(4, 0.1, 0.001) == pytest.approx(
            4 / 0.101
        )
        # Server-bound: 1000 clients.
        assert throughput_upper_bound(1000, 0.1, 0.001) == pytest.approx(
            1000.0
        )

    def test_mva_monotone_in_clients(self):
        prev = 0.0
        for n in (1, 2, 4, 8, 16, 32):
            x, _ = closed_network_throughput(n, 0.05, 0.002)
            assert x > prev
            prev = x

    def test_mva_approaches_server_cap(self):
        x, _ = closed_network_throughput(500, 0.05, 0.002)
        assert x == pytest.approx(1 / 0.002, rel=0.02)

    def test_mva_single_client(self):
        x, r = closed_network_throughput(1, 0.1, 0.01)
        assert x == pytest.approx(1 / 0.11)
        assert r == pytest.approx(0.01)

    def test_saturation_point(self):
        assert saturation_point(0.1, 0.003) == pytest.approx(103 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            mm1_utilization(-1, 0.01)
        with pytest.raises(ValueError):
            closed_network_throughput(0, 0.1, 0.01)
        with pytest.raises(ValueError):
            throughput_upper_bound(4, 0.1, 0)


class TestSimulatorAgreement:
    """The DES registry matches the machine-repairman prediction."""

    @pytest.mark.parametrize("n_clients", [2, 8, 24])
    def test_closed_loop_throughput_matches_mva(self, n_clients):
        service_time = 0.004
        think_time = 0.040
        horizon = 60.0

        env = Environment()
        cfg = MetadataConfig(
            service_time=service_time, client_overhead=0.0
        )
        registry = MetadataRegistry(env, "site", cfg)
        rngs = __import__(
            "repro.util.rng", fromlist=["RngStreams"]
        ).RngStreams(seed=9)
        completed = [0]

        def client(i):
            rng = rngs.get(f"client-{i}")
            while env.now < horizon:
                # Exponential think time (the MVA assumption).
                yield env.timeout(float(rng.exponential(think_time)))
                yield from registry.serve_get("key")
                completed[0] += 1

        for i in range(n_clients):
            env.process(client(i))
        env.run(until=horizon)

        measured = completed[0] / horizon
        predicted, _ = closed_network_throughput(
            n_clients, think_time, service_time
        )
        # Deterministic service vs exponential-service MVA: expect
        # agreement within ~15 % (deterministic service queues less).
        assert measured == pytest.approx(predicted, rel=0.15)

    def test_saturated_server_hits_service_cap(self):
        service_time = 0.01
        env = Environment()
        cfg = MetadataConfig(service_time=service_time, client_overhead=0.0)
        registry = MetadataRegistry(env, "site", cfg)
        done = [0]
        horizon = 20.0

        def hammer():
            while env.now < horizon:
                yield from registry.serve_get("k")
                done[0] += 1

        for _ in range(16):  # way past saturation, zero think time
            env.process(hammer())
        env.run(until=horizon)
        measured = done[0] / horizon
        assert measured == pytest.approx(1 / service_time, rel=0.02)
