"""Tests for the latency/bandwidth network model and RPC helper."""

import pytest

from repro.cloud.network import Network
from repro.cloud.presets import azure_4dc_topology
from repro.util.units import MB


@pytest.fixture
def net(env):
    return Network(env, azure_4dc_topology(jitter=False))


def run(env, gen):
    return env.run(until=env.process(gen))


class TestDelayModel:
    def test_one_way_delay_includes_latency(self, net):
        d = net.one_way_delay("west-europe", "east-us")
        assert d >= 0.040  # base one-way latency

    def test_size_adds_bandwidth_term(self, net):
        small = net.one_way_delay("west-europe", "east-us", size=0)
        big = net.one_way_delay("west-europe", "east-us", size=50 * MB)
        assert big >= small + 0.9  # 50 MB over 50 MB/s ~ 1 s

    def test_local_faster_than_remote(self, net):
        assert net.one_way_delay("west-europe", "west-europe") < net.one_way_delay(
            "west-europe", "north-europe"
        )

    def test_jitter_never_negative(self, env):
        net = Network(env, azure_4dc_topology(jitter=True))
        base = azure_4dc_topology(jitter=False).latency("west-europe", "east-us")
        for _ in range(200):
            assert net.one_way_delay("west-europe", "east-us") >= base


class TestTransfer:
    def test_transfer_takes_delay(self, env, net):
        msg = run(env, net.transfer("west-europe", "east-us", size=1024))
        assert env.now > 0.040
        assert msg.src == "west-europe"
        assert msg.dst == "east-us"

    def test_stats_accounting(self, env, net):
        run(env, net.transfer("west-europe", "east-us", size=100))
        run(env, net.transfer("west-europe", "west-europe", size=50))
        run(env, net.transfer("west-europe", "north-europe", size=25))
        assert net.stats.messages == 3
        assert net.stats.bytes == 175
        assert net.stats.geo_distant_messages == 1
        assert net.stats.local_messages == 1
        assert net.stats.same_region_messages == 1

    def test_link_concurrency_limits_inflight(self, env, topo):
        net = Network(env, topo, link_concurrency=2)
        done = []

        def xfer():
            yield from net.transfer("west-europe", "east-us", size=0)
            done.append(env.now)

        for _ in range(4):
            env.process(xfer())
        env.run()
        # 4 transfers through 2 slots -> two waves.
        assert len(done) == 4
        assert max(done) > min(done)

    def test_reset_stats(self, env, net):
        run(env, net.transfer("west-europe", "east-us", size=10))
        net.reset_stats()
        assert net.stats.messages == 0


class TestRpc:
    def test_round_trip_with_service_generator(self, env, net):
        def service():
            yield env.timeout(0.005)
            return "served"

        result = run(
            env, net.rpc("west-europe", "east-us", service())
        )
        assert result == "served"
        # Two WAN legs plus 5 ms service.
        assert env.now >= 2 * 0.040 + 0.005

    def test_rpc_with_callable(self, env, net):
        result = run(env, net.rpc("west-europe", "west-europe", lambda: 41))
        assert result == 41

    def test_local_rpc_still_pays_lan(self, env, net):
        run(env, net.rpc("west-europe", "west-europe", lambda: None))
        assert env.now > 0  # distinct VMs within a site

    def test_service_exception_propagates(self, env, net):
        def bad_service():
            yield env.timeout(0.001)
            raise RuntimeError("server error")

        with pytest.raises(RuntimeError, match="server error"):
            run(env, net.rpc("west-europe", "east-us", bad_service()))
