"""Flow-level max-min fair-share bandwidth model tests.

Covers one FairShareLink of a FlowNetwork, the Network integration
behind ``bandwidth_model="fair"``, and the accounting/estimator bugfix
regressions for the slot model (jitter-free round_trip, end-to-end
latency under a saturated link).
"""

import math

import pytest

from repro.cloud.flow import FlowAborted, FlowNetwork
from repro.cloud.network import Network
from repro.cloud.presets import azure_4dc_topology, make_topology
from repro.sim import AllOf, Environment
from repro.util.units import MB

WAN_BW = 50 * MB  # azure preset WAN bandwidth, bytes/s
LAT = 0.040  # west-europe -> east-us one-way base latency, s
OVH = Network.PER_MESSAGE_OVERHEAD


def run(env, gen):
    return env.run(until=env.process(gen))


@pytest.fixture
def fair_net(env, topo):
    return Network(env, topo, bandwidth_model="fair")


class TestFairShareLink:
    """One link of an uncapped :class:`FlowNetwork`: its flows share the
    link capacity and nothing else."""

    def test_single_flow_gets_full_capacity(self, env):
        link = FlowNetwork(env).link("a", "b", capacity=100.0)
        flow = link.open(size=200)
        env.run(until=flow.done)
        assert env.now == pytest.approx(2.0)
        assert flow.rate == pytest.approx(100.0)

    def test_equal_flows_split_capacity_evenly(self, env):
        """N concurrent same-size flows each observe ~1/N of the link."""
        n = 4
        link = FlowNetwork(env).link("a", "b", capacity=100.0)
        flows = [link.open(size=100) for _ in range(n)]
        for f in flows:
            assert f.rate == pytest.approx(100.0 / n)
        env.run(until=AllOf(env, [f.done for f in flows]))
        # 100 bytes each at 25 B/s: all finish together at t=4.
        assert env.now == pytest.approx(4.0)

    def test_finishing_flow_releases_share(self, env):
        link = FlowNetwork(env).link("a", "b", capacity=100.0)
        short = link.open(size=100)
        long = link.open(size=200)
        env.run(until=short.done)
        assert env.now == pytest.approx(2.0)  # both at 50 B/s
        assert long.rate == pytest.approx(100.0)  # inherits the link
        env.run(until=long.done)
        # 100 bytes left at 100 B/s after t=2.
        assert env.now == pytest.approx(3.0)

    def test_late_joiner_slows_existing_flow(self, env):
        link = FlowNetwork(env).link("a", "b", capacity=100.0)
        results = {}

        def first():
            flow = link.open(size=100)
            yield flow.done
            results["first"] = env.now

        def second():
            yield env.timeout(0.5)
            flow = link.open(size=100)
            yield flow.done
            results["second"] = env.now

        env.process(first())
        env.process(second())
        env.run()
        # First: 50 bytes alone (0.5 s), then 50 bytes at half rate (1 s).
        assert results["first"] == pytest.approx(1.5)
        # Second: 50 bytes at half rate (1 s), then 50 at full (0.5 s).
        assert results["second"] == pytest.approx(2.0)

    def test_max_rate_cap_redistributes_surplus(self, env):
        """Max-min: a capped flow keeps its cap, others split the rest."""
        link = FlowNetwork(env).link("a", "b", capacity=90.0)
        capped = link.open(size=90, max_rate=10.0)
        free_a = link.open(size=400)
        free_b = link.open(size=400)
        assert capped.rate == pytest.approx(10.0)
        assert free_a.rate == pytest.approx(40.0)
        assert free_b.rate == pytest.approx(40.0)
        env.run(until=capped.done)
        assert env.now == pytest.approx(9.0)

    def test_zero_size_flow_completes_immediately(self, env):
        link = FlowNetwork(env).link("a", "b", capacity=10.0)
        flow = link.open(size=0)
        env.run(until=flow.done)
        assert env.now == 0.0
        assert link.n_active == 0

    def test_fair_rate_estimator_counts_prospective_flow(self, env):
        net = FlowNetwork(env)
        link = net.link("a", "b", capacity=100.0)
        assert net.estimate_rate("a", "b", 100.0) == pytest.approx(100.0)
        link.open(size=1000)
        assert net.estimate_rate("a", "b", 100.0) == pytest.approx(50.0)

    def test_fair_rate_estimator_respects_existing_caps(self, env):
        """A capped active flow leaves its surplus to the newcomer."""
        net = FlowNetwork(env)
        link = net.link("a", "b", capacity=100.0)
        link.open(size=1000, max_rate=10.0)
        assert net.estimate_rate("a", "b", 100.0) == pytest.approx(90.0)
        # And the estimate matches what a real flow then receives.
        newcomer = link.open(size=1000)
        assert newcomer.rate == pytest.approx(90.0)

    def test_stats_track_concurrency(self, env):
        link = FlowNetwork(env).link("a", "b", capacity=100.0)
        flows = [link.open(size=50) for _ in range(3)]
        env.run(until=AllOf(env, [f.done for f in flows]))
        assert link.stats.flows == 3
        assert link.stats.bytes == 150
        assert link.stats.max_concurrent == 3

    def test_abort_frees_bandwidth(self, env):
        link = FlowNetwork(env).link("a", "b", capacity=100.0)
        doomed = link.open(size=1000)
        survivor = link.open(size=100)
        failures = []

        def waiter():
            try:
                yield doomed.done
            except Exception as exc:  # noqa: BLE001 - abort surfaces here
                failures.append(exc)

        env.process(waiter())

        def aborter():
            yield env.timeout(0.5)
            link.abort(doomed)

        env.process(aborter())
        env.run(until=survivor.done)
        # 25 bytes at 50 B/s, then 75 bytes at full capacity.
        assert env.now == pytest.approx(0.5 + 0.75)
        assert len(failures) == 1
        assert isinstance(failures[0], FlowAborted)

    def test_abort_accounts_partial_bytes(self, env):
        """Regression: abort used to leave the byte counters untouched.

        The doomed flow transmitted 25 bytes before the abort: those
        count as delivered, the unsent 975 as aborted, and the closed
        link conserves bytes exactly.
        """
        link = FlowNetwork(env).link("a", "b", capacity=100.0)
        doomed = link.open(size=1000)
        survivor = link.open(size=100)

        def waiter():
            try:
                yield doomed.done
            except FlowAborted:
                pass

        env.process(waiter())

        def aborter():
            yield env.timeout(0.5)  # both flows at 50 B/s so far
            link.abort(doomed)

        env.process(aborter())
        env.run(until=survivor.done)
        s = link.stats
        assert s.aborted_flows == 1
        assert s.aborted_bytes == pytest.approx(975.0)
        # Delivered: 25 partial bytes of the doomed flow + the survivor.
        assert s.delivered_bytes == pytest.approx(25.0 + 100.0)
        assert s.delivered_bytes + s.aborted_bytes == pytest.approx(s.bytes)

    def test_weighted_flows_split_proportionally(self, env):
        link = FlowNetwork(env).link("a", "b", capacity=90.0)
        light = link.open(size=900, weight=1.0)
        heavy = link.open(size=900, weight=2.0)
        assert light.rate == pytest.approx(30.0)
        assert heavy.rate == pytest.approx(60.0)
        env.run(until=heavy.done)
        # Heavy finishes first (same size, twice the rate).
        assert env.now == pytest.approx(15.0)

    def test_invalid_weight_rejected(self, env):
        link = FlowNetwork(env).link("a", "b", capacity=10.0)
        with pytest.raises(ValueError, match="weight"):
            link.open(size=10, weight=0.0)


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda env, topo: FlowNetwork(env).link("a", "b", capacity=NAN),
        lambda env, topo: FlowNetwork(env).link(
            "a", "b", capacity=100.0, max_flow_rate=NAN
        ),
        lambda env, topo: FlowNetwork(env)
        .link("a", "b", capacity=100.0)
        .open(1000, max_rate=NAN),
        lambda env, topo: FlowNetwork(env)
        .link("a", "b", capacity=100.0)
        .open(1000, weight=NAN),
        lambda env, topo: topo.set_link("west-europe", "east-us", NAN),
        lambda env, topo: topo.set_link(
            "west-europe", "east-us", 0.04, bandwidth=NAN
        ),
        lambda env, topo: topo.set_link(
            "west-europe", "east-us", 0.04, max_flow_rate=NAN
        ),
        lambda env, topo: topo.set_link(
            "west-europe", "east-us", 0.04, jitter=NAN
        ),
        lambda env, topo: topo.set_link(
            "west-europe", "east-us", 0.04, jitter=float("inf")
        ),
        lambda env, topo: topo.set_link(
            "west-europe", "east-us", 0.04, jitter=-1.0
        ),
        lambda env, topo: Network(env, topo, rpc_weight=NAN),
    ],
    ids=[
        "link-capacity",
        "link-max_flow_rate",
        "open-max_rate",
        "open-weight",
        "set_link-latency",
        "set_link-bandwidth",
        "set_link-max_flow_rate",
        "set_link-jitter-nan",
        "set_link-jitter-inf",
        "set_link-jitter-negative",
        "network-rpc_weight",
    ],
)
def test_nan_rate_bound_rejected(env, topo, build):
    """A NaN cap, capacity, weight or latency fails its bound instead
    of reaching the solver (a NaN-rate flow never completes); a NaN,
    infinite or negative link jitter fails too instead of silently
    meaning no jitter."""
    with pytest.raises(ValueError, match="must be"):
        build(env, topo)


class TestFlowNetworkHierarchy:
    """Site egress/ingress caps couple links through a FlowNetwork."""

    @staticmethod
    def _net(env, egress=None, ingress=None):
        egress = egress or {}
        ingress = ingress or {}
        return FlowNetwork(
            env,
            site_caps=lambda s: (
                egress.get(s, math.inf),
                ingress.get(s, math.inf),
            ),
        )

    def test_egress_cap_shared_by_two_links(self, env):
        fn = self._net(env, egress={"a": 60.0})
        f1 = fn.link("a", "b", capacity=100.0).open(600)
        f2 = fn.link("a", "c", capacity=100.0).open(600)
        assert f1.rate == pytest.approx(30.0)
        assert f2.rate == pytest.approx(30.0)
        env.run(until=f1.done)
        assert env.now == pytest.approx(20.0)

    def test_finishing_flow_returns_egress_headroom(self, env):
        fn = self._net(env, egress={"a": 60.0})
        short = fn.link("a", "b", capacity=100.0).open(300)
        long = fn.link("a", "c", capacity=100.0).open(600)
        env.run(until=short.done)
        assert env.now == pytest.approx(10.0)
        # The survivor inherits the full egress cap (link allows it).
        assert long.rate == pytest.approx(60.0)
        env.run(until=long.done)
        assert env.now == pytest.approx(10.0 + 300 / 60.0)

    def test_link_tighter_than_site_cap_wins(self, env):
        fn = self._net(env, egress={"a": 1000.0})
        flow = fn.link("a", "b", capacity=50.0).open(100)
        assert flow.rate == pytest.approx(50.0)

    def test_ingress_cap_shared_by_two_senders(self, env):
        fn = self._net(env, ingress={"c": 80.0})
        f1 = fn.link("a", "c", capacity=100.0).open(800)
        f2 = fn.link("b", "c", capacity=100.0).open(800)
        assert f1.rate == pytest.approx(40.0)
        assert f2.rate == pytest.approx(40.0)

    def test_weights_apply_at_site_bottleneck(self, env):
        fn = self._net(env, egress={"a": 90.0})
        light = fn.link("a", "b", capacity=100.0).open(900, weight=1.0)
        heavy = fn.link("a", "c", capacity=100.0).open(900, weight=2.0)
        assert light.rate == pytest.approx(30.0)
        assert heavy.rate == pytest.approx(60.0)

    def test_site_outage_aborts_and_marks_down(self, env):
        fn = self._net(env)
        la_b = fn.link("a", "b", capacity=100.0)
        lc_b = fn.link("c", "b", capacity=100.0)
        doomed_out = la_b.open(1000)
        survivor = lc_b.open(1000)
        for f in (doomed_out, survivor):
            f.done.defused = True  # nobody waits in this unit test
        n = fn.site_outage("a", duration=5.0)
        assert n == 1
        assert doomed_out not in la_b.flows
        assert survivor in lc_b.flows
        assert fn.down_remaining("a") == pytest.approx(5.0)
        assert fn.down_remaining("c") == 0.0

    def test_flap_aborts_both_directions(self, env):
        fn = self._net(env)
        fwd = fn.link("a", "b", capacity=100.0).open(1000)
        bwd = fn.link("b", "a", capacity=100.0).open(1000)
        other = fn.link("a", "c", capacity=100.0).open(1000)
        for f in (fwd, bwd, other):
            f.done.defused = True
        assert fn.flap_link("a", "b") == 2
        assert other.rate == pytest.approx(100.0)
        assert fn.down_remaining("a") == 0.0  # flaps have no down window


class TestNetworkFairModel:
    def test_rejects_unknown_model(self, env, topo):
        with pytest.raises(ValueError, match="bandwidth_model"):
            Network(env, topo, bandwidth_model="token-bucket")

    def test_single_transfer_matches_slots_timing(self, env, topo):
        """Uncontended, fair and slots charge the same delay."""
        net = Network(env, topo, bandwidth_model="fair")
        run(env, net.transfer("west-europe", "east-us", size=10 * MB))
        assert env.now == pytest.approx(LAT + OVH + 10 * MB / WAN_BW)

    def test_concurrent_transfers_each_get_1_over_n(self, env, topo):
        """Acceptance: N same-link transfers each see ~1/N bandwidth."""
        net = Network(env, topo, bandwidth_model="fair")
        n, size = 4, 10 * MB
        done = []

        def xfer():
            yield from net.transfer("west-europe", "east-us", size=size)
            done.append(env.now)

        for _ in range(n):
            env.process(xfer())
        env.run()
        expected = n * size / WAN_BW + LAT + OVH
        assert done == pytest.approx([expected] * n)

    def test_opposite_directions_do_not_contend(self, env, topo):
        net = Network(env, topo, bandwidth_model="fair")
        done = {}

        def xfer(src, dst, tag):
            yield from net.transfer(src, dst, size=10 * MB)
            done[tag] = env.now

        env.process(xfer("west-europe", "east-us", "fwd"))
        env.process(xfer("east-us", "west-europe", "bwd"))
        env.run()
        assert done["fwd"] == pytest.approx(done["bwd"])
        assert done["fwd"] == pytest.approx(LAT + OVH + 10 * MB / WAN_BW)

    def test_local_transfers_bypass_flow_sharing(self, env, topo):
        net = Network(env, topo, bandwidth_model="fair")
        done = []

        def xfer():
            yield from net.transfer("west-europe", "west-europe", size=10 * MB)
            done.append(env.now)

        env.process(xfer())
        env.process(xfer())
        env.run()
        # LAN is uncapped: both complete as if alone.
        assert done[0] == pytest.approx(done[1])
        assert net.flow_net.links == {}

    def test_zero_size_message_pays_latency_only(self, env, topo):
        net = Network(env, topo, bandwidth_model="fair")
        run(env, net.transfer("west-europe", "east-us", size=0))
        assert env.now == pytest.approx(LAT + OVH)

    def test_total_latency_accounts_contention(self, env, topo):
        """Fair model stats reflect the slowed-down delivery."""
        net = Network(env, topo, bandwidth_model="fair")
        size = 10 * MB

        def xfer():
            yield from net.transfer("west-europe", "east-us", size=size)

        env.process(xfer())
        env.process(xfer())
        env.run()
        per_msg = 2 * size / WAN_BW + LAT + OVH
        assert net.stats.total_latency == pytest.approx(2 * per_msg)

    def test_rpc_rides_fair_flows(self, env, topo):
        net = Network(env, topo, bandwidth_model="fair")
        result = run(
            env,
            net.rpc("west-europe", "east-us", lambda: 7,
                    request_size=MB, response_size=MB),
        )
        assert result == 7
        assert env.now == pytest.approx(2 * (LAT + OVH + MB / WAN_BW))

    def test_estimated_transfer_time_is_load_aware(self, env, topo):
        net = Network(env, topo, bandwidth_model="fair")
        size = 10 * MB
        idle = net.estimated_transfer_time("west-europe", "east-us", size)
        assert idle == pytest.approx(LAT + OVH + size / WAN_BW)

        def holder():
            yield from net.transfer("west-europe", "east-us", size=50 * MB)

        env.process(holder())
        env.run(until=0.1)  # flow now active on the link
        loaded = net.estimated_transfer_time("west-europe", "east-us", size)
        assert loaded == pytest.approx(LAT + OVH + size / (WAN_BW / 2))

    def test_estimator_consumes_no_rng(self, env):
        net = Network(env, azure_4dc_topology(jitter=True),
                      bandwidth_model="fair")
        probe = net.rng.normal(0.0, 1.0)  # burn one draw for a baseline
        for _ in range(50):
            net.estimated_transfer_time("west-europe", "east-us", 10 * MB)
        env2 = Environment()
        net2 = Network(env2, azure_4dc_topology(jitter=True))
        assert net2.rng.normal(0.0, 1.0) == probe
        assert net.one_way_delay("west-europe", "east-us") == pytest.approx(
            net2.one_way_delay("west-europe", "east-us")
        )

    def test_respects_per_flow_rate_cap_from_link_spec(self, env):
        topo = make_topology(["a", "b"], geo_distant_latency=0.01)
        topo.set_link("a", "b", latency=0.01, bandwidth=100 * MB,
                      max_flow_rate=10 * MB)
        net = Network(env, topo, bandwidth_model="fair")
        run(env, net.transfer("a", "b", size=10 * MB))
        # Capped at 10 MB/s despite a 100 MB/s link.
        assert env.now == pytest.approx(0.01 + OVH + 1.0)


class TestSlotsModelRegressions:
    """Satellite bugfixes: estimator purity and end-to-end accounting."""

    def test_round_trip_is_jitter_free_and_rng_pure(self, env):
        """round_trip must not draw from (or perturb) the network stream."""
        net = Network(env, azure_4dc_topology(jitter=True))
        before = [net.round_trip("west-europe", "east-us") for _ in range(100)]
        assert len(set(before)) == 1  # deterministic, jitter-free
        # A fresh network that never called round_trip draws the same
        # jitter sequence: the estimator left the stream untouched.
        env2 = Environment()
        net2 = Network(env2, azure_4dc_topology(jitter=True))
        seq = [net.one_way_delay("west-europe", "east-us") for _ in range(20)]
        ref = [net2.one_way_delay("west-europe", "east-us") for _ in range(20)]
        assert seq == ref

    def test_round_trip_matches_expected_components(self, env, topo):
        net = Network(env, topo)
        assert net.round_trip("west-europe", "east-us") == pytest.approx(
            2 * (LAT + OVH)
        )

    def test_saturated_link_latency_includes_queue_wait(self, env, topo):
        """Regression: reported latency is send->arrival, end to end."""
        net = Network(env, topo, link_concurrency=1)
        size = 10 * MB
        per_leg = LAT + OVH + size / WAN_BW

        def xfer():
            yield from net.transfer("west-europe", "east-us", size=size)

        env.process(xfer())
        env.process(xfer())
        env.run()
        # First message: one leg.  Second: queued behind it, so its
        # end-to-end latency is two legs.  Total = 3 legs, not 2.
        assert net.stats.total_latency == pytest.approx(3 * per_leg)
        assert env.now == pytest.approx(2 * per_leg)

    def test_slots_model_rng_sequence_matches_uncontended(self, env):
        """Slot-model jitter draws keep their order (seed comparability)."""
        net = Network(env, azure_4dc_topology(jitter=True))
        deliveries = []

        def xfer(src, dst):
            msg = yield from net.transfer(src, dst, size=1024)
            deliveries.append((msg.src, msg.dst, env.now))

        def scenario():
            yield from xfer("west-europe", "east-us")
            yield from xfer("east-us", "south-central-us")
            yield from xfer("west-europe", "west-europe")

        run(env, scenario())
        # Reference: the same three draws taken directly from a fresh
        # stream in transfer-call order reproduce the delivery times.
        env2 = Environment()
        net2 = Network(env2, azure_4dc_topology(jitter=True))
        t = 0.0
        for (src, dst, at) in deliveries:
            t += net2.one_way_delay(src, dst, 1024)
            assert at == pytest.approx(t)

    def test_fair_model_stats_keys_unchanged(self, env, topo):
        net = Network(env, topo, bandwidth_model="fair")
        run(env, net.transfer("west-europe", "east-us", size=100))
        assert set(net.stats.as_dict()) == {
            "messages",
            "bytes",
            "local_messages",
            "same_region_messages",
            "geo_distant_messages",
            "total_latency",
            "aborted_transfers",
            "aborted_bytes",
            "retried_transfers",
            "retried_bytes",
        }
