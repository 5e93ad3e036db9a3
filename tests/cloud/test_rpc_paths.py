"""The one-frame RPC against the transfer-per-leg RPC.

An untraced ``Network.rpc`` runs both of its legs in its own generator
frame under either bandwidth model; traced RPCs run each leg through
``Network.transfer`` (``Network._transfer_rpc``).  The two must be
indistinguishable: the same completion times, ``NetworkStats``, jitter
draws and link-slot accounting, with jitter on, for local,
uncontended-WAN and contended-WAN slots-model legs.  None of the bench
workloads reaches a contended slots-model WAN leg, so the contended
case is pinned here.

Under ``bandwidth_model="fair"`` the legs ride flows on coupled links
(every site's egress is capped), and the pins add each link's
``FlowStats`` and the abort/retry counters of ``NetworkStats``: with no
fault, with a ``flap_link`` that tears down flows mid-RPC (the legs
retransmit), and with a ``site_outage`` whose down window holds legs
back until the site recovers.
"""

import pytest

from repro.cloud.network import Network
from repro.cloud.presets import azure_4dc_topology
from repro.obs import Tracer
from repro.sim import Environment
from repro.util.units import MB
from repro.util.rng import RngStreams

#: Client (src, dst) pairs per case, and the per-link slot count.
CASES = {
    "local": ([("west-europe", "west-europe")] * 6, 64),
    "uncontended_wan": (
        [
            ("west-europe", "east-us"),
            ("north-europe", "south-central-us"),
            ("east-us", "north-europe"),
        ],
        64,
    ),
    "contended_wan": ([("west-europe", "east-us")] * 6, 1),
}

#: Fair-model clients: concurrent legs share links and the capped
#: egress of their sites, with a local pair among them.
FAIR_CLIENTS = [
    ("west-europe", "east-us"),
    ("west-europe", "east-us"),
    ("north-europe", "east-us"),
    ("east-us", "west-europe"),
    ("west-europe", "south-central-us"),
    ("north-europe", "north-europe"),
]

#: When each fault lands: after the first legs opened, before they end.
FAULT_AT = 0.05

#: Fair-model cases: the fault injected at ``FAULT_AT``, if any.
FAIR_CASES = {
    "fair": None,
    "fair_flap": lambda net: net.flap_link("west-europe", "east-us"),
    "fair_outage": lambda net: net.abort_site_flows(
        "east-us", duration=0.03
    ),
}


class _RecordedJitter:
    """The network's block stream, recording every draw it serves."""

    def __init__(self, stream):
        self.stream = stream
        self.draws = []

    def normal(self, loc, scale):
        value = self.stream.normal(loc, scale)
        self.draws.append((loc, scale, value))
        return value


def _clients(case):
    return FAIR_CLIENTS if case in FAIR_CASES else CASES[case][0]


def _sizes(case, i):
    """Request and response sizes of client ``i``'s RPCs: fair-model
    legs are long enough to share links and to be cut by a fault."""
    if case in FAIR_CASES:
        return MB + 4096 * i, 2 * MB
    return 256 + i, 512


def _network(env, case):
    if case in FAIR_CASES:
        return Network(
            env,
            azure_4dc_topology(jitter=True, site_egress_bw=60 * MB),
            rng=RngStreams(seed=3),
            bandwidth_model="fair",
            rpc_weight=2.0,
        )
    return Network(
        env,
        azure_4dc_topology(jitter=True),
        rng=RngStreams(seed=3),
        link_concurrency=CASES[case][1],
    )


def _run(one_frame: bool, case: str):
    env = Environment()
    net = _network(env, case)
    net.rng = jitter = _RecordedJitter(net.rng)
    rpc = net.rpc if one_frame else net._transfer_rpc
    done = []
    clients = _clients(case)
    waits = []
    down = net._down

    def recorded_down(src, dst):
        waits.append((env.now, src, dst, down(src, dst)))
        return waits[-1][-1]

    net._down = recorded_down

    def service(i, k):
        yield 0.002 * ((i + k) % 3)
        return (i, k)

    def client(i, src, dst):
        for k in range(4):
            result = yield from rpc(src, dst, service(i, k), *_sizes(case, i))
            done.append((env.now, result))

    def fault(inject):
        yield FAULT_AT
        inject(net)

    for i, (src, dst) in enumerate(clients):
        env.process(client(i, src, dst))
    if FAIR_CASES.get(case) is not None:
        env.process(fault(FAIR_CASES[case]))
    env.run()
    slots = {
        pair: (r.total_requests, r.max_queue_len, r.total_wait_time)
        for pair, r in net._link_slots.items()
    }
    flows = {}
    if net.flow_net is not None:
        flows = {
            key: link.stats.as_dict()
            for key, link in net.flow_net.links.items()
        }
    return {
        "done": done,
        "stats": net.stats.as_dict(),
        "rng": jitter.draws,
        "stream": jitter.stream,
        "slots": slots,
        "flows": flows,
        "waits": waits,
        "events": env.events_processed,
    }


ALL_CASES = sorted(CASES) + sorted(FAIR_CASES)


@pytest.mark.parametrize("case", ALL_CASES)
def test_one_frame_rpc_matches_transfer_rpc(case):
    one_frame, via_transfer = _run(True, case), _run(False, case)
    for run in (one_frame, via_transfer):
        del run["stream"]
    assert one_frame == via_transfer
    assert len(one_frame["done"]) == 4 * len(_clients(case))
    assert one_frame["stats"]["messages"] == 2 * len(one_frame["done"])


@pytest.mark.parametrize("case", ALL_CASES)
def test_one_jitter_draw_per_leg(case):
    """Both paths share the leg helpers, so pin the draws themselves:
    one draw per delivered WAN leg (local links have no jitter), none
    for a failed slot claim, each the value the raw generator gives at
    that position, and nothing else taken from the stream."""
    run = _run(True, case)
    stats = run["stats"]
    draws = run["rng"]
    assert len(draws) == stats["messages"] - stats["local_messages"]
    ref = RngStreams(seed=3).get("network")
    assert draws == [
        (loc, scale, float(ref.normal(loc, scale)))
        for loc, scale, _ in draws
    ]
    assert run["stream"].normal(0.0, 1.0) == ref.normal(0.0, 1.0)


def test_cases_reach_the_leg_kinds_they_name():
    """Each case exercises the path it is named after."""
    local = _run(True, "local")
    assert local["slots"] == {}
    assert local["stats"]["local_messages"] == local["stats"]["messages"]
    uncontended = _run(True, "uncontended_wan")
    assert all(wait == 0.0 for _, _, wait in uncontended["slots"].values())
    contended = _run(True, "contended_wan")
    assert any(wait > 0.0 for _, _, wait in contended["slots"].values())


def test_fair_cases_reach_the_faults_they_name():
    """Flows share links, and each fault lands mid-RPC: it aborts legs
    in flight, which retransmit, and the outage holds legs back."""
    fair = _run(True, "fair")
    assert fair["slots"] == {}
    assert max(f["max_concurrent"] for f in fair["flows"].values()) > 1
    assert fair["stats"]["aborted_transfers"] == 0
    assert fair["waits"] == []
    for case in ("fair_flap", "fair_outage"):
        stats = _run(True, case)["stats"]
        assert stats["aborted_transfers"] > 0, case
        assert stats["aborted_bytes"] > 0.0, case
        assert stats["retried_transfers"] == stats["aborted_transfers"]
        assert stats["retried_bytes"] > 0, case
    outage = _run(True, "fair_outage")
    held = [w for w in outage["waits"] if w[-1] > 0.0]
    assert held and all(
        FAULT_AT <= t < FAULT_AT + 0.03 and "east-us" in (src, dst)
        for t, src, dst, _ in held
    )


def test_rpc_picks_the_one_frame_path_only_when_untraced():
    def network(model, traced):
        env = Environment()
        if traced:
            env.attach_tracer(Tracer(env, categories=("network",)))
        return Network(
            env, azure_4dc_topology(jitter=False), bandwidth_model=model
        )

    for model in ("slots", "fair"):
        gen = network(model, False).rpc("west-europe", "east-us", None)
        assert gen.gi_code.co_name == "_one_frame_rpc"
        gen = network(model, True).rpc("west-europe", "east-us", None)
        assert gen.gi_code.co_name == "_transfer_rpc"
