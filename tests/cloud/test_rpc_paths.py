"""The one-frame slots-model RPC against the transfer-per-leg RPC.

An untraced slots-model ``Network.rpc`` runs both of its legs in its own
generator frame; traced and fair-model RPCs run each leg through
``Network.transfer``.  The two must be indistinguishable: the same
completion times, ``NetworkStats``, jitter draws and link-slot
accounting, with jitter on, for local, uncontended-WAN and
contended-WAN legs.  None of the bench workloads reaches a contended
slots-model WAN leg, so the contended case is pinned here.
"""

import pytest

from repro.cloud.network import Network
from repro.cloud.presets import azure_4dc_topology
from repro.sim import Environment
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


class _RecordedJitter:
    """The network's block stream, recording every draw it serves."""

    def __init__(self, stream):
        self.stream = stream
        self.draws = []

    def normal(self, loc, scale):
        value = self.stream.normal(loc, scale)
        self.draws.append((loc, scale, value))
        return value


def _run(one_frame: bool, case: str):
    clients, link_concurrency = CASES[case]
    env = Environment()
    net = Network(
        env,
        azure_4dc_topology(jitter=True),
        rng=RngStreams(seed=3),
        link_concurrency=link_concurrency,
    )
    net.rng = jitter = _RecordedJitter(net.rng)
    rpc = net.rpc if one_frame else net._transfer_rpc
    done = []

    def service(i, k):
        yield 0.002 * ((i + k) % 3)
        return (i, k)

    def client(i, src, dst):
        for k in range(4):
            result = yield from rpc(src, dst, service(i, k), 256 + i, 512)
            done.append((env.now, result))

    for i, (src, dst) in enumerate(clients):
        env.process(client(i, src, dst))
    env.run()
    slots = {
        pair: (r.total_requests, r.max_queue_len, r.total_wait_time)
        for pair, r in net._link_slots.items()
    }
    return {
        "done": done,
        "stats": net.stats.as_dict(),
        "rng": jitter.draws,
        "stream": jitter.stream,
        "slots": slots,
        "events": env.events_processed,
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_frame_rpc_matches_transfer_rpc(case):
    one_frame, via_transfer = _run(True, case), _run(False, case)
    for run in (one_frame, via_transfer):
        del run["stream"]
    assert one_frame == via_transfer
    assert len(one_frame["done"]) == 4 * len(CASES[case][0])
    assert one_frame["stats"]["messages"] == 2 * len(one_frame["done"])


@pytest.mark.parametrize("case", sorted(CASES))
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


def test_rpc_picks_the_one_frame_path_only_when_untraced_slots():
    env = Environment()
    slots_net = Network(env, azure_4dc_topology(jitter=False))
    fair_net = Network(
        env, azure_4dc_topology(jitter=False), bandwidth_model="fair"
    )
    gen = slots_net.rpc("west-europe", "east-us", lambda: None)
    assert gen.gi_code.co_name == "_slots_rpc"
    gen = fair_net.rpc("west-europe", "east-us", lambda: None)
    assert gen.gi_code.co_name == "_transfer_rpc"
