"""The lone-flow shortcuts of :class:`~repro.cloud.flow.FlowNetwork`.

A solve over one record (a lone flow, or one probe on an idle
component) takes ``_lone_rate``'s closed form instead of the general
``_water_fill`` loop.  ``solver="verify"`` cannot catch a drift there:
a global solve over one flow takes the same shortcut.  So the closed
form is compared with the loop directly, bit for bit, on seeded random
lone flows and probes (the seeded-RNG property idiom of
``test_flow_properties.py``).

Two more cases pin the uncoupled entry's lone path bit for bit: a
survivor left alone when the other flow on its link drains (rate,
timer and counters, against ``_water_fill`` and a twin run under
``solver="global"``), and a probe on an active link.

The counter tests pin what a lone flow costs the rebalance counters
that the benchmark gates on; they hold with and without the shortcuts.
"""

import math

import numpy as np
import pytest

from repro.cloud.flow import FlowNetwork, _Probe
from repro.obs import Tracer
from repro.sim import Environment

N_CASES = 2000


def draw(rng, lo, hi, p_inf=0.3):
    """A finite value in ``[lo, hi)``, or ``inf`` with probability p_inf."""
    return math.inf if rng.random() < p_inf else float(rng.uniform(lo, hi))


def random_case(rng):
    """One lone record: capacity, weight, rate cap and each site's
    ``(egress, ingress)`` caps."""
    return dict(
        capacity=draw(rng, 1.0, 500.0),
        weight=float(rng.uniform(0.01, 10.0)),
        max_rate=draw(rng, 1.0, 500.0),
        caps={
            site: (
                draw(rng, 1.0, 500.0, p_inf=0.5),
                draw(rng, 1.0, 500.0, p_inf=0.5),
            )
            for site in "ab"
        },
        loopback=bool(rng.random() < 0.1),
    )


ALL_INFINITE = dict(
    capacity=math.inf,
    weight=1.0,
    max_rate=math.inf,
    caps={site: (math.inf, math.inf) for site in "ab"},
    loopback=False,
)


def cases(seed):
    rng = np.random.default_rng(seed)
    return [ALL_INFINITE] + [random_case(rng) for _ in range(N_CASES)]


def network(case, solver="incremental"):
    caps = case["caps"]
    fn = FlowNetwork(
        Environment(), site_caps=lambda site: caps[site], solver=solver
    )
    dst = "a" if case["loopback"] else "b"
    return fn, ("a", dst)


def open_pair(case, solver="incremental"):
    """A short flow and then the case's flow, on one link.

    The first flow is capped at 300 B/s, so it always has a positive
    rate, and it carries 100 bytes against the survivor's 10**9, so it
    always drains first.  Returns the network, the link, both flows and
    the survivor's timer.
    """
    fn, (src, dst) = network(case, solver)
    link = fn.link(src, dst, capacity=case["capacity"])
    first = link.open(100, max_rate=300.0)
    survivor = link.open(
        10**9, max_rate=case["max_rate"], weight=case["weight"]
    )
    return fn, link, first, survivor, survivor._timer


class TestClosedFormEqualsLoop:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lone_flow(self, seed):
        for case in cases(seed):
            fn, (src, dst) = network(case)
            link = fn.link(src, dst, capacity=case["capacity"])
            flow = link.open(
                1000, max_rate=case["max_rate"], weight=case["weight"]
            )
            want = fn._water_fill([link])[id(flow)]
            assert flow.rate == want, case
            assert fn._solve([link])[id(flow)] == want, case

    @pytest.mark.parametrize("seed", [2, 3])
    def test_lone_probe(self, seed):
        for case in cases(seed):
            fn, (src, dst) = network(case)
            kwargs = dict(
                capacity=case["capacity"],
                max_flow_rate=case["max_rate"],
                weight=case["weight"],
            )
            probe = _Probe(src, dst, case["max_rate"], case["weight"])
            extra_capacity = ((src, dst), case["capacity"])
            want = fn._water_fill(
                [], extra=[probe], extra_capacity=extra_capacity
            )[id(probe)]
            assert fn.estimate_rate(src, dst, **kwargs) == want, case
            # An idle existing link is no different from a missing one.
            fn.link(src, dst, capacity=case["capacity"])
            assert fn.estimate_rate(src, dst, **kwargs) == want, case

    @pytest.mark.parametrize("seed", [4, 5])
    def test_survivor(self, seed):
        """Two flows share a link and the first drains: the survivor is
        alone again, so it gets the closed form and its timer moves."""
        for case in cases(seed):
            fn, link, first, survivor, timer = open_pair(case)
            fn.env.run(until=first.done)
            assert survivor in link.flows and not survivor.done.triggered
            assert survivor.rate == fn._water_fill([link])[id(survivor)]
            # The same Timeout, rescheduled in place rather than replaced.
            assert survivor._timer is timer
            assert fn.rebalances == 3 and link.stats.rebalances == 3
            # The twin under the global solver takes the general path:
            # same rate, same completion instant, same counters.
            twin, twin_link, twin_first, twin_survivor, _ = open_pair(
                case, solver="global"
            )
            twin.env.run(until=twin_first.done)
            assert fn.env.now == twin.env.now, case
            assert survivor.rate == twin_survivor.rate, case
            assert timer._entry[0] == twin_survivor._timer._entry[0], case
            assert survivor.remaining == twin_survivor.remaining, case
            assert (fn.rebalances, link.stats.rebalances) == (
                twin.rebalances, twin_link.stats.rebalances
            )

    @pytest.mark.parametrize("seed", [6, 7])
    def test_probe_on_active_link(self, seed):
        for case in cases(seed):
            fn, (src, dst) = network(case)
            link = fn.link(src, dst, capacity=case["capacity"])
            link.open(1000, max_rate=case["max_rate"], weight=case["weight"])
            probe = _Probe(src, dst, 300.0, 1.0)
            want = fn._water_fill(
                [link], extra=[probe],
                extra_capacity=((src, dst), case["capacity"]),
            )[id(probe)]
            got = fn.estimate_rate(
                src, dst, capacity=case["capacity"], max_flow_rate=300.0
            )
            assert got == want, case

    def test_unbounded_record_gets_rate_zero(self):
        fn, (src, dst) = network(ALL_INFINITE)
        flow = fn.link(src, dst, capacity=math.inf).open(1000)
        assert flow.rate == 0.0
        assert fn.estimate_rate("b", "a", capacity=math.inf) == 0.0

    def test_site_caps_read_live(self):
        caps = {"a": (math.inf, math.inf), "b": (math.inf, math.inf)}
        fn = FlowNetwork(Environment(), site_caps=lambda site: caps[site])
        assert fn.estimate_rate("a", "b", capacity=100.0) == 100.0
        caps["a"] = (40.0, math.inf)
        assert fn.estimate_rate("a", "b", capacity=100.0) == 40.0
        caps["b"] = (math.inf, 25.0)
        assert fn.estimate_rate("a", "b", capacity=100.0) == 25.0


CAPS = {
    "open": (math.inf, math.inf),
    "egress": (60.0, math.inf),
    "ingress": (math.inf, 60.0),
}


class TestLoneFlowCounters:
    @pytest.mark.parametrize("caps", sorted(CAPS))
    def test_open_and_drain(self, caps):
        env = Environment()
        fn = FlowNetwork(env, site_caps=lambda site: CAPS[caps])
        link = fn.link("a", "b", capacity=100.0)
        flow = link.open(500)
        env.run()
        assert flow.done.ok
        assert fn.rebalances == 2
        assert link.stats.rebalances == 1

    @pytest.mark.parametrize("caps", sorted(CAPS))
    def test_estimate_on_idle_network_counts_nothing(self, caps):
        env = Environment()
        fn = FlowNetwork(env, site_caps=lambda site: CAPS[caps])
        link = fn.link("a", "b", capacity=100.0)
        fn.estimate_rate("a", "b", capacity=100.0)
        fn.estimate_rate("c", "d", capacity=100.0)
        assert fn.rebalances == 0
        assert link.stats.rebalances == 0

    def test_drain_still_traced(self):
        env = Environment()
        tracer = Tracer(env, categories=("flow",))
        env.attach_tracer(tracer)
        fn = FlowNetwork(env)
        fn.link("a", "b", capacity=100.0).open(500)
        env.run()
        events = [
            (t, args["links"], args["flows"])
            for t, cat, name, args in tracer.events
            if (cat, name) == ("flow", "rebalance")
        ]
        assert events == [(0.0, 1, 1), (5.0, 0, 0)]
