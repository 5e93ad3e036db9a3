"""One-link components and the site-indexed component search.

A rebalance or estimate whose constraint component holds one active
link -- an uncoupled link carrying several flows, or a capped link whose
siblings are idle -- is solved in place by ``_fill_link`` instead of the
general ``_water_fill``.  ``solver="verify"`` compares rates within a
tolerance, so these tests compare the two directly, with ``==``, on
seeded random cases (the seeded-RNG idiom of ``test_flow_lone.py``):
2 to 40 flows with mixed weights, per-flow rate caps that bind in a
later round, finite, zero and infinite site caps, loopback links,
levels within ``_LEVEL_RTOL`` of a tie, and probes added to an active
one-link component.

``_component`` walks per-site link lists instead of rescanning every
active link to a fixpoint; it is compared with a copy of the fixpoint
on seeded random link sets and multi-link seeds (the fault-teardown
case).
"""

import math

import numpy as np
import pytest

from repro.cloud.flow import (
    _LEVEL_RTOL,
    FlowNetwork,
    _fill_link,
    _Probe,
)
from repro.sim import Environment

N_CASES = 2000

#: Relative offsets that put a rate cap or a site cap at, just inside or
#: just outside ``_LEVEL_RTOL`` of the level it competes with.
TIES = (0.0, 0.25, 0.5, 1.0, 2.0, -0.5)


def site_cap(rng, share):
    """An egress or ingress cap: infinite, zero, near ``share`` or random."""
    kind = rng.random()
    if kind < 0.4:
        return math.inf
    if kind < 0.45:
        return 0.0
    if kind < 0.6:
        return share * (1.0 + float(rng.choice(TIES)) * _LEVEL_RTOL)
    return float(rng.uniform(1.0, 500.0))


def random_case(rng):
    """One link's flows, its capacity and its sites' caps."""
    n = int(rng.integers(2, 41))
    if rng.random() < 0.5:
        weights = [float(rng.choice([0.5, 1.0, 2.0, 3.0])) for _ in range(n)]
    else:
        weights = [float(rng.uniform(0.01, 10.0)) for _ in range(n)]
    capacity = math.inf if rng.random() < 0.05 else float(
        rng.uniform(1.0, 500.0)
    )
    total = sum(weights)
    finite = capacity if math.isfinite(capacity) else 250.0
    max_rates = []
    for w in weights:
        kind = rng.random()
        if kind < 0.4:
            max_rates.append(math.inf)
        elif kind < 0.55:
            # At (or within the tie tolerance of) the first-round share.
            tie = float(rng.choice(TIES)) * _LEVEL_RTOL
            max_rates.append(finite / total * w * (1.0 + tie))
        else:
            # Around the share: some bind in the first round, some later.
            max_rates.append(finite / total * w * float(rng.uniform(0.2, 3.0)))
    return dict(
        weights=weights,
        max_rates=max_rates,
        capacity=capacity,
        caps={
            site: (
                site_cap(rng, finite),
                site_cap(rng, finite),
            )
            for site in "abc"
        },
        loopback=bool(rng.random() < 0.1),
        sibling=bool(rng.random() < 0.5),
    )


def cases(seed):
    rng = np.random.default_rng(seed)
    return [random_case(rng) for _ in range(N_CASES)]


def open_link(case, solver="incremental"):
    """The case's flows opened one by one on link ``a -> b`` (or the
    loopback ``a -> a``); with ``sibling`` an idle ``a -> c`` link shares
    the source, so a finite egress cap makes the search walk it."""
    caps = case["caps"]
    fn = FlowNetwork(
        Environment(), site_caps=lambda site: caps[site], solver=solver
    )
    dst = "a" if case["loopback"] else "b"
    if case["sibling"]:
        fn.link("a", "c", capacity=100.0)
    link = fn.link("a", dst, capacity=case["capacity"])
    for weight, max_rate in zip(case["weights"], case["max_rates"]):
        link.open(10**9, max_rate=max_rate, weight=weight)
    return fn, link


class TestFillLinkEqualsWaterFill:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_flows(self, seed):
        for case in cases(seed):
            fn, link = open_link(case)
            want = fn._water_fill([link])
            rates = [want[id(flow)] for flow in link.flows]
            # The live rates, set by the last open's in-place rebalance.
            assert [flow.rate for flow in link.flows] == rates, case
            caps = case["caps"]
            got = _fill_link(
                link.flows, link.capacity, caps["a"][0], caps[link.dst][1]
            )
            assert got == rates, case

    @pytest.mark.parametrize("seed", [2, 3])
    def test_probes_on_an_active_link(self, seed):
        rng = np.random.default_rng(100 + seed)
        for case in cases(seed):
            fn, link = open_link(case)
            k = int(rng.integers(0, 4))
            weight = float(rng.uniform(0.1, 5.0))
            max_rate = math.inf if rng.random() < 0.5 else float(
                rng.uniform(1.0, 300.0)
            )
            probe = _Probe(link.src, link.dst, max_rate, weight)
            # The probe's own capacity loses to the live link's.
            want = fn._water_fill(
                [link],
                extra=[probe] * max(1, k),
                extra_capacity=((link.src, link.dst), 1.0),
            )[id(probe)]
            got = fn.estimate_rate(
                link.src, link.dst, capacity=1.0,
                max_flow_rate=max_rate, weight=weight, extra_flows=k,
            )
            assert got == want, case

    @pytest.mark.parametrize("seed", [4, 5])
    def test_probes_on_an_idle_link(self, seed):
        """Several probes, no active flow, capacities including 0."""
        rng = np.random.default_rng(seed)
        for case in cases(seed):
            caps = case["caps"]
            fn = FlowNetwork(Environment(), site_caps=lambda s: caps[s])
            dst = "a" if case["loopback"] else "b"
            capacity = 0.0 if rng.random() < 0.1 else case["capacity"]
            k = int(rng.integers(2, 6))
            probe = _Probe("a", dst, case["max_rates"][0], case["weights"][0])
            want = fn._water_fill(
                [], extra=[probe] * k,
                extra_capacity=(("a", dst), capacity),
            )[id(probe)]
            got = fn.estimate_rate(
                "a", dst, capacity=capacity,
                max_flow_rate=probe.max_rate, weight=probe.weight,
                extra_flows=k,
            )
            assert got == want, case

    @pytest.mark.parametrize("seed", [6, 7])
    def test_matches_global_twin(self, seed):
        """The same opens under ``solver="global"``, which never takes
        the in-place path: identical rates, timers and counters."""
        for case in cases(seed)[: N_CASES // 4]:
            fn, link = open_link(case)
            twin, twin_link = open_link(case, solver="global")
            assert [f.rate for f in link.flows] == [
                f.rate for f in twin_link.flows
            ], case
            assert [f._timer._entry[0] for f in link.flows] == [
                f._timer._entry[0] for f in twin_link.flows
            ], case
            assert link.stats.rebalances == twin_link.stats.rebalances

    def test_a_rate_cap_binds_in_a_later_round(self):
        """100 B/s over four unit-weight flows capped at 10, 28, inf and
        inf B/s: the 10 B/s cap binds first, the 28 B/s cap -- above
        the even 25 B/s share -- in the second round, and the last two
        split the 62 B/s left."""
        fn = FlowNetwork(Environment())
        link = fn.link("a", "b", capacity=100.0)
        flows = [
            link.open(10**6, max_rate=rate)
            for rate in (10.0, 28.0, math.inf, math.inf)
        ]
        want = fn._water_fill([link])
        assert [f.rate for f in flows] == [want[id(f)] for f in flows]
        assert [f.rate for f in flows] == [10.0, 28.0, 31.0, 31.0]


def fixpoint_component(fn, seed_keys):
    """``FlowNetwork._component`` as it was: rescan every active link
    until no link joins."""
    caps = fn._site_caps
    seed_keys = set(seed_keys)
    egress, ingress = set(), set()
    for src, dst in seed_keys:
        if math.isfinite(caps(src)[0]):
            egress.add(src)
        if math.isfinite(caps(dst)[1]):
            ingress.add(dst)
    active = fn._active_links()
    in_comp = set()
    grew = True
    while grew:
        grew = False
        for link in active:
            if link in in_comp:
                continue
            if (
                (link.src, link.dst) in seed_keys
                or link.src in egress
                or link.dst in ingress
            ):
                in_comp.add(link)
                grew = True
                if math.isfinite(caps(link.src)[0]):
                    egress.add(link.src)
                if math.isfinite(caps(link.dst)[1]):
                    ingress.add(link.dst)
    return [link for link in active if link in in_comp]


SITES = "abcdefg"


class TestComponentEqualsFixpoint:
    @pytest.mark.parametrize("seed", [8, 9])
    def test_random_link_sets(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(N_CASES):
            caps = {
                site: (
                    math.inf if rng.random() < 0.6 else 50.0,
                    math.inf if rng.random() < 0.6 else 50.0,
                )
                for site in SITES
            }
            fn = FlowNetwork(Environment(), site_caps=lambda s: caps[s])
            pairs = [(s, d) for s in SITES for d in SITES]
            for i in rng.permutation(len(pairs))[: int(rng.integers(1, 30))]:
                link = fn.link(*pairs[i], capacity=100.0)
                if rng.random() < 0.6:
                    link.open(10**9)
            n_seeds = int(rng.integers(1, 5))
            seeds = [
                pairs[i] for i in rng.choice(len(pairs), n_seeds)
            ]
            assert fn._component(seeds) == fixpoint_component(fn, seeds)

    def test_teardown_seeds_span_components(self):
        """A region outage seeds the search with links of two capped
        sites; each brings its own coupled links, and nothing else."""
        caps = {s: (math.inf, math.inf) for s in SITES}
        caps["a"] = (50.0, math.inf)
        caps["e"] = (math.inf, 50.0)
        fn = FlowNetwork(Environment(), site_caps=lambda s: caps[s])
        for src, dst in [("a", "b"), ("a", "c"), ("d", "e"), ("f", "e"),
                         ("b", "c"), ("g", "d")]:
            fn.link(src, dst, capacity=100.0).open(10**9)
        seeds = [("a", "b"), ("f", "e")]
        got = [(link.src, link.dst) for link in fn._component(seeds)]
        assert got == [("a", "b"), ("a", "c"), ("d", "e"), ("f", "e")]
        assert fn._component(seeds) == fixpoint_component(fn, seeds)
