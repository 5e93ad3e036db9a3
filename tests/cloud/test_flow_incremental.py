"""Incremental water-filling vs. the global re-solve.

The incremental solver re-solves only the constraint component
reachable from the perturbed link; ``solver="global"`` is the legacy
everything-every-time algorithm, kept as the reference.  These tests pin
their equivalence two ways:

- ``solver="verify"`` runs churn scenarios with a shadow global solve
  after every rebalance, raising :class:`SimulationError` on any rate
  divergence (the solver self-asserts, the test just drives load);
- seeded end-to-end runs under ``"incremental"`` and ``"global"``
  must produce identical completion traces and per-link stats.
"""

import math
import random

import pytest

from repro.cloud.flow import FlowAborted, FlowNetwork
from repro.sim import Environment

SITES = ("a", "b", "c", "d", "e", "f")
LINK_CAP = 100.0


def make_network(env, solver, egress=None, ingress=None):
    egress = egress or {}
    ingress = ingress or {}
    fn = FlowNetwork(
        env,
        site_caps=lambda s: (
            egress.get(s, math.inf),
            ingress.get(s, math.inf),
        ),
        solver=solver,
    )
    for src in SITES:
        for dst in SITES:
            if src != dst:
                fn.link(src, dst, capacity=LINK_CAP)
    return fn


def churn(env, fn, seed, n_flows=120, abort_every=9):
    """Seeded open/complete/abort churn across the mesh; returns a trace.

    Two disjoint site groups ({a,b,c} and {d,e,f}) never exchange flows,
    so the constraint graph holds at least two independent components --
    the case where the incremental solver actually solves *less* than
    the global one and divergence would show.
    """
    rng = random.Random(seed)
    trace = []
    groups = (SITES[:3], SITES[3:])

    def client(i):
        yield env.timeout(rng.random() * 5.0)
        group = groups[i % 2]
        src, dst = rng.sample(group, 2)
        link = fn.link(src, dst, capacity=LINK_CAP)
        flow = link.open(
            size=rng.randrange(50, 2000),
            weight=rng.choice([0.5, 1.0, 2.0]),
            max_rate=rng.choice([math.inf, 30.0, 75.0]),
        )
        if i % abort_every == 0:
            yield env.timeout(rng.random() * 2.0)
            if flow in link.flows:
                link.abort(flow, reason="churn")
        try:
            yield flow.done
            trace.append(("done", i, round(env.now, 6)))
        except FlowAborted:
            trace.append(("aborted", i, round(env.now, 6)))

    for i in range(n_flows):
        env.process(client(i))
    env.run()
    return trace


class TestVerifyModeChurn:
    """solver="verify" self-asserts incremental == global per rebalance."""

    @pytest.mark.parametrize("seed", [1, 17, 423])
    def test_churn_under_site_caps(self, seed):
        env = Environment()
        fn = make_network(
            env,
            "verify",
            egress={"a": 120.0, "d": 60.0},
            ingress={"b": 80.0, "e": 150.0},
        )
        trace = churn(env, fn, seed)
        assert trace  # scenario actually exercised the solver
        assert not fn.active_flows()

    def test_site_outage_mid_churn(self):
        env = Environment()
        fn = make_network(env, "verify", egress={"a": 90.0})

        def nemesis():
            yield env.timeout(3.0)
            fn.site_outage("b", duration=2.0)
            yield env.timeout(4.0)
            fn.site_outage("e", duration=1.0)

        env.process(nemesis())
        churn(env, fn, seed=99)
        assert not fn.active_flows()

    def test_estimate_rate_probes_during_churn(self):
        env = Environment()
        fn = make_network(env, "verify", ingress={"c": 70.0})

        def prober():
            while env.now < 8.0:
                yield env.timeout(0.7)
                # verify mode cross-checks the probe against a global
                # solve; any divergence raises inside estimate_rate.
                rate = fn.estimate_rate("a", "c", capacity=LINK_CAP)
                assert 0.0 < rate <= 70.0

        env.process(prober())
        churn(env, fn, seed=5)


class TestVerifyModeScenarios:
    """Real scenario traffic under solver="verify".

    Every ``FlowNetwork`` the run builds is forced into verify mode, so
    each rebalance and estimate of the metadata RPC legs and transfers
    is checked against a global solve.  ``fair_capped`` caps every
    site, so its lone flows take the closed form under finite caps
    (where the component shortcut does not apply).
    """

    @pytest.mark.parametrize(
        "name", ["fanout_bandwidth_aware", "fair_capped"]
    )
    def test_quick_run_matches_incremental(self, name, monkeypatch):
        from repro.results import result_metrics
        from repro.scenario import get_scenario

        spec = get_scenario(name)
        want = result_metrics(spec.run(quick=True))
        solvers = []
        init = FlowNetwork.__init__

        def verify(self, env, site_caps=None, solver="incremental"):
            solvers.append(solver)
            init(self, env, site_caps=site_caps, solver="verify")

        monkeypatch.setattr(FlowNetwork, "__init__", verify)
        got = spec.run(quick=True)
        assert solvers == ["incremental"]
        assert got.provenance["flow_solver"] == "fair/verify"
        assert result_metrics(got) == want


class TestIncrementalEqualsGlobal:
    """Same seed, both solvers: identical end-to-end behavior."""

    @pytest.mark.parametrize("seed", [2, 31])
    def test_identical_traces_and_stats(self, seed):
        results = {}
        for solver in ("incremental", "global"):
            env = Environment()
            fn = make_network(
                env,
                solver,
                egress={"a": 110.0, "f": 40.0},
                ingress={"b": 95.0},
            )
            trace = churn(env, fn, seed)
            stats = {
                key: (
                    link.stats.flows,
                    link.stats.bytes,
                    round(link.stats.delivered_bytes, 6),
                    round(link.stats.aborted_bytes, 6),
                    link.stats.aborted_flows,
                )
                for key, link in fn.links.items()
            }
            # round(): the two solvers sum shares in different orders,
            # so completion instants may drift by ~1 ulp.
            results[solver] = (trace, stats, round(env.now, 6))
        assert results["incremental"] == results["global"]

    def test_incremental_touches_fewer_links(self):
        """The point of the exercise: disjoint components stay untouched.

        A flow opened between {a,b} must not settle or re-solve the
        {d,e}-component link under the incremental solver (the global
        solver rebalances everything, every time).
        """
        env = Environment()
        fn = make_network(env, "incremental")
        far = fn.link("d", "e", capacity=LINK_CAP)
        far.open(size=10_000)
        far_rebalances = far.stats.rebalances
        near = fn.link("a", "b", capacity=LINK_CAP)
        for _ in range(10):
            near.open(size=500)
        assert far.stats.rebalances == far_rebalances
        env.run()

    def test_shared_cap_couples_components(self):
        """Links joined through a site cap DO rebalance together."""
        env = Environment()
        fn = make_network(env, "incremental", egress={"a": 50.0})
        ab = fn.link("a", "b", capacity=LINK_CAP)
        ac = fn.link("a", "c", capacity=LINK_CAP)
        f1 = ab.open(size=1000)
        assert f1.rate == pytest.approx(50.0)
        before = ac.stats.rebalances
        f2 = ac.open(size=1000)
        # Opening on a->c re-solved a->b too: the egress cap is shared.
        assert ab.stats.rebalances > 0
        assert f1.rate == pytest.approx(25.0)
        assert f2.rate == pytest.approx(25.0)
        assert before == 0
        env.run()


class TestSolverSelection:
    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            FlowNetwork(Environment(), solver="quantum")

    def test_network_exposes_flow_solver(self):
        from repro.cloud.network import Network
        from repro.cloud.presets import azure_4dc_topology

        net = Network(
            Environment(),
            azure_4dc_topology(jitter=False),
            bandwidth_model="fair",
            flow_solver="verify",
        )
        assert net.flow_net.solver == "verify"
