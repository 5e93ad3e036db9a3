"""Ablation benchmarks for the registry design choices (README, Layout).

Each ablation flips one design knob and reports its effect, grounding
the paper's design arguments in measurements:

- **lazy vs synchronous hybrid replication** (Section III-D vs IV-D);
- **sync-agent period** (the replicated strategy's staleness/overhead
  trade-off);
- **client-side write look-up** (one RPC vs two per write);
- **centralized home-site placement** (site centrality, Section VI-B);
- **locality scheduling** (Section III-D's premise that the engine
  schedules consumers near producers).
"""

import pytest

from repro.cloud.deployment import Deployment
from repro.experiments.reporting import render_table
from repro.metadata.config import MetadataConfig
from repro.metadata.controller import ArchitectureController
from repro.scenario import ScenarioSpec, StrategySpec
from repro.workflow.applications import montage
from repro.workflow.engine import WorkflowEngine

pytestmark = pytest.mark.slow

N_NODES = 32


def _run_synthetic(strategy, **pins):
    """The reader/writer benchmark, 500 ops/node, with strategy pins."""
    return ScenarioSpec(
        surface="synthetic",
        strategy=StrategySpec(name=strategy, **pins),
        ops_per_node=500,
        n_nodes=N_NODES,
        seed=7,
    ).run().result


def _run_workflow(strategy, cfg, ops=400, compute=0.5, scheduler=None, seed=7):
    dep = Deployment(n_nodes=N_NODES, seed=seed)
    ctrl = ArchitectureController(dep, strategy=strategy, config=cfg)
    engine = WorkflowEngine(dep, ctrl.strategy, scheduler=scheduler)
    res = engine.run(montage(ops_per_task=ops, compute_time=compute))
    ctrl.shutdown()
    return res


def test_ablation_hybrid_lazy_vs_sync(benchmark):
    """Lazy batching trades home-site visibility lag for write latency."""

    def run():
        lazy = _run_workflow(
            "hybrid", MetadataConfig(hybrid_sync_replication=False)
        )
        sync = _run_workflow(
            "hybrid", MetadataConfig(hybrid_sync_replication=True)
        )
        return lazy, sync

    lazy, sync = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + render_table(
            ["mode", "makespan (s)"],
            [["lazy (III-D)", lazy.makespan], ["sync (IV-D)", sync.makespan]],
            title="Ablation -- hybrid replication mode (Montage, 400 ops/task)",
        )
    )
    # Lazy writes return after the local store only: strictly faster.
    assert lazy.makespan < sync.makespan
    benchmark.extra_info["lazy_speedup"] = round(
        sync.makespan / lazy.makespan, 3
    )


def test_ablation_sync_period(benchmark):
    """Shorter sync periods shrink the replicated strategy's stalls up
    to the point where agent overhead dominates."""

    periods = (0.5, 2.0, 8.0)

    def run():
        out = []
        for p in periods:
            res = _run_synthetic("replicated", sync_period=p)
            out.append((p, res.makespan, res.ops.total_retries))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + render_table(
            ["sync period (s)", "makespan (s)", "read retries"],
            rows,
            title="Ablation -- replicated sync-agent period",
        )
    )
    by_period = {p: (m, r) for p, m, r in rows}
    # A sluggish agent (8 s) stretches the makespan relative to a
    # moderate one; a brisk agent (0.5 s) makes readers poll more often
    # (more retry probes, each cheaper).
    assert by_period[8.0][0] > by_period[2.0][0]
    assert by_period[0.5][1] > by_period[8.0][1]


def test_ablation_write_lookup(benchmark):
    """Client-side existence checks double the WAN cost of remote writes."""

    def run():
        one_rpc = _run_synthetic("decentralized", write_lookup=False)
        two_rpc = _run_synthetic("decentralized", write_lookup=True)
        return one_rpc, two_rpc

    one_rpc, two_rpc = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + render_table(
            ["write protocol", "makespan (s)"],
            [
                ["server-side upsert (1 RPC)", one_rpc.makespan],
                ["client look-up + put (2 RPC)", two_rpc.makespan],
            ],
            title="Ablation -- write look-up placement (decentralized)",
        )
    )
    assert two_rpc.makespan > one_rpc.makespan


def test_ablation_home_site_centrality(benchmark):
    """Placing the centralized registry at the least central site hurts;
    the most central site is the best 'arbitrary' choice (Section VI-B)."""

    def run():
        out = {}
        for site in ("east-us", "south-central-us"):
            res = _run_synthetic("centralized", home_site=site)
            out[site] = res.makespan
        return out

    spans = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + render_table(
            ["home site", "makespan (s)"],
            sorted(spans.items()),
            title="Ablation -- centralized registry placement",
        )
    )
    assert spans["east-us"] < spans["south-central-us"]
    benchmark.extra_info["centrality_penalty"] = round(
        spans["south-central-us"] / spans["east-us"], 3
    )


def test_ablation_locality_scheduling(benchmark):
    """Locality-aware scheduling cuts hybrid metadata time on workflows
    (the engine premise of Section III-D)."""

    def run():
        on = _run_workflow("hybrid", MetadataConfig(), ops=300)
        off = _run_workflow(
            "hybrid", MetadataConfig(), ops=300, scheduler="round_robin"
        )
        return on, off

    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + render_table(
            ["scheduling", "makespan (s)", "metadata time (s)"],
            [
                ["locality", on.makespan, on.total_metadata_time],
                ["round-robin", off.makespan, off.total_metadata_time],
            ],
            title="Ablation -- engine locality scheduling (hybrid, Montage)",
        )
    )
    assert on.total_metadata_time <= off.total_metadata_time * 1.05
