"""Smoke + property tests for the figure experiments at reduced scale.

Full-scale shape checks live in the benchmarks; here we verify the
experiment plumbing (series shapes, rendering, reference data) quickly.

The sweep-backed figures (5-8, 10) are also pinned bit for bit: the
``*_GOLDEN`` values below are each figure's full output at these test
sizes with ``fast_config``, captured from the hand-built harness before
the figures moved onto scenario sweeps.  They pin what the
``test_seed_compat.py`` goldens do not reach: Fig. 8's per-node share
of a fixed total, Fig. 6's progress curves and per-site times, and
Fig. 10's merge of the home site and synchronous hybrid replication
into the caller's config (plus its ``ops_scale`` rounding).
Comparisons are exact (``==`` on floats): the simulator is
deterministic, so bit-for-bit equality is the contract.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.experiments.fig1_latency import PLACEMENTS, run_fig1
from repro.experiments.fig5_makespan import run_fig5
from repro.experiments.fig6_progress import run_fig6
from repro.experiments.fig7_throughput import run_fig7
from repro.experiments.fig8_scalability import run_fig8
from repro.experiments.fig10_workflows import TABLE_I, run_fig10
from repro.metadata.config import MetadataConfig
from repro.metadata.controller import StrategyName
from repro.workflow.applications import BUZZFLOW_JOBS, MONTAGE_JOBS

# ops_per_node=(20, 50), 8 nodes, seed 1.
FIG5_GOLDEN = {
    "centralized": [1.197768670374999, 2.92292629943241],
    "replicated": [0.5555985233086875, 0.776082689811193],
    "decentralized": [1.2892767930602598, 2.9873268087160683],
    "hybrid": [0.5441445709495716, 1.4535516990269415],
}

# 8 nodes, 60 ops/node, seed 0, progress at 10 %, 20 %, ..., 100 %.
FIG6_CURVES_GOLDEN = {
    "centralized": [
        0.12437948255012295, 0.2120209958599067, 0.3212460428606444,
        0.6170006699769136, 0.9974282843833119, 1.3602329042284758,
        2.42950032916888, 3.6188110058038085, 4.813377482873515,
        7.303127783258353,
    ],
    "decentralized": [
        0.41829102147961456, 0.8197611939627532, 1.1254189753604043,
        1.5423429415616696, 1.8778882670321, 2.1645697491657265,
        2.5072523006107352, 2.7638416839317146, 3.071473578041567,
        4.15106024357692,
    ],
    "hybrid": [
        0.037205403518676766, 0.07441081657409673, 0.11471668071746836,
        0.1513190130222005, 0.1885244260776203, 0.9579696341642068,
        1.5239220272560154, 2.236389333579425, 2.7150762607147496,
        4.172594432491604,
    ],
}
FIG6_SITE_TIMES_GOLDEN = {
    "centralized": {
        "west-europe": 0.2672124784025977,
        "north-europe": 1.4038673745971257,
        "east-us": 5.049953932765604,
        "south-central-us": 7.276527158182952,
    },
    "decentralized": {
        "west-europe": 3.10659334845284,
        "north-europe": 3.365530398686227,
        "east-us": 3.2233619209730278,
        "south-central-us": 3.945947484776015,
    },
    "hybrid": {
        "west-europe": 1.5531010560827012,
        "north-europe": 1.7576463339868795,
        "east-us": 1.601731827949968,
        "south-central-us": 2.1793107441159805,
    },
}

# node_counts=(4, 8), 40 ops/node, seed 0.
FIG7_GOLDEN = {
    "centralized": [32.64496469072707, 65.06468923764675],
    "replicated": [132.24070777670346, 226.17274997976415],
    "decentralized": [56.862740748878245, 120.36280717018494],
    "hybrid": [50.872857376450554, 131.16119827913204],
}

# node_counts=(4, 8), 400 total ops (100 and 50 per node), seed 0.
FIG8_GOLDEN = {
    "centralized": [12.128719069468483, 6.1307745304037145],
    "replicated": [1.5935402832031207, 1.503145614587578],
    "decentralized": [6.547075127080188, 3.200676795219815],
    "hybrid": [9.644838261606331, 3.370587508885256],
}

# BuzzFlow on 8 nodes, seed 7, home site east-us, sync replication.
FIG10_GOLDEN = {
    ("buzzflow", "SS", "centralized"): 176.80434238230825,
    ("buzzflow", "SS", "replicated"): 34.44449763932134,
    ("buzzflow", "SS", "decentralized"): 128.57957898283445,
    ("buzzflow", "SS", "hybrid"): 105.15156009962412,
}
# The CI row at ops_scale=0.05 (200 ops/task -> 10).
FIG10_CI_SCALED_GOLDEN = {
    ("buzzflow", "CI", "centralized"): 106.4305335016436,
    ("buzzflow", "CI", "replicated"): 91.15841968729832,
    ("buzzflow", "CI", "decentralized"): 102.53522049355314,
    ("buzzflow", "CI", "hybrid"): 99.77311495749076,
}


class TestFig1:
    def test_distance_ordering(self):
        r = run_fig1(file_counts=(50, 200))
        assert r.times["same site"][-1] < r.times["same region"][-1]
        assert r.times["same region"][-1] < r.times["distant region"][-1]

    def test_linear_growth(self):
        r = run_fig1(file_counts=(100, 400))
        for label in PLACEMENTS:
            ratio = r.times[label][1] / r.times[label][0]
            assert 3.0 < ratio < 5.0  # 4x files -> ~4x time

    def test_remote_ratio_order_of_magnitude(self):
        r = run_fig1(file_counts=(100,))
        assert r.ratio(100, "distant region") > 10

    def test_render_contains_checks(self):
        out = r = run_fig1(file_counts=(50,)).render()
        assert "Fig. 1" in out and "[" in out


class TestFig5:
    def test_series_shapes(self, fast_config):
        r = run_fig5(
            ops_per_node=(20, 50), n_nodes=8, config=fast_config, seed=1
        )
        assert set(r.mean_node_time) == set(StrategyName.all())
        for series in r.mean_node_time.values():
            assert len(series) == 2
            assert series[0] < series[1]  # more ops, more time
        assert r.aggregate_ops == [160, 400]
        assert r.mean_node_time == FIG5_GOLDEN
        assert list(r.mean_node_time) == list(FIG5_GOLDEN)

    def test_jobs2_bit_for_bit(self, fast_config):
        """Two worker processes reproduce the serial figure exactly."""
        r = run_fig5(
            ops_per_node=(20, 50),
            n_nodes=8,
            config=fast_config,
            seed=1,
            jobs=2,
        )
        assert r.mean_node_time == FIG5_GOLDEN

    def test_gain_computation(self, fast_config):
        r = run_fig5(ops_per_node=(30,), n_nodes=8, config=fast_config)
        g = r.gain_vs_centralized(StrategyName.HYBRID)
        assert -2.0 < g < 1.0


class TestFig6:
    def test_progress_curves_monotone(self, fast_config):
        r = run_fig6(n_nodes=8, ops_per_node=60, config=fast_config)
        for series in r.curves.values():
            assert all(a <= b for a, b in zip(series, series[1:]))
        assert r.curves == FIG6_CURVES_GOLDEN
        assert r.site_times == FIG6_SITE_TIMES_GOLDEN

    def test_site_times_present(self, fast_config):
        r = run_fig6(n_nodes=8, ops_per_node=40, config=fast_config)
        assert len(r.site_times[StrategyName.HYBRID]) == 4

    def test_speedup_positive(self, fast_config):
        r = run_fig6(n_nodes=8, ops_per_node=60, config=fast_config)
        assert r.speedup() > 0


class TestFig7:
    def test_throughput_series(self, fast_config):
        r = run_fig7(
            node_counts=(4, 8), ops_per_node=40, config=fast_config
        )
        for strat in StrategyName.all():
            assert len(r.throughput[strat]) == 2
            assert all(t > 0 for t in r.throughput[strat])
        assert r.throughput == FIG7_GOLDEN
        assert list(r.throughput) == list(FIG7_GOLDEN)

    def test_decentralized_scales(self, fast_config):
        r = run_fig7(
            node_counts=(4, 16), ops_per_node=60, config=fast_config
        )
        assert r.scaling_ratio(StrategyName.DECENTRALIZED) > 1.5


class TestFig8:
    def test_fixed_total_ops(self, fast_config):
        r = run_fig8(
            node_counts=(4, 8), total_ops=400, config=fast_config
        )
        for strat in StrategyName.all():
            assert len(r.completion[strat]) == 2
        assert r.completion == FIG8_GOLDEN
        assert list(r.completion) == list(FIG8_GOLDEN)

    def test_more_nodes_faster_decentralized(self, fast_config):
        r = run_fig8(
            node_counts=(4, 16), total_ops=800, config=fast_config
        )
        dn = r.completion[StrategyName.DECENTRALIZED]
        assert dn[1] < dn[0]


class TestFig10:
    def test_small_run_structure(self, fast_config):
        r = run_fig10(
            scenarios=("SS",),
            workflows=("buzzflow",),
            n_nodes=8,
            config=fast_config,
        )
        for strat in StrategyName.all():
            assert ("buzzflow", "SS", strat) in r.makespan
            assert r.makespan[("buzzflow", "SS", strat)] > 0
        assert r.best_strategy("buzzflow", "SS") in StrategyName.all()
        assert r.makespan == FIG10_GOLDEN

    def test_gain_vs_centralized(self, fast_config):
        r = run_fig10(
            scenarios=("SS",),
            workflows=("buzzflow",),
            n_nodes=8,
            config=fast_config,
        )
        g = r.gain("buzzflow", "SS", StrategyName.CENTRALIZED)
        assert g == pytest.approx(0.0)

    def test_render_covers_only_the_workflows_run(self, fast_config):
        """A workflow subset renders (no lookups of workflows not run)."""
        r = run_fig10(
            scenarios=("CI",),
            workflows=("buzzflow",),
            n_nodes=8,
            config=fast_config,
            ops_scale=0.05,
        )
        assert r.makespan == FIG10_CI_SCALED_GOLDEN
        assert r.workflows == ("buzzflow",)
        out = r.render()
        assert "buzzflow CI: replicated is competitive" in out
        assert "montage" not in out


class TestErroredCell:
    """Every sweep-backed figure needs all of its cells: a failing cell
    raises instead of leaving a hole in the series."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda cfg: run_fig5(ops_per_node=(20,), n_nodes=4, config=cfg),
            lambda cfg: run_fig6(n_nodes=4, ops_per_node=20, config=cfg),
            lambda cfg: run_fig7(node_counts=(4,), ops_per_node=20, config=cfg),
            lambda cfg: run_fig8(node_counts=(4,), total_ops=80, config=cfg),
            lambda cfg: run_fig10(
                scenarios=("SS",),
                workflows=("buzzflow",),
                n_nodes=4,
                config=cfg,
                ops_scale=0.05,
            ),
        ],
        ids=["fig5", "fig6", "fig7", "fig8", "fig10"],
    )
    def test_errored_cell_raises(self, run):
        bad = MetadataConfig(service_time=0.0)
        with pytest.raises(
            RuntimeError, match="failed: ValueError: service_time"
        ):
            run(bad)


class TestTableI:
    def test_table1_settings(self):
        assert TABLE_I["SS"] == {"ops_per_task": 100, "compute_time": 1.0}
        assert TABLE_I["CI"] == {"ops_per_task": 200, "compute_time": 5.0}
        assert TABLE_I["MI"] == {"ops_per_task": 1000, "compute_time": 1.0}

    def test_totals(self):
        ops = {name: row["ops_per_task"] for name, row in TABLE_I.items()}
        assert ops["SS"] * BUZZFLOW_JOBS == 7_200
        assert ops["CI"] * BUZZFLOW_JOBS == 14_400
        assert ops["MI"] * BUZZFLOW_JOBS == 72_000
        assert ops["SS"] * MONTAGE_JOBS == 16_000
        assert ops["CI"] * MONTAGE_JOBS == 32_000


def test_scenario_import_loads_no_figure_module():
    """Scenario runs never load the figure harness (a fresh process:
    this one has already imported every figure)."""
    code = (
        "import sys, repro.scenario; "
        "print([m for m in sys.modules "
        "if m.startswith('repro.experiments.fig')])"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
