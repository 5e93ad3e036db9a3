"""Smoke + property tests for the figure experiments at reduced scale.

Full-scale shape checks live in the benchmarks; here we verify the
experiment plumbing (series shapes, rendering, reference data) quickly.

The sweep-backed figures (5-8, 10) are also pinned bit for bit: the
``*_GOLDEN`` values below are each figure's full output at these test
sizes, at the default ``MetadataConfig`` calibration a spec runs with,
captured before the runner built the synthetic surface's controller.
They pin what the
``test_seed_compat.py`` goldens do not reach: Fig. 8's per-node share
of a fixed total, Fig. 6's progress curves and per-site times, and
Fig. 10's home site and synchronous hybrid replication pinned through
``StrategySpec`` (plus its ``ops_scale`` rounding).
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
from repro.metadata.controller import StrategyName
from repro.workflow.applications import BUZZFLOW_JOBS, MONTAGE_JOBS

# ops_per_node=(20, 50), 8 nodes, seed 1.
FIG5_GOLDEN = {
    "centralized": [2.2292849435952418, 5.49408462289718],
    "replicated": [2.673429872702181, 5.0577554901875175],
    "decentralized": [2.2875877679617656, 5.531071398042904],
    "hybrid": [1.8654134883958218, 4.263628602349488],
}

# 8 nodes, 60 ops/node, seed 0, progress at 10 %, 20 %, ..., 100 %.
FIG6_CURVES_GOLDEN = {
    "centralized": [
        0.6428941254595367, 1.1802008855029065, 1.7077903978754878,
        2.2282730258993944, 2.764357661022459, 3.305361323131835,
        4.148823506017269, 5.525924044985548, 7.391730427929192,
        10.407438387819132,
    ],
    "decentralized": [
        0.7868464784519374, 1.4764022637070493, 2.1422485438450893,
        2.802193399801611, 3.485398780382671, 4.172935721602106,
        4.797607251460599, 5.3628632760950055, 6.034524688968084,
        7.187661029646872,
    ],
    "hybrid": [
        0.5427349148458679, 1.0287905432939304, 1.5148126209259039,
        1.9493466431326119, 2.4257201742272683, 2.817628966903691,
        3.267650586968668, 4.660091217691045, 5.8600681345354495,
        8.150439680892045,
    ],
}
FIG6_SITE_TIMES_GOLDEN = {
    "centralized": {
        "west-europe": 3.336911675991333,
        "north-europe": 4.508798158927734,
        "east-us": 8.144592313022923,
        "south-central-us": 10.360279996370648,
    },
    "decentralized": {
        "west-europe": 6.2586021796772,
        "north-europe": 6.963863539850874,
        "east-us": 6.463817954437319,
        "south-central-us": 6.927314894175348,
    },
    "hybrid": {
        "west-europe": 4.8086900023705805,
        "north-europe": 5.344647461628174,
        "east-us": 4.814047381563115,
        "south-central-us": 5.700436128249676,
    },
}

# node_counts=(4, 8), 40 ops/node, seed 0.
FIG7_GOLDEN = {
    "centralized": [22.88895350845299, 45.817044035211275],
    "replicated": [23.93442927759622, 41.93612402547617],
    "decentralized": [33.05187170245301, 65.71291751827272],
    "hybrid": [29.335990071020422, 60.516810936519306],
}

# node_counts=(4, 8), 400 total ops (100 and 50 per node), seed 0.
FIG8_GOLDEN = {
    "centralized": [17.275193759951225, 8.687553524207976],
    "replicated": [11.935312122454661, 8.21020382522112],
    "decentralized": [12.164927705531628, 5.964666018126586],
    "hybrid": [15.010326530221231, 6.675030669836744],
}

# BuzzFlow on 8 nodes, seed 7, home site east-us, sync replication.
FIG10_GOLDEN = {
    ("buzzflow", "SS", "centralized"): 268.79257309716587,
    ("buzzflow", "SS", "replicated"): 128.65539821416664,
    ("buzzflow", "SS", "decentralized"): 223.10041673859183,
    ("buzzflow", "SS", "hybrid"): 199.71043770992765,
}
# The CI row at ops_scale=0.05 (200 ops/task -> 10).
FIG10_CI_SCALED_GOLDEN = {
    ("buzzflow", "CI", "centralized"): 115.71876293453077,
    ("buzzflow", "CI", "replicated"): 100.36610480885126,
    ("buzzflow", "CI", "decentralized"): 111.80341981306293,
    ("buzzflow", "CI", "hybrid"): 109.1761648493725,
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
    def test_series_shapes(self):
        r = run_fig5(
            ops_per_node=(20, 50), n_nodes=8, seed=1
        )
        assert set(r.mean_node_time) == set(StrategyName.all())
        for series in r.mean_node_time.values():
            assert len(series) == 2
            assert series[0] < series[1]  # more ops, more time
        assert r.aggregate_ops == [160, 400]
        assert r.mean_node_time == FIG5_GOLDEN
        assert list(r.mean_node_time) == list(FIG5_GOLDEN)

    def test_jobs2_bit_for_bit(self):
        """Two worker processes reproduce the serial figure exactly."""
        r = run_fig5(
            ops_per_node=(20, 50),
            n_nodes=8,
            seed=1,
            jobs=2,
        )
        assert r.mean_node_time == FIG5_GOLDEN

    def test_gain_computation(self):
        r = run_fig5(ops_per_node=(30,), n_nodes=8)
        g = r.gain_vs_centralized(StrategyName.HYBRID)
        assert -2.0 < g < 1.0


class TestFig6:
    def test_progress_curves_monotone(self):
        r = run_fig6(n_nodes=8, ops_per_node=60)
        for series in r.curves.values():
            assert all(a <= b for a, b in zip(series, series[1:]))
        assert r.curves == FIG6_CURVES_GOLDEN
        assert r.site_times == FIG6_SITE_TIMES_GOLDEN

    def test_site_times_present(self):
        r = run_fig6(n_nodes=8, ops_per_node=40)
        assert len(r.site_times[StrategyName.HYBRID]) == 4

    def test_speedup_positive(self):
        r = run_fig6(n_nodes=8, ops_per_node=60)
        assert r.speedup() > 0


class TestFig7:
    def test_throughput_series(self):
        r = run_fig7(node_counts=(4, 8), ops_per_node=40)
        for strat in StrategyName.all():
            assert len(r.throughput[strat]) == 2
            assert all(t > 0 for t in r.throughput[strat])
        assert r.throughput == FIG7_GOLDEN
        assert list(r.throughput) == list(FIG7_GOLDEN)

    def test_decentralized_scales(self):
        r = run_fig7(node_counts=(4, 16), ops_per_node=60)
        assert r.scaling_ratio(StrategyName.DECENTRALIZED) > 1.5


class TestFig8:
    def test_fixed_total_ops(self):
        r = run_fig8(node_counts=(4, 8), total_ops=400)
        for strat in StrategyName.all():
            assert len(r.completion[strat]) == 2
        assert r.completion == FIG8_GOLDEN
        assert list(r.completion) == list(FIG8_GOLDEN)

    def test_more_nodes_faster_decentralized(self):
        r = run_fig8(node_counts=(4, 16), total_ops=800)
        dn = r.completion[StrategyName.DECENTRALIZED]
        assert dn[1] < dn[0]


class TestFig10:
    def test_small_run_structure(self):
        r = run_fig10(
            scenarios=("SS",),
            workflows=("buzzflow",),
            n_nodes=8,
        )
        for strat in StrategyName.all():
            assert ("buzzflow", "SS", strat) in r.makespan
            assert r.makespan[("buzzflow", "SS", strat)] > 0
        assert r.best_strategy("buzzflow", "SS") in StrategyName.all()
        assert r.makespan == FIG10_GOLDEN

    def test_gain_vs_centralized(self):
        r = run_fig10(
            scenarios=("SS",),
            workflows=("buzzflow",),
            n_nodes=8,
        )
        g = r.gain("buzzflow", "SS", StrategyName.CENTRALIZED)
        assert g == pytest.approx(0.0)

    def test_render_covers_only_the_workflows_run(self):
        """A workflow subset renders (no lookups of workflows not run)."""
        r = run_fig10(
            scenarios=("CI",),
            workflows=("buzzflow",),
            n_nodes=8,
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
            lambda: run_fig5(ops_per_node=(20,), n_nodes=4),
            lambda: run_fig6(n_nodes=4, ops_per_node=20),
            lambda: run_fig7(node_counts=(4,), ops_per_node=20),
            lambda: run_fig8(node_counts=(4,), total_ops=80),
            lambda: run_fig10(
                scenarios=("SS",),
                workflows=("buzzflow",),
                n_nodes=4,
                ops_scale=0.05,
            ),
        ],
        ids=["fig5", "fig6", "fig7", "fig8", "fig10"],
    )
    def test_errored_cell_raises(self, run, monkeypatch):
        def fail(spec, quick=False):
            raise ValueError("service_time must be positive")

        monkeypatch.setattr("repro.scenario.sweep.run_scenario", fail)
        with pytest.raises(
            RuntimeError, match="failed: ValueError: service_time"
        ):
            run()


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
