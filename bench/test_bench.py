"""Checks of the benchmark itself, on quick reductions of its workloads.

Run with the tier-1 suite (``PYTHONPATH=src python -m pytest -x -q``)
or alone: ``python -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def test_workloads_match_benchmark_json():
    assert WORKLOADS == list(child.WORKLOADS)


def test_every_module_maps_to_exactly_one_layer():
    src = ROOT / "src" / "repro"
    modules = [p.relative_to(src).as_posix() for p in src.rglob("*.py")]
    assert modules
    for rel in modules:
        child.layer_of(rel)  # raises unless exactly one layer owns it
    # ...and no layer owns a path that no longer exists.
    for name, owned in child.LAYERS:
        for prefix in owned:
            assert any(
                m.startswith(prefix) if prefix.endswith("/") else m == prefix
                for m in modules
            ), f"layer {name} owns missing path {prefix}"


def test_a_run_cycles_through_its_seed_and_companions():
    seeds = [3 + i * child.SEED_STRIDE for i in range(child.SEEDS_PER_RUN)]
    specs = child.run_specs("autoscale_traced", 3, quick=False)
    assert [s.seed for s in specs] == seeds
    assert [s.workload.seed for s in specs] == seeds
    assert [s.seed for s in child.run_specs("montage_fair", 3, True)] == [3]


def test_reference_kernel_event_count():
    assert reference.reference_kernel() == reference.REF_EVENTS == 320


def test_normalisation_arithmetic():
    nominal = reference.REF_NOMINAL_S
    power = reference.REF_EXPONENT
    assert reference.speed([nominal, nominal]) == pytest.approx(1.0)
    assert reference.scale(3.0, 0.0, [nominal]) == pytest.approx(1.0)
    # A host running the kernel twice as slow scales raw time by 0.5**power.
    assert reference.scale(
        3.0, 0.0, [2 * nominal]
    ) == pytest.approx(0.5 ** power)
    # Speed is the mean over the slices, and the slices' own time is
    # taken out of the interval.
    assert reference.scale(
        2.0, 0.5, [nominal, nominal / 3]
    ) == pytest.approx(2.0 ** power * 0.75)


def test_host_sampler_samples_during_the_interval():
    with reference.HostSampler() as host:
        reference.time_reference()  # stand-in work
        deadline = host.t0 + 3 * reference.SAMPLE_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(host.slices) >= 4  # before, >= 2 during, after
    assert host.normalised_s > 0


@functools.lru_cache(maxsize=None)
def _in_process(mode, workload, seed, quick, seconds=0.0):
    """One child measurement, taken in this process; the untraced and
    traced passes of a workload share its timed measurement."""
    return child.measure(mode, workload, seed, quick, seconds)


@functools.lru_cache(maxsize=None)
def _quick(workload):
    """(untraced, traced) records of a one-repeat quick run."""
    return tuple(
        run.measure(workload, None, 0.0, trace=trace, quick=True,
                    runner=_in_process)
        for trace in (False, True)
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_exactly_the_declared_metrics(workload):
    for rec, section in zip(_quick(workload), ("end_to_end", "per_layer")):
        assert rec["failed"] == 0, rec["errors"]
        assert set(rec["values"]) == {
            m["name"] for m in BENCHMARK[section]
        }
    shares = [v for k, v in _quick(workload)[1]["values"].items()
              if k.startswith("self.")]
    assert sum(shares) == pytest.approx(1.0)


def test_command_prints_the_result_line_last(tmp_path):
    workload = "autoscale_traced"  # the quickest, and the most layers
    out = tmp_path / "doc.json"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--quick",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    # A second run, in another process, counts exactly the same work.
    doc = json.loads(out.read_text())
    assert doc["workloads"][workload]["counters"] == (
        _quick(workload)[0]["counters"]
    )


def test_run_length_is_not_a_knob():
    with pytest.raises(SystemExit, match="run_seconds"):
        run.main(["--seconds", str(BENCHMARK["run_seconds"] + 1)])


class _Raising:
    """A scenario whose every run raises."""

    seed = 7

    def run(self, quick=False):
        raise RuntimeError("boom")


def test_a_raising_workload_is_failed_and_the_pass_goes_on(monkeypatch):
    measured = _quick(WORKLOADS[0])
    monkeypatch.setattr(child, "workload_spec", lambda *a: _Raising())

    def raising_profile(mode, *args):
        # The cached timed measurement predates the patch and succeeded.
        return (_in_process if mode == "timed" else child.measure)(mode, *args)

    broken = [
        run.measure(WORKLOADS[1], None, 0.0, trace=False, quick=True,
                    runner=child.measure),
        run.measure(WORKLOADS[0], None, 0.0, trace=True, quick=True,
                    runner=raising_profile),
    ]
    for rec in broken:
        assert rec["values"] == {}
        assert "RuntimeError: boom" in rec["errors"]
    assert broken[0]["failed"] == broken[0]["attempted"] == 1
    for trace, rec in enumerate(broken):
        line = run.result_line(
            {WORKLOADS[0]: measured[trace], "broken": rec},
            run.metric_table(BENCHMARK, bool(trace)),
        )
        assert not line["correct"] and line["failed"] == rec["failed"]
        assert line["metrics"] and all(
            k.startswith(WORKLOADS[0] + ".") for k in line["metrics"]
        )


def test_verdicts():
    lower = {"better": "lower", "bound": 0.1}
    base = [1.0, 1.01, 0.99, 1.0]
    assert run.verdict(base, [1.3, 1.31, 1.29, 1.3], lower)[1] == "regressed"
    assert run.verdict(base, [0.7, 0.71, 0.69, 0.7], lower)[1] == "improved"
    assert run.verdict(base, [1.02, 1.0, 1.01, 0.99], lower)[1] == "unchanged"
    noisy = [0.5, 1.5, 0.8, 1.2]
    assert run.verdict(base, noisy, lower)[1] == "unresolved"


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--quick"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
