#!/usr/bin/env python3
"""The repository benchmark: time to a simulated result, and where it goes.

Each workload is one registry scenario run back to back in a fresh child
process (``child.py``), one child at a time, each single-threaded: a
closed loop of ``ScenarioSpec.run()`` calls with no concurrency, so on a
small host the numbers measure the simulator and not the scheduler.
Every ``_s`` metric is normalised to reference-host seconds by the
frozen kernel in ``reference.py``.  Metric names, units and regression
bounds live in ``BENCHMARK.json`` at the repository root; ``README.md``
beside this file explains each of them.

Usage, from the repository root::

    python3 bench/run.py [--workload NAME] [--seed N] [--trace [0|1]]
                         [--quick] [--out PATH]
    python3 bench/run.py --compare A B

Without ``--trace`` (or with ``--trace 0``) a run reports the end-to-end
metrics; ``--trace``/``--trace 1`` is the separate traced pass that
reports the per-layer metrics.  Each workload's timed loop lasts
``run_seconds`` from ``BENCHMARK.json`` (none with ``--quick``), so two
compared passes always run the same length; ``--seconds`` exists only
because the standard benchmark invocation passes it, and any other
value is refused.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A workload whose runs raise before anything is measured
counts them as failed and reports no metrics; the other workloads are
still measured.  ``--out`` also writes the full document (samples,
quartiles, exact counters) that ``--compare`` reads; each side of
``--compare`` is one such file or a directory of them (one per pass).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Fresh processes timed for ``setup_s`` (``--quick``: one).
SETUP_CHILDREN = 5
#: Hard limit on one child process.
CHILD_TIMEOUT_S = 150
#: Child-process environment: the checkout's sources, one thread for
#: every native library, and fixed string hashing.
CHILD_ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
PHASES = ("build_s", "simulate_s", "finalize_s")


class BenchError(RuntimeError):
    """A measurement could not be taken (as opposed to a failed run)."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_table(benchmark: dict, trace: bool) -> dict:
    """name -> BENCHMARK.json entry for the metrics a pass reports."""
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in benchmark[section]}


def run_child(mode: str, workload: str, seed, quick: bool,
              seconds: float = 0.0) -> dict:
    """Run ``child.py`` to completion and return its JSON result."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode,
           "--workload", workload, "--seconds", repr(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(
        cmd, capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, **CHILD_ENV}, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"child {mode} {workload} exited {proc.returncode}:\n"
            f"{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed, seconds: float, trace: bool,
            quick: bool = False, runner=run_child) -> dict:
    """Measure one workload; returns its record for the output document.

    ``samples`` holds, per metric, the values its median ``values``
    entry was taken over; for ``wall_s`` those are the timed rounds'
    mean run times over the run's seeds.  ``runner(mode, workload,
    seed, quick, seconds)`` takes one child measurement (tests run them
    in-process).
    """
    timed = runner("timed", workload, seed, quick, seconds)
    record = {
        "seed": timed["seed"],
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "errors": list(timed["errors"]),
    }
    if not timed["rounds"]:
        return _unmeasured(record)
    samples = timed["samples"]
    record["seeds"] = timed["seeds"]
    record["baseline"] = timed["baseline"]
    record["counters"] = dict(timed["counters"])
    if not trace:
        # The timed child has already warmed the bytecode and file caches.
        setups = [
            runner("setup", workload, seed, quick)
            for _ in range(1 if quick else SETUP_CHILDREN)
        ]
        dist = {
            "wall_s": timed["rounds"],
            "setup_s": [s["setup_s"] for s in setups],
            "peak_rss_mb": [timed["peak_rss_mb"]],
        }
    else:
        prof = runner("profile", workload, seed, quick)
        record["attempted"] += prof["attempted"]
        record["failed"] += prof["failed"]
        record["errors"] += prof["errors"]
        if prof["layers"] is None:
            return _unmeasured(record)
        if prof["metrics"] != timed["baseline"]:
            record["failed"] += 1
            record["errors"].append(
                "the profiled run's result_metrics differ from the "
                "untraced runs'"
            )
        dist = {
            f"phase.{p}": [s[p] for s in samples] for p in PHASES
        }
        dist["host.raw_wall_s"] = [s["raw_s"] for s in samples]
        dist["host.ref_s"] = [timed["ref_s"]]
        # The profiled run is at the run's own seed: compare like with like.
        own = [s["wall_s"] for s in samples if s["seed_index"] == 0]
        dist["trace.overhead"] = [prof["wall_s"] / statistics.median(own)]
        layers = prof["layers"]
        record["counters"].update(
            (k, v) for k, v in layers.items() if not k.startswith("self.")
        )
        dist.update((k, [v]) for k, v in layers.items())
        dist.update((k, [v]) for k, v in record["counters"].items())
    record["samples"] = dist
    record["values"] = {k: statistics.median(v) for k, v in dist.items()}
    record["failed_frac"] = record["failed"] / record["attempted"]
    return record


def _unmeasured(record: dict) -> dict:
    """A workload whose runs raised before anything could be measured:
    it reports its failures and no metrics, and the pass goes on."""
    record.update(counters={}, samples={}, values={},
                  failed_frac=record["failed"] / record["attempted"])
    return record


def result_line(records: dict, table: dict) -> dict:
    """The final stdout object; metric names are prefixed by workload
    only when more than one workload ran.  An unmeasured workload adds
    its failures and no metrics."""
    metrics = {}
    for workload, rec in records.items():
        prefix = f"{workload}." if len(records) > 1 else ""
        for name in (n for n in table if n in rec["values"]):
            metrics[prefix + name] = {
                "value": rec["values"][name], "unit": table[name]["unit"],
            }
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def print_record(workload: str, rec: dict, table: dict) -> None:
    print(f"[{workload}] seed {rec['seed']}: {rec['attempted']} runs "
          f"attempted, {rec['failed']} failed "
          f"(failed_frac {rec['failed_frac']:.4g})")
    for err in rec["errors"]:
        print(f"  FAILED: {err}")
    if not rec["values"]:
        print("  no metrics: nothing could be measured")
        return
    for name, meta in table.items():
        values = rec["samples"][name]
        line = f"  {name:<32} {rec['values'][name]:>14.6g} {meta['unit']}"
        if len(values) > 1:
            q1, q3 = _quartiles(values)
            line += f"  (n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)


# -- comparison --------------------------------------------------------------


def load_side(path: str) -> list:
    """The output documents of one side: a file, or a directory of them."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    if not files:
        raise BenchError(f"no benchmark documents under {path}")
    return [json.loads(f.read_text()) for f in files]


def side_values(docs: list, workload: str, name: str):
    """One side's distribution of a metric: the per-pass values when the
    side has several passes, else the single pass's own samples."""
    recs = [d["workloads"][workload] for d in docs
            if workload in d["workloads"]]
    recs = [r for r in recs if name in r["values"]]
    if not recs:
        return None
    if len(recs) > 1:
        return [r["values"][name] for r in recs]
    return recs[0]["samples"][name]


def verdict(a: list, b: list, meta: dict) -> tuple:
    """(relative change of B's median against A's, verdict).

    A metric without a bound only reports its change.  Otherwise the
    change is *unresolved* when either side's quartile spread exceeds
    the bound (unless every B value beats every A value), and it is
    *regressed* or *improved* only when it exceeds the bound.
    """
    med_a, med_b = statistics.median(a), statistics.median(b)
    if med_a == 0:
        return (0.0 if med_b == 0 else math.inf), "-"
    rel = (med_b - med_a) / med_a
    if "bound" not in meta:
        return rel, "-"
    sign = 1.0 if meta["better"] == "lower" else -1.0
    spread = max(
        (q3 - q1) / abs(med)
        for (q1, q3), med in ((_quartiles(a), med_a), (_quartiles(b), med_b))
    )
    if spread > meta["bound"]:
        separated = min(len(a), len(b)) >= 3 and all(
            sign * (y - x) < 0 for x in a for y in b
        )
        return rel, "improved" if separated else "unresolved"
    if sign * rel > meta["bound"]:
        return rel, "regressed"
    if -sign * rel > meta["bound"]:
        return rel, "improved"
    return rel, "unchanged"


def compare(path_a: str, path_b: str) -> int:
    benchmark = load_benchmark()
    table = {m["name"]: m
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    side_a, side_b = load_side(path_a), load_side(path_b)
    workloads = [w["name"] for w in benchmark["workloads"]]
    print(f"A: {path_a} ({len(side_a)} passes)   "
          f"B: {path_b} ({len(side_b)} passes)")
    print(f"{'workload':<18} {'metric':<32} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>9} {'bound':>6}  verdict")
    for workload in workloads:
        for name, meta in table.items():
            a = side_values(side_a, workload, name)
            b = side_values(side_b, workload, name)
            if a is None or b is None:
                continue
            rel, word = verdict(a, b, meta)
            cells = []
            for values in (a, b):
                q1, q3 = _quartiles(values)
                cells.append(f"{statistics.median(values):.5g} "
                             f"[{q1:.5g}, {q3:.5g}]")
            bound = f"{meta['bound']:.2f}" if "bound" in meta else "-"
            print(f"{workload:<18} {name:<32} {cells[0]:>30} "
                  f"{cells[1]:>30} {rel:>+9.2%} {bound:>6}  {word}")
    print("\nexact counters, every pass on each side:")
    differ = False
    for workload in workloads:
        seen: dict = {}
        for side, docs in (("A", side_a), ("B", side_b)):
            for doc in docs:
                rec = doc["workloads"].get(workload)
                for key, value in (rec["counters"] if rec else {}).items():
                    seen.setdefault((rec["seed"], key), {}).setdefault(
                        side, set()).add(value)
        for (seed, key), sides in sorted(seen.items()):
            if len(set().union(*sides.values())) > 1:
                differ = True
                print(f"  {workload} seed {seed} {key}: " + "  ".join(
                    f"{side} {sorted(v)}" for side, v in sorted(sides.items())
                ))
    if not differ:
        print("  identical")
    return 0


# -- entry point -------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1],
    )
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the scenario and workload seeds "
                             "(default: each scenario's registry seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted only as run_seconds from "
                             "BENCHMARK.json, which fixes the run length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced pass (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced scenarios, one seed, one round "
                             "(smoke test)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the full output document here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two output documents (or "
                             "directories of them) and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"expected one of {names}")
    workloads = [args.workload] if args.workload else names
    if args.seconds not in (None, benchmark["run_seconds"]):
        raise SystemExit(f"--seconds must be run_seconds from "
                         f"BENCHMARK.json ({benchmark['run_seconds']})")
    seconds = 0.0 if args.quick else benchmark["run_seconds"]
    trace = bool(args.trace)
    table = metric_table(benchmark, trace)
    records = {}
    for workload in workloads:
        records[workload] = measure(
            workload, args.seed, seconds, trace, args.quick
        )
        mismatch = set(table) ^ set(records[workload]["values"])
        if mismatch and records[workload]["values"]:
            raise BenchError(f"metrics not in BENCHMARK.json or not "
                             f"measured: {sorted(mismatch)}")
        print_record(workload, records[workload], table)
    line = result_line(records, table)
    if args.out:
        doc = {
            "schema": 1,
            "trace": trace,
            "quick": args.quick,
            "seconds": seconds,
            "python": platform.python_version(),
            "workloads": records,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
