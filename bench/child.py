"""Child-process side of the benchmark: one workload, measured in-process.

``run.py`` starts one of these per measurement, one at a time, and
reads the JSON object it prints as its last line.  Three modes:

``setup``
    Time from the start of work in this fresh process to the first
    ``Environment.run()`` entry: imports, spec validation,
    topology/deployment/registry construction and the DAG/workload
    build.  The run is abandoned at that entry.
``timed``
    The run's seed and its companion seeds (see :func:`run_specs`) each
    get one warm-up ``spec.run()``; the seed's own also collects the
    exact work counters.  Then rounds of back-to-back timed
    ``spec.run()`` calls, one per seed, until ``--seconds`` have passed,
    each call under a :class:`~reference.HostSampler`.  Every result is
    checked against its seed's warm-up (and, at the default seed,
    against ``expected.json``).
``profile``
    One warm-up, then one ``spec.run()`` under :mod:`cProfile`,
    aggregated into per-layer self-time shares and call counts.

Every time a child reports is already normalised to reference-host
seconds (see ``reference.py``), except the ``raw_s`` diagnostics.

The simulator is observed from outside only: the child wraps public
entry points (``Environment.run``, ``Deployment.__init__``,
``Resource.try_acquire``) in this process and reads public stats
objects after the run.  Nothing under ``src/`` knows it is measured.

Usage (normally via ``run.py``)::

    python bench/child.py timed --workload montage_fair --seed 11 \\
        --seconds 15
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import HostSampler, scale, time_reference

BENCH_DIR = Path(__file__).resolve().parent

#: Benchmark workload -> registry scenario it runs.
WORKLOADS = {
    "synthetic_hybrid": "paper_synthetic",
    "montage_slots": "paper_default",
    "montage_fair": "fanout_bandwidth_aware",
    "autoscale_traced": "autoscale_ramp",
}

#: Seeds a timed run cycles through: its own and companions derived
#: from it.  How much work a scenario makes depends on its seed (the
#: per-seed median run times of montage_fair at seeds 11-20 spread by
#: 4%), and a run at one seed alone carries that into every comparison
#: between runs at different seeds; averaging four roughly halves it.
SEEDS_PER_RUN = 4
#: Distance between a run's seeds, so that runs at nearby seeds share
#: no companion.
SEED_STRIDE = 1_000_003
#: Timed rounds a run makes even when ``--seconds`` has already passed.
MIN_ROUNDS = 3
#: Failure messages a child reports (the count is always exact).
MAX_ERRORS = 10
#: Reference slices timed just before and just after the profiled run.
PROFILE_SLICES = 20

#: Layer -> the ``src/repro`` paths it owns (``dir/`` = a whole package,
#: otherwise one module).  Every module maps to exactly one layer, so a
#: new module cannot silently land in a catch-all.
LAYERS = (
    ("sim", ("sim/",)),
    ("metadata", ("metadata/",)),
    ("cloud.network", ("cloud/network.py",)),
    ("cloud.flow", ("cloud/flow.py",)),
    ("cloud.other", (
        "cloud/__init__.py", "cloud/deployment.py", "cloud/faults.py",
        "cloud/presets.py", "cloud/topology.py", "cloud/vm.py",
    )),
    ("storage", ("storage/",)),
    ("scheduling", ("scheduling/",)),
    ("workflow", ("workflow/",)),
    ("workload", ("workload/",)),
    ("elastic", ("elastic/",)),
    ("obs", ("obs/",)),
    ("driver", (
        "__init__.py", "cli.py", "analysis/", "experiments/", "results/",
        "scenario/", "util/",
    )),
)
#: Pseudo-layer for everything outside ``src/repro``: the standard
#: library, numpy and builtins.
PYTHON_LAYER = "python"
LAYER_NAMES = tuple(name for name, _ in LAYERS) + (PYTHON_LAYER,)


def layer_of(relpath: str) -> str:
    """The one layer owning ``relpath`` (posix path under ``src/repro``);
    raises unless exactly one does."""
    found = [
        name
        for name, owned in LAYERS
        if any(
            relpath.startswith(p) if p.endswith("/") else relpath == p
            for p in owned
        )
    ]
    if len(found) != 1:
        raise ValueError(f"{relpath} maps to layers {found}, expected one")
    return found[0]


def workload_spec(workload: str, seed=None):
    """The registry spec behind ``workload``, with ``seed`` applied."""
    from repro.scenario import get_scenario

    spec = get_scenario(WORKLOADS[workload])
    if seed is None:
        return spec
    spec = spec.replace(seed=seed)
    if spec.workload is not None:
        spec = spec.replace(**{"workload.seed": seed})
    return spec


def run_specs(workload: str, seed, quick: bool) -> list:
    """The specs a timed run cycles through: ``seed``'s own first, then
    its companions (none with ``quick``)."""
    first = workload_spec(workload, seed)
    return [first] + [
        workload_spec(workload, first.seed + i * SEED_STRIDE)
        for i in range(1, 1 if quick else SEEDS_PER_RUN)
    ]


def expected_metrics(workload: str, spec, quick: bool):
    """Pinned ``result_metrics`` for this run, or None when not pinned.

    Only full-size runs at the workload's default seed are pinned.
    """
    if quick:
        return None
    pinned = json.loads((BENCH_DIR / "expected.json").read_text())[workload]
    return pinned["result_metrics"] if spec.seed == pinned["seed"] else None


def invariant_errors(spec, metrics) -> list:
    """Surface invariants that hold at every seed."""
    from repro.scenario.spec import WORKFLOW_BUILDERS

    if spec.surface == "synthetic":
        key, value = "total_ops", spec.n_nodes * spec.ops_per_node
    elif spec.surface == "workflow":
        dag = WORKFLOW_BUILDERS[spec.application](
            ops_per_task=spec.ops_per_task
        )
        key, value = "tasks", len(dag.tasks)
    else:
        key, value = "completed", sum(
            len(t.arrival_times) if t.arrival_times else t.n_instances
            for t in spec.workload.tenants
        )
    if metrics.get(key) != value:
        return [f"{key} = {metrics.get(key)}, expected {value}"]
    return []


def _diff(metrics, reference, label) -> list:
    if metrics == reference:
        return []
    keys = sorted(
        k for k in set(metrics) | set(reference)
        if metrics.get(k) != reference.get(k)
    )
    return [f"result_metrics differ from {label} on {keys}"]


class PhaseClock:
    """Wraps ``Environment.run`` to split a run into build/simulate/finalize.

    ``build`` ends at the first ``Environment.run()`` entry and
    ``finalize`` starts at the last exit; ``simulate`` is the rest.
    """

    def __init__(self):
        from repro.sim import Environment

        self._cls = Environment
        self._orig = Environment.run
        self.first_entry = None
        self.last_exit = None

    def install(self):
        orig, clock = self._orig, self

        def run(env, until=None):
            now = time.perf_counter()
            if clock.first_entry is None:
                clock.first_entry = now
            try:
                return orig(env, until)
            finally:
                clock.last_exit = time.perf_counter()

        self._cls.run = run

    def uninstall(self):
        self._cls.run = self._orig

    def reset(self):
        self.first_entry = self.last_exit = None


class CounterProbe:
    """Collects exact work counters from one run.

    Captures every ``Deployment`` built (for network and flow stats) and
    counts ``try_acquire`` outcomes on every resource class that defines
    it, then reads the public result and stats objects.
    """

    def __init__(self):
        from repro.cloud.deployment import Deployment
        from repro.sim import resources

        self.deployments = []
        self.attempts = 0
        self.hits = 0
        self._originals = [(Deployment, "__init__", Deployment.__init__)] + [
            (cls, "try_acquire", cls.__dict__["try_acquire"])
            for cls in vars(resources).values()
            if isinstance(cls, type) and "try_acquire" in cls.__dict__
        ]

    def install(self):
        probe = self
        (deployment, _, dep_init), *acquirers = self._originals

        def init(dep, *args, **kwargs):
            dep_init(dep, *args, **kwargs)
            probe.deployments.append(dep)

        deployment.__init__ = init
        for cls, _, orig in acquirers:
            def try_acquire(res, _orig=orig):
                req = _orig(res)
                probe.attempts += 1
                probe.hits += req is not None
                return req

            cls.try_acquire = try_acquire

    def uninstall(self):
        for cls, attr, orig in self._originals:
            setattr(cls, attr, orig)

    def counters(self, result) -> dict:
        res = result.result
        if result.surface == "workload":
            ops = res.total_ops
            retries = sum(r.result.ops.total_retries for r in res.records)
            tasks = sum(len(r.result.task_results) for r in res.records)
            instances = res.n_completed
        else:
            ops = len(res.ops)
            retries = res.ops.total_retries
            tasks = (
                len(res.task_results) if result.surface == "workflow" else 0
            )
            instances = 0
        events = result.provenance["events_processed"]
        networks = [d.network for d in self.deployments]
        flow_nets = [n.flow_net for n in networks if n.flow_net is not None]
        return {
            "sim.events": events,
            "sim.events_per_op": events / ops if ops else 0.0,
            "sim.try_acquire_hit_frac": (
                self.hits / self.attempts if self.attempts else 0.0
            ),
            "metadata.ops": ops,
            "metadata.read_retries": retries,
            "cloud.network.messages": sum(n.stats.messages for n in networks),
            "cloud.flow.flows": sum(
                link.stats.flows for fn in flow_nets
                for link in fn.links.values()
            ),
            "cloud.flow.rebalances": sum(fn.rebalances for fn in flow_nets),
            "workflow.tasks": tasks,
            "workload.instances": instances,
            "elastic.actions": (
                len(result.elastic.actions) if result.elastic else 0
            ),
            "obs.trace_events": (
                sum(result.tracer.counts.values()) if result.tracer else 0
            ),
        }


def _run(spec, quick, errors):
    """One ``spec.run()``; None (with the error recorded) if it raised."""
    try:
        return spec.run(quick=quick)
    except Exception as exc:  # noqa: BLE001 - a failed run is counted
        errors.append(f"{type(exc).__name__}: {exc}")
        return None


def _problems(spec, quick, metrics, baseline, expected) -> list:
    """Every way ``metrics`` is wrong: invariants, warm-up, expected."""
    found = invariant_errors(spec.quick() if quick else spec, metrics)
    if baseline is not None:
        found += _diff(metrics, baseline, "the warm-up run")
    if expected is not None:
        found += _diff(metrics, expected, "expected.json")
    return found


def _warm_up(spec, quick, expected, errors):
    """The untimed first run: its result, which every later run must
    reproduce, or None when it raised (nothing can then be compared, so
    the caller abandons the measurement)."""
    result = _run(spec, quick, errors)
    if result is None:
        return None
    from repro.results import result_metrics

    errors += _problems(spec, quick, result_metrics(result), None, expected)
    return result


def _abandoned(errors, attempted=1, **extra) -> dict:
    """The report of a measurement whose warm-up run raised: every run
    attempted counts as failed, and nothing was measured."""
    return {"attempted": attempted, "failed": attempted,
            "errors": list(dict.fromkeys(errors))[:MAX_ERRORS], **extra}


def measure_setup(workload: str, seed, quick: bool) -> dict:
    """Time from here to the first ``Environment.run()`` entry."""
    with HostSampler() as host:
        from repro.sim import Environment

        class _Reached(Exception):
            pass

        def run(env, until=None):
            raise _Reached

        orig, Environment.run = Environment.run, run
        try:
            workload_spec(workload, seed).run(quick=quick)
        except _Reached:
            pass
        else:
            raise RuntimeError("the run never entered Environment.run()")
        finally:
            Environment.run = orig
    return {"raw_s": host.raw_s, "setup_s": host.normalised_s}


def measure_timed(workload: str, seed, seconds: float, quick: bool,
                  min_rounds: int) -> dict:
    """Warm-ups (the first with counters), then timed rounds over the
    run's seeds until ``seconds`` pass.

    ``rounds`` holds each complete round's mean normalised run time;
    ``samples`` every timed run, with the index of its seed.
    """
    from repro.results import result_metrics

    specs = run_specs(workload, seed, quick)
    expected = [expected_metrics(workload, specs[0], quick)]
    expected += [None] * (len(specs) - 1)
    errors: list = []
    probe = CounterProbe()
    baselines, failed = [], 0
    for k, spec in enumerate(specs):
        before = len(errors)
        if k == 0:
            probe.install()
        try:
            warm = _warm_up(spec, quick, expected[k], errors)
        finally:
            probe.uninstall()
        if warm is None:
            return _abandoned(errors, k + 1, seed=specs[0].seed, rounds=[])
        if k == 0:
            counters = probe.counters(warm)
            # The captured deployments would keep the whole warm-up
            # simulation (and on traced workloads its tracer) alive
            # through every timed run, inflating peak_rss_mb and the
            # collector's work.
            probe.deployments.clear()
        failed += len(errors) > before
        baselines.append(result_metrics(warm))
        del warm
        gc.collect()  # or the next warm-up's heap adds to this one's

    clock = PhaseClock()
    clock.install()
    rounds, samples, slices = [], [], []
    n_rounds = repeats = 0
    t_loop = time.perf_counter()
    elapsed = 0.0
    # Rounds are several seconds long on the slower workloads: stop at
    # the round end nearest to ``seconds`` rather than the first past it.
    while n_rounds < min_rounds or elapsed + elapsed / n_rounds / 2 < seconds:
        n_rounds += 1
        walls = []
        for k, spec in enumerate(specs):
            repeats += 1
            gc.collect()
            clock.reset()
            with HostSampler() as host:
                result = _run(spec, quick, errors)
            if result is None:
                failed += 1
                continue
            # A wrong result still took its time: it is timed, and failed.
            found = _problems(
                spec, quick, result_metrics(result), baselines[k], expected[k]
            )
            del result
            errors += found
            failed += bool(found)
            f, t0 = host.factor, host.t0
            slices += host.slices
            walls.append(host.normalised_s)
            samples.append({
                "seed_index": k,
                "raw_s": host.raw_s,
                "wall_s": host.normalised_s,
                "build_s": (clock.first_entry - t0) * f,
                "simulate_s": (clock.last_exit - clock.first_entry) * f,
                "finalize_s": (t0 + host.raw_s - clock.last_exit) * f,
            })
        if len(walls) == len(specs):  # a round missing a seed is biased
            rounds.append(sum(walls) / len(walls))
        elapsed = time.perf_counter() - t_loop
    clock.uninstall()
    return {
        "seed": specs[0].seed,
        "seeds": [spec.seed for spec in specs],
        "attempted": len(specs) + repeats,
        "failed": failed,
        "errors": list(dict.fromkeys(errors))[:MAX_ERRORS],
        "baseline": baselines[0],
        "counters": counters,
        "rounds": rounds,
        "samples": samples,
        "ref_s": statistics.median(slices) if slices else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def _code_key(func):
    code = func.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def aggregate_profile(stats: dict) -> dict:
    """cProfile ``Stats.stats`` -> per-layer self-time shares and counts."""
    import repro
    from repro.cloud.flow import FlowNetwork
    from repro.sim import Environment, Process, Timeout

    src = Path(repro.__file__).resolve().parent
    layer_cache: dict = {}

    def layer(filename):
        if filename not in layer_cache:
            path = Path(filename)
            if path.is_absolute() and path.resolve().is_relative_to(src):
                rel = path.resolve().relative_to(src).as_posix()
                layer_cache[filename] = layer_of(rel)
            else:
                layer_cache[filename] = PYTHON_LAYER
        return layer_cache[filename]

    self_time = dict.fromkeys(LAYER_NAMES, 0.0)
    placements = 0
    for (filename, _, funcname), (_, _, tottime, _, callers) in (
        stats.items()
    ):
        owner = layer(filename)
        self_time[owner] += tottime
        if owner == "scheduling" and funcname == "place":
            # Count the policy entry only, not policies delegating to
            # one another.
            placements += sum(
                c[1] for key, c in callers.items()
                if layer(key[0]) != "scheduling"
            )
    total = sum(self_time.values())
    calls = {
        "sim.processes": _code_key(Process.__init__),
        "sim.timeouts": _code_key(Timeout.__init__),
        "sim.reschedules": _code_key(Environment.reschedule),
        "cloud.flow.estimate_rate_calls": _code_key(FlowNetwork.estimate_rate),
    }
    out = {f"self.{name}": t / total for name, t in self_time.items()}
    out.update({
        name: stats[key][1] if key in stats else 0
        for name, key in calls.items()
    })
    out["scheduling.placements"] = placements
    return out


def measure_profile(workload: str, seed, quick: bool) -> dict:
    """One warm-up (none with ``quick``), then one run under cProfile,
    aggregated by layer.

    The host speed is sampled only around the profiled run: slices taken
    inside it would be profiled too.
    """
    import pstats

    from repro.results import result_metrics

    spec = workload_spec(workload, seed)
    expected = expected_metrics(workload, spec, quick)
    errors: list = []
    baseline = None
    if not quick:
        warm = _warm_up(spec, quick, expected, errors)
        if warm is None:
            return _abandoned(errors, layers=None)
        baseline = result_metrics(warm)
        del warm
    failed = int(bool(errors))
    gc.collect()
    before = [time_reference() for _ in range(PROFILE_SLICES)]
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    try:
        result = _run(spec, quick, errors)
    finally:
        prof.disable()
    raw = time.perf_counter() - t0
    after = [time_reference() for _ in range(PROFILE_SLICES)]
    report = {
        "attempted": 1 if quick else 2,
        "failed": failed + 1,
        "errors": list(dict.fromkeys(errors))[:MAX_ERRORS],
        "layers": None,
    }
    if result is None:
        return report  # a profile of a run that raised is no profile
    metrics = result_metrics(result)
    found = _problems(spec, quick, metrics, baseline, expected)
    errors += found
    report.update(
        failed=failed + bool(found),
        errors=list(dict.fromkeys(errors))[:MAX_ERRORS],
        metrics=metrics,
        wall_s=raw * scale(raw, 0.0, before + after),
        layers=aggregate_profile(pstats.Stats(prof).stats),
    )
    return report


def measure(mode: str, workload: str, seed, quick: bool,
            seconds: float = 0.0) -> dict:
    """Take one measurement (``--quick``: reduced scenario, one seed,
    one round)."""
    if mode == "setup":
        return measure_setup(workload, seed, quick)
    if mode == "timed":
        return measure_timed(workload, seed, seconds, quick,
                             1 if quick else MIN_ROUNDS)
    return measure_profile(workload, seed, quick)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "timed", "profile"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    out = measure(args.mode, args.workload, args.seed, args.quick,
                  args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
