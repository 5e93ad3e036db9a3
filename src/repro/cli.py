"""Command-line interface.

::

    python -m repro.cli figures --quick --only fig7 --jobs 4
    python -m repro.cli run --scenario paper_synthetic --set strategy.name=dr
    python -m repro.cli run --scenario paper_default --set application=buzzflow --export out.json
    python -m repro.cli run --scenario multi_tenant_8 --set max_in_flight=2 --quick
    python -m repro.cli run --scenario paper_default --set ops_per_task=200 --dump-spec scenario.json
    python -m repro.cli run --spec scenario.json
    python -m repro.cli trace --scenario fanout_bandwidth_aware --quick --out trace.json
    python -m repro.cli analyze --scenario multi_tenant_slo --quick
    python -m repro.cli run --scenario multi_tenant_slo --quick --export slo.json
    python -m repro.cli analyze --artifact slo.json
    python -m repro.cli sweep --scenario paper_synthetic --set "strategy.name=centralized,hybrid"
    python -m repro.cli sweep --scenario paper_synthetic --set "seed=0,1,2,3" --jobs 4 --out runs/
    python -m repro.cli sweep --scenario paper_synthetic --set "seed=0,1" --export sweep.json
    python -m repro.cli advise --workflow montage --ops 1000
    python -m repro.cli results runs/
    python -m repro.cli diff runs-before/ runs-after/
    python -m repro.cli diff out.json runs/<key>.json
    python -m repro.cli scenarios

``run``, ``trace``, ``analyze`` and ``sweep`` name an experiment one
way: ``--scenario NAME`` (the registry, ``repro.cli scenarios``) or
``--spec FILE`` (a ``repro.scenario.ScenarioSpec`` as JSON), plus
repeatable ``--set dotted.path=value`` overrides and ``--quick``.
``run --dump-spec`` writes the spec a run would run as a JSON file
that ``--spec`` replays (see ``docs/scenarios.md``).

A run written to disk has one format, the artifact of
``repro.results``: ``run --export FILE`` writes the same document that
``sweep --out DIR`` stores for each cell, and ``results``, ``diff`` and
``analyze --artifact`` read it.  ``sweep --export FILE`` writes the
sweep document, which holds one such artifact per cell.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import List, Optional

from repro.analysis.advisor import profile_workflow, recommend_strategy
from repro.elastic import ELASTICITY_NAMES, ELASTICITY_POLICIES
from repro.experiments.fig1_latency import run_fig1
from repro.experiments.fig3_replication import run_fig3
from repro.experiments.fig5_makespan import run_fig5
from repro.experiments.fig6_progress import run_fig6
from repro.experiments.fig7_throughput import run_fig7
from repro.experiments.fig8_scalability import run_fig8
from repro.experiments.fig10_workflows import run_fig10
from repro.experiments.reporting import render_table
from repro.metadata.controller import STRATEGIES, StrategyName
from repro.results import (
    ResultStore,
    current_git_rev,
    diff_artifacts,
    diff_stores,
    read_artifact,
    run_artifact,
    sweep_result_to_dict,
    write_document,
)
from repro.scenario import (
    SCENARIOS,
    WORKFLOW_BUILDERS,
    ScenarioSpec,
    get_scenario,
    run_sweep,
)
from repro.scheduling import SCHEDULERS, SCHEDULER_NAMES
from repro.util.checks import check_number
from repro.workload import (
    ADMISSIONS,
    ADMISSION_NAMES,
    APPLICATION_NAMES,
    APPLICATIONS,
)
from repro.workflow.serialization import load_workflow
from repro.workflow.traces import characterize

__all__ = ["main", "build_parser", "load_spec", "parse_overrides"]

#: Figure name -> ``(quick, jobs)`` runner; Figs. 1 and 3 are raw
#: micro-benchmarks with no sweep to parallelise.
FIGURES = {
    "fig1": lambda quick, jobs: run_fig1(
        file_counts=(100, 500, 1000) if quick else (100, 500, 1000, 5000)
    ),
    "fig3": lambda quick, jobs: run_fig3(),
    "fig5": lambda quick, jobs: run_fig5(
        ops_per_node=(100, 250, 500, 1000) if quick else (500, 1000, 5000, 10000),
        n_nodes=32,
        jobs=jobs,
    ),
    "fig6": lambda quick, jobs: run_fig6(
        n_nodes=32, ops_per_node=1500 if quick else 5000, jobs=jobs
    ),
    "fig7": lambda quick, jobs: run_fig7(
        node_counts=(8, 16, 32, 64) if quick else (8, 16, 32, 64, 128),
        ops_per_node=500 if quick else 5000,
        jobs=jobs,
    ),
    "fig8": lambda quick, jobs: run_fig8(
        node_counts=(8, 16, 32, 64) if quick else (8, 16, 32, 64, 128),
        total_ops=8000 if quick else 32000,
        jobs=jobs,
    ),
    "fig10": lambda quick, jobs: run_fig10(
        scenarios=("SS", "MI") if quick else ("SS", "CI", "MI"), jobs=jobs
    ),
}

#: The workflow-surface applications (one shared name -> builder map,
#: see ``repro.scenario.spec.WORKFLOW_BUILDERS``).
WORKFLOWS = WORKFLOW_BUILDERS


def _add_spec_source(parser, verb: str, axes=False, artifact=None):
    """The one spec source of ``run``/``trace``/``analyze``/``sweep``.

    A required ``--scenario NAME | --spec FILE`` (``artifact``, the help
    of ``analyze``'s ``--artifact``, joins the same group), a repeatable
    ``--set`` (grid axes with ``axes``, see :func:`parse_overrides`) and
    ``--quick``; :func:`load_spec` reads them.
    """
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--scenario",
        metavar="NAME",
        help=f"{verb} a named registry scenario (repro.cli scenarios)",
    )
    source.add_argument(
        "--spec",
        metavar="FILE",
        help=f"{verb} a scenario spec JSON file (run --dump-spec writes one)",
    )
    if artifact is not None:
        source.add_argument("--artifact", metavar="FILE", help=artifact)
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="PATH=V1,V2" if axes else "PATH=VALUE",
        help=(
            "one sweep axis: a dotted spec path with comma-separated "
            "values, e.g. --set strategy.name=centralized,hybrid "
            "(repeatable; axes combine as a cartesian product)"
            if axes
            else "override one spec field by dotted path, e.g. --set "
            "strategy.name=dr or --set faults.0.duration=9 (repeatable; "
            "a value is a JSON scalar when it parses as one, else a string)"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"{verb} the CI-sized variant (ScenarioSpec.quick)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figs = sub.add_parser(
        "figures", help="regenerate the paper's evaluation figures"
    )
    figs.add_argument("--quick", action="store_true")
    figs.add_argument(
        "--only",
        choices=sorted(FIGURES),
        help="run a single figure instead of all",
    )
    figs.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run each figure's sweep cells in N worker processes "
            "(bit-for-bit identical to serial; default 1)"
        ),
    )

    adv = sub.add_parser(
        "advise", help="characterize a workflow and recommend a strategy"
    )
    target = adv.add_mutually_exclusive_group(required=True)
    target.add_argument("--workflow", choices=sorted(WORKFLOWS))
    target.add_argument("--file", help="path to a workflow JSON document")
    adv.add_argument("--ops", type=int, default=1000)
    adv.add_argument("--nodes", type=int, default=32)

    runp = sub.add_parser("run", help="run one scenario spec and report")
    _add_spec_source(runp, "run")
    runp.add_argument(
        "--dump-spec",
        metavar="PATH",
        help=(
            "write the spec this run would run (overrides and --quick "
            "applied) as JSON ('-' for stdout) and exit without running"
        ),
    )
    runp.add_argument(
        "--export",
        metavar="PATH",
        help=(
            "write the run's artifact as JSON: the document sweep --out "
            "stores, read by diff and analyze --artifact"
        ),
    )

    tracep = sub.add_parser(
        "trace",
        help=(
            "run a scenario with full tracing and export a Chrome "
            "trace-event file (chrome://tracing, Perfetto)"
        ),
    )
    _add_spec_source(tracep, "trace")
    tracep.add_argument(
        "--out",
        metavar="PATH",
        default="trace.json",
        help="Chrome trace-event JSON output path (default: trace.json)",
    )
    tracep.add_argument(
        "--jsonl",
        metavar="PATH",
        help="also write the raw event stream as JSON lines",
    )
    tracep.add_argument(
        "--categories",
        metavar="CAT,CAT",
        default=None,
        help=(
            "comma-separated event categories to record (default: the "
            "spec's observability.categories; see docs/observability.md)"
        ),
    )

    analyzep = sub.add_parser(
        "analyze",
        help=(
            "trace a scenario and report where the time went: observed "
            "critical path, attribution buckets, hottest site/link, "
            "SLO verdicts (docs/observability.md)"
        ),
    )
    _add_spec_source(
        analyzep,
        "analyze",
        artifact=(
            "render the report from a stored run artifact (must carry "
            "an 'analysis' or 'slo' block) instead of running anything"
        ),
    )
    analyzep.add_argument(
        "--out",
        metavar="PATH",
        help="also write the report to a text file",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a cartesian grid of scenario-spec overrides",
    )
    _add_spec_source(sweep, "sweep", axes=True)
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run grid cells in N worker processes (bit-for-bit "
            "identical to serial; default 1)"
        ),
    )
    sweep.add_argument(
        "--out",
        metavar="DIR",
        help=(
            "persist every successful cell as a JSON artifact in a "
            "result store keyed by spec hash + seed (repro.cli results, "
            "repro.cli diff)"
        ),
    )
    sweep.add_argument(
        "--export",
        metavar="PATH",
        help=(
            "write the sweep document as JSON: the base spec, the axes "
            "and every cell's artifact or error"
        ),
    )

    res = sub.add_parser(
        "results",
        help="list the run artifacts of a result store directory",
    )
    res.add_argument("store", metavar="DIR", help="result store directory")

    diffp = sub.add_parser(
        "diff",
        help=(
            "keyed comparison of two run artifacts or two result-store "
            "directories: metric deltas and changed spec fields"
        ),
    )
    diffp.add_argument(
        "a", metavar="A", help="artifact JSON file or store directory"
    )
    diffp.add_argument(
        "b", metavar="B", help="artifact JSON file or store directory"
    )

    sub.add_parser("strategies", help="list available strategies")
    sub.add_parser(
        "schedulers", help="list available task-placement policies"
    )
    sub.add_parser(
        "workloads",
        help="list workload applications and admission policies",
    )
    sub.add_parser(
        "elasticity",
        help="list elastic autoscaling policies (docs/elasticity.md)",
    )
    sub.add_parser(
        "scenarios",
        help="list the named scenario registry (docs/scenarios.md)",
    )
    return parser


def _parse_value(text: str):
    """One override value: JSON scalar when it parses, else a string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def parse_overrides(items, axes: bool = False) -> dict:
    """``--set dotted.path=value`` items as ``{path: value}``.

    With ``axes`` (``sweep``) each value splits on commas into a tuple,
    one grid axis per path.
    """
    out = {}
    for item in items:
        path, eq, text = item.partition("=")
        if not eq or not path:
            form = "v1,v2" if axes else "value"
            raise ValueError(
                f"bad --set {item!r}; expected dotted.path={form}"
            )
        if axes:
            out[path] = tuple(_parse_value(v) for v in text.split(","))
        else:
            out[path] = _parse_value(text)
    return out


def load_spec(args, overrides: Optional[dict] = None) -> ScenarioSpec:
    """The validated spec ``--scenario NAME | --spec FILE`` names, with
    ``overrides`` (by default the ``--set`` values) applied."""
    if args.scenario:
        spec = get_scenario(args.scenario)
    else:
        spec = ScenarioSpec.load(args.spec)
    if overrides is None:
        overrides = parse_overrides(args.overrides)
    spec = spec.replace(**overrides)
    spec.validate()
    return spec


def _fail(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _check_output_paths(*paths: Optional[str]) -> None:
    """Raise ``ValueError`` for an output path whose directory does not
    exist, so a command fails before its run, not after it."""
    for path in paths:
        if path and path != "-":
            folder = os.path.dirname(os.path.abspath(path))
            if not os.path.isdir(folder):
                raise ValueError(
                    f"cannot write {path}: no directory {folder}"
                )


def _check_store_dir(path: Optional[str]) -> None:
    """Raise ``ValueError`` when a result-store directory could not be
    created: its nearest existing ancestor is not a directory."""
    if path:
        probe = os.path.abspath(path)
        while not os.path.exists(probe):
            probe = os.path.dirname(probe)
        if not os.path.isdir(probe):
            raise ValueError(
                f"cannot write store {path}: {probe} is not a directory"
            )


def _resolve_workflow(args):
    if getattr(args, "file", None):
        return load_workflow(args.file)
    return WORKFLOWS[args.workflow](ops_per_task=args.ops)


def _cmd_figures(args) -> int:
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    names = [args.only] if args.only else sorted(FIGURES)
    for name in names:
        result = FIGURES[name](args.quick, args.jobs)
        print(f"\n=== {name} ===")
        print(result.render())
    return 0


def _cmd_advise(args) -> int:
    try:
        # The bounds validate() puts on n_nodes and ops_per_task.
        check_number("--nodes", args.nodes, integer=True)
        check_number("--ops", args.ops, minimum=0, integer=True)
        wf = _resolve_workflow(args)
    except (ValueError, OSError) as exc:
        return _fail(exc)
    ch = characterize(wf)
    print(
        render_table(
            ["feature", "value"],
            [
                ["tasks", ch.n_tasks],
                ["files", ch.n_files],
                ["mean file size (B)", ch.mean_file_size],
                ["small-file fraction", f"{ch.small_file_fraction:.0%}"],
                ["ops per task", ch.metadata_ops_per_task],
                ["read/write ratio", ch.read_write_ratio],
                ["dominant pattern", ch.dominant_pattern],
                ["metadata-intensive", ch.is_metadata_intensive()],
            ],
            title=f"characterization: {wf.name}",
        )
    )
    prof = profile_workflow(wf, n_sites=4, n_nodes=args.nodes)
    strategy, reasons = recommend_strategy(prof)
    print(f"\nrecommended strategy: {strategy}")
    for r in reasons:
        print(f"  - {r}")
    return 0


def _cmd_run(args) -> int:
    try:
        # TypeError covers hand-edited spec JSON with wrong value types
        # (e.g. a string compute_time) surfacing from validate().
        overrides = parse_overrides(args.overrides)
        spec = load_spec(args, overrides)
        _check_output_paths(args.dump_spec, args.export)
    except (ValueError, TypeError, OSError) as exc:
        return _fail(exc)
    if args.dump_spec:
        text = (spec.quick() if args.quick else spec).to_json()
        if args.dump_spec == "-":
            print(text)
        else:
            try:
                with open(args.dump_spec, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                return _fail(exc)
            print(f"spec written to {args.dump_spec}")
        return 0
    t0 = time.perf_counter()
    try:
        result = spec.run(quick=args.quick)
    except (ValueError, OSError) as exc:  # e.g. a bad workflow_file
        return _fail(exc)
    wall_time_s = time.perf_counter() - t0
    print(result.render())
    if result.obs is not None:
        print()
        print(_render_obs(result.obs))
    if args.export:
        doc = run_artifact(
            result,
            overrides=overrides,
            git_rev=current_git_rev(),
            wall_time_s=wall_time_s,
        )
        try:
            write_document(doc, args.export)
        except OSError as exc:
            return _fail(exc)
        print(f"\nartifact written to {args.export}")
    return 0


def _render_obs(obs: dict) -> str:
    """The metrics-plane summary tables of one traced run."""
    parts = []
    events = obs.get("events") or {}
    if events:
        rows = [[cat, n] for cat, n in sorted(events.items())]
        rows.append(["(spans)", obs.get("n_spans", 0)])
        if obs.get("dropped"):
            rows.append(["(dropped)", obs["dropped"]])
        parts.append(
            render_table(
                ["category", "events"], rows, title="trace events"
            )
        )
    metrics = obs.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        rows = [[name, v] for name, v in sorted(counters.items())]
        parts.append(render_table(["counter", "value"], rows))
    histograms = metrics.get("histograms") or {}
    if histograms:
        rows = [
            [
                name,
                int(h["count"]),
                f"{h['mean']:.6f}",
                f"{h['p50']:.6f}",
                f"{h['p90']:.6f}",
                f"{h['p99']:.6f}",
            ]
            for name, h in sorted(histograms.items())
        ]
        parts.append(
            render_table(
                ["latency histogram", "n", "mean", "p50", "p90", "p99"],
                rows,
                title="streaming sketches (seconds)",
            )
        )
    return "\n\n".join(parts) if parts else "no metrics recorded"


def _cmd_trace(args) -> int:
    from repro.obs.export import write_chrome_trace, write_jsonl

    try:
        spec = load_spec(args)
        _check_output_paths(args.out, args.jsonl)
        # Tracing is switched on; the spec's own budgets and sampling
        # (max_events, sample_interval, histogram_capacity) stay.
        obs = dataclasses.replace(spec.observability, enabled=True)
        if args.categories is not None:
            obs = dataclasses.replace(
                obs,
                categories=tuple(
                    c.strip() for c in args.categories.split(",") if c.strip()
                ),
            )
        spec = spec.replace(observability=obs)
        result = spec.run(quick=args.quick)
    except (ValueError, TypeError, OSError) as exc:
        return _fail(exc)
    try:
        write_chrome_trace(result.tracer, args.out)
        if args.jsonl:
            write_jsonl(result.tracer, args.jsonl)
    except OSError as exc:
        return _fail(exc)
    obs = result.obs or {}
    total = obs.get("n_events", 0)
    print(
        f"traced {spec.name}: {total} events, "
        f"{obs.get('n_spans', 0)} spans "
        f"({obs.get('dropped', 0)} dropped)"
    )
    print(f"chrome trace written to {args.out}")
    if args.jsonl:
        print(f"event stream written to {args.jsonl}")
    print()
    print(_render_obs(obs))
    return 0


def _render_slo_dict(slo: dict) -> str:
    """The SLO verdict table from an artifact's (or fresh run's)
    serialized ``slo`` block."""
    head = f"SLO verdict: {slo.get('status', '?')}"
    if slo.get("n_violated"):
        head += (
            f" ({slo['n_violated']} rule(s) violated, total debt "
            f"{slo.get('total_debt', 0.0):.3g}"
        )
        first = slo.get("first_violation_at")
        if first is not None:
            head += f", first violation at t={first:.3g}s"
        head += ")"
    rows = []
    for rule in slo.get("rules", []):
        observed = rule.get("observed")
        first = rule.get("first_violation_at")
        rows.append(
            [
                rule.get("rule", "?"),
                rule.get("status", "?"),
                f"{observed:.4g}" if observed is not None else "--",
                f"{rule.get('target', 0.0):.4g}",
                f"{rule.get('debt', 0.0):.4g}",
                f"{first:.4g}" if first is not None else "--",
                rule.get("note", ""),
            ]
        )
    if not rows:
        return head
    return head + "\n" + render_table(
        ["rule", "status", "observed", "target", "debt", "first at", "note"],
        rows,
    )


def _render_analysis(analysis: dict) -> str:
    """The bottleneck report from a serialized ``analysis`` block."""
    parts = []
    buckets = analysis.get("buckets") or {}
    total = sum(buckets.values())
    workflows = analysis.get("workflows") or []
    if buckets and total > 0:
        rows = [
            [bucket, f"{seconds:.3f}", f"{seconds / total:.1%}"]
            for bucket, seconds in sorted(
                buckets.items(), key=lambda kv: -kv[1]
            )
        ]
        top = rows[0][0]
        parts.append(
            render_table(
                ["bucket", "seconds", "share"],
                rows,
                title=(
                    f"time attribution over {len(workflows)} "
                    f"workflow(s) -- bottleneck: {top}"
                ),
            )
        )
    if workflows:
        slowest = max(workflows, key=lambda w: w.get("makespan", 0.0))
        rows = []
        for step in slowest.get("path", []):
            rows.append(
                [
                    step.get("task", "?"),
                    step.get("site", "?"),
                    f"{step.get('start', 0.0):.2f}",
                    f"{step.get('end', 0.0) - step.get('start', 0.0):.2f}",
                    f"{step.get('wait_before', 0.0):.2f}",
                    f"{step.get('compute', 0.0):.2f}",
                    f"{step.get('metadata', 0.0):.2f}",
                    f"{step.get('wan_transfer', 0.0):.2f}",
                ]
            )
        parts.append(
            render_table(
                [
                    "task", "site", "start", "dur (s)", "wait",
                    "compute", "metadata", "transfer",
                ],
                rows,
                title=(
                    f"observed critical path of {slowest.get('run', '?')!r}"
                    f" -- {len(rows)} of {slowest.get('n_tasks', 0)} tasks,"
                    f" makespan {slowest.get('makespan', 0.0):.3f}s"
                ),
            )
        )
    sites = analysis.get("sites") or {}
    if sites:
        rows = [
            [
                key,
                s.get("vms_seen", 0),
                s.get("peak", 0),
                f"{s.get('mean', 0.0):.2f}",
                f"{s.get('busy_s', 0.0):.2f}",
                f"{s.get('idle_fraction', 0.0):.1%}",
            ]
            for key, s in sorted(
                sites.items(), key=lambda kv: -kv[1].get("busy_s", 0.0)
            )
        ]
        parts.append(
            render_table(
                ["site", "vms", "peak", "mean", "busy (s)", "idle"],
                rows,
                title=(
                    "VM occupancy by site -- hottest: "
                    f"{analysis.get('hottest_site') or '-'}"
                ),
            )
        )
    links = analysis.get("links") or {}
    if links:
        ranked = sorted(
            links.items(), key=lambda kv: -kv[1].get("busy_s", 0.0)
        )
        rows = [
            [
                key,
                s.get("n_intervals", 0),
                f"{s.get('bytes', 0.0) / 1e6:.1f}",
                s.get("peak", 0),
                f"{s.get('busy_s', 0.0):.2f}",
                f"{s.get('idle_fraction', 0.0):.1%}",
            ]
            for key, s in ranked[:10]
        ]
        title = (
            "WAN link busy time -- hottest: "
            f"{analysis.get('hottest_link') or '-'}"
        )
        if len(ranked) > 10:
            title += f" (top 10 of {len(ranked)})"
        parts.append(
            render_table(
                ["link", "transfers", "MB", "peak flows", "busy (s)", "idle"],
                rows,
                title=title,
            )
        )
    registry_wait = analysis.get("registry_wait") or {}
    if registry_wait:
        rows = [
            [
                site,
                int(w.get("count", 0)),
                f"{w.get('total_s', 0.0):.3f}",
                f"{w.get('max_s', 0.0):.4f}",
            ]
            for site, w in sorted(
                registry_wait.items(),
                key=lambda kv: -kv[1].get("total_s", 0.0),
            )
        ]
        parts.append(
            render_table(
                ["registry site", "waits", "total (s)", "max (s)"],
                rows,
                title="registry slot-wait pressure",
            )
        )
    if not analysis.get("complete", True):
        parts.append(
            "warning: the tracer dropped events (max_events budget hit);"
            " this analysis is partial"
        )
    if not parts:
        parts.append(
            "no task spans recorded -- nothing to analyze (the "
            "synthetic surface has no workflow tasks)"
        )
    return "\n\n".join(parts)


def _render_capacity_timeline(timeline: dict) -> str:
    """The elastic fleet's placeable-VM step series, per site."""
    rows = [
        [site, f"{t:.2f}", vms]
        for site in sorted(timeline)
        for t, vms in timeline[site]
    ]
    return render_table(
        ["site", "t (s)", "placeable VMs"],
        rows,
        title="capacity timeline (elastic fleet, placeable VMs by site)",
    )


def _render_elastic_dict(el: dict) -> str:
    """The elastic summary from an artifact's serialized block."""
    head = (
        f"elastic policy {el.get('policy', '?')}: "
        f"{el.get('n_scale_ups', 0)} scale-up(s), "
        f"{el.get('n_scale_downs', 0)} scale-down(s); fleet "
        f"{el.get('fleet_initial', 0)} -> peak {el.get('fleet_peak', 0)} "
        f"-> final {el.get('fleet_final', 0)}; "
        f"{el.get('vm_seconds', 0.0):.1f} vm-seconds"
    )
    rows = [
        [f"{a.get('t', 0.0):.2f}", a.get("site", "?"), a.get("delta", 0)]
        for a in el.get("actions", [])
    ]
    if not rows:
        return head
    return head + "\n" + render_table(["t (s)", "site", "delta"], rows)


def _artifact_report(path: str) -> str:
    """The ``analyze`` report of a stored run artifact, without re-running."""
    doc = read_artifact(path)
    analysis = doc.get("analysis")
    slo = doc.get("slo")
    if analysis is None and slo is None:
        raise ValueError(
            f"{path} carries no 'analysis' or 'slo' block; re-run it "
            "traced (repro.cli analyze --scenario NAME | --spec FILE) or "
            "with an slo spec to get one"
        )
    parts = [
        f"analysis of stored run {doc.get('name', '?')!r} "
        f"(surface {doc.get('surface', '?')}, makespan "
        f"{doc.get('metrics', {}).get('makespan_s', 0.0):.3f}s)"
    ]
    if analysis is not None:
        parts.append(_render_analysis(analysis))
    if doc.get("elastic") is not None:
        parts.append(_render_elastic_dict(doc["elastic"]))
    parts.append(
        _render_slo_dict(slo) if slo is not None else "SLO: none declared"
    )
    return "\n\n".join(parts)


def _run_report(args) -> str:
    """Trace the spec ``args`` names and report where its time went."""
    spec = load_spec(args)
    obs = dataclasses.replace(spec.observability, enabled=True)
    if obs.categories is not None and "span" not in obs.categories:
        # Critical-path analysis needs spans; widen to all.
        obs = dataclasses.replace(obs, categories=None)
    spec = spec.replace(observability=obs)
    result = spec.run(quick=args.quick)
    parts = [
        f"analyzed {spec.name!r} (surface {result.surface}, "
        f"makespan {result.makespan:.3f}s)"
    ]
    if result.analysis is not None:
        parts.append(_render_analysis(result.analysis.to_dict()))
    if result.elastic is not None:
        from repro.obs.analyze import capacity_timeline

        parts.append(result.elastic.render())
        timeline = (
            capacity_timeline(result.tracer)
            if result.tracer is not None
            else {}
        )
        if timeline:
            parts.append(_render_capacity_timeline(timeline))
    parts.append(
        _render_slo_dict(result.slo.to_dict())
        if result.slo is not None
        else "SLO: none declared"
    )
    return "\n\n".join(parts)


def _cmd_analyze(args) -> int:
    try:
        _check_output_paths(args.out)
        if args.artifact:
            if args.overrides or args.quick:
                raise ValueError(
                    "--set and --quick do not apply to --artifact (a "
                    "stored run is rendered as it was run)"
                )
            report = _artifact_report(args.artifact)
        else:
            report = _run_report(args)
    except (ValueError, TypeError, OSError) as exc:
        return _fail(exc)
    print(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(report + "\n")
        except OSError as exc:
            return _fail(exc)
        print(f"\nreport written to {args.out}")
    return 0


def _cmd_strategies(_args) -> int:
    rows = []
    for name in sorted(STRATEGIES):
        cls = STRATEGIES[name]
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        core = "core" if name in StrategyName.all() else "extension"
        rows.append([name, core, doc])
    print(render_table(["name", "kind", "summary"], rows))
    return 0


def _cmd_schedulers(_args) -> int:
    rows = []
    for name in SCHEDULER_NAMES:
        doc = (SCHEDULERS[name].__doc__ or "").strip().splitlines()[0]
        rows.append([name, doc])
    print(render_table(["name", "summary"], rows))
    return 0


def _cmd_scenarios(_args) -> int:
    rows = []
    for name in sorted(SCENARIOS):
        spec = SCENARIOS[name]
        knobs = [
            spec.strategy.name,
            spec.scheduler.name or "locality",
            spec.network.bandwidth_model or "slots",
            f"{spec.n_nodes}n",
        ]
        if spec.workload is not None:
            knobs.append(f"{spec.workload.n_tenants} tenants")
        if spec.faults:
            knobs.append(f"{len(spec.faults)} faults")
        # Compact capability column: which optional planes the scenario
        # exercises (observability / SLO judgement / elastic fleet).
        caps = "+".join(
            label
            for label, on in (
                ("obs", spec.observability.enabled),
                ("slo", spec.slo is not None and not spec.slo.empty),
                ("elastic", spec.elasticity.enabled),
            )
            if on
        )
        rows.append(
            [
                name,
                spec.surface,
                "/".join(knobs),
                caps or "-",
                spec.description,
            ]
        )
    print(
        render_table(
            ["name", "surface", "key knobs", "caps", "summary"],
            rows,
            title=(
                "named scenarios (repro.cli run/trace/analyze/sweep "
                "--scenario NAME)"
            ),
        )
    )
    return 0


def _cmd_sweep(args) -> int:
    try:
        base = load_spec(args, overrides={})
        axes = parse_overrides(args.overrides, axes=True)
        if not axes:
            raise ValueError("sweep needs at least one --set axis")
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        _check_output_paths(args.export)
        _check_store_dir(args.out)
        result = run_sweep(base, axes, quick=args.quick, jobs=args.jobs)
    except (ValueError, TypeError, OSError) as exc:
        return _fail(exc)
    print(result.render())
    errored = result.errored_cells()
    if errored:
        print(
            f"\nwarning: {len(errored)} of {len(result.cells)} cells "
            "errored (marked inline above)",
            file=sys.stderr,
        )
    if args.out:
        store = ResultStore(args.out)
        rev = current_git_rev()
        try:
            for cell in result.ok_cells():
                store.save(
                    cell.result,
                    overrides=cell.overrides,
                    git_rev=rev,
                    wall_time_s=cell.wall_time_s,
                )
        except OSError as exc:
            return _fail(exc)
        print(
            f"\n{len(result.ok_cells())} artifacts written to "
            f"store {args.out}"
        )
    if args.export:
        try:
            write_document(sweep_result_to_dict(result), args.export)
        except OSError as exc:
            return _fail(exc)
        print(f"\nsweep written to {args.export}")
    return 0


def _cmd_results(args) -> int:
    try:
        docs = ResultStore(args.store).list()
    except ValueError as exc:
        return _fail(exc)
    if not docs:
        print(f"error: no artifacts in {args.store}", file=sys.stderr)
        return 2
    rows = []
    for doc in docs:
        meta = doc.get("meta") or {}
        wall = meta.get("wall_time_s")
        # Pre-obs / pre-SLO artifacts simply show "-" in these columns.
        obs = doc.get("obs")
        if obs is not None:
            obs_label = f"{obs.get('n_events', 0)} ev"
            if doc.get("analysis") is not None:
                obs_label += "+an"
        else:
            obs_label = "-"
        slo_block = doc.get("slo")
        rows.append(
            [
                doc["key"],
                doc.get("name", "?"),
                doc.get("surface", "?"),
                f"{doc.get('metrics', {}).get('makespan_s', 0.0):.3f}",
                obs_label,
                slo_block.get("status", "?") if slo_block else "-",
                (doc.get("provenance") or {}).get("flow_solver") or "-",
                meta.get("git_rev") or "-",
                f"{wall:.2f}" if wall is not None else "-",
            ]
        )
    print(
        render_table(
            [
                "key", "scenario", "surface", "makespan (s)", "obs",
                "SLO", "flow solver", "rev", "wall (s)",
            ],
            rows,
            title=f"result store {args.store} -- {len(docs)} artifacts",
        )
    )
    return 0


def _cmd_diff(args) -> int:
    try:
        if os.path.isdir(args.a) and os.path.isdir(args.b):
            print(diff_stores(args.a, args.b).render())
            return 0
        if os.path.isfile(args.a) and os.path.isfile(args.b):
            doc_a = read_artifact(args.a, f"A ({args.a})")
            doc_b = read_artifact(args.b, f"B ({args.b})")
            print(
                diff_artifacts(
                    doc_a, doc_b, a_label=args.a, b_label=args.b
                ).render()
            )
            return 0
        raise ValueError(
            "diff takes two artifact files or two store directories "
            f"(got {args.a!r}, {args.b!r})"
        )
    except (ValueError, OSError) as exc:
        return _fail(exc)


def _cmd_elasticity(_args) -> int:
    rows = []
    for name in ELASTICITY_NAMES:
        doc = (ELASTICITY_POLICIES[name].__doc__ or "")
        rows.append([name, doc.strip().splitlines()[0]])
    print(
        render_table(
            ["policy", "summary"],
            rows,
            title=(
                "elastic autoscaling policies (--set "
                "elasticity.policy=POLICY with elasticity.enabled=true; "
                "docs/elasticity.md)"
            ),
        )
    )
    return 0


def _cmd_workloads(_args) -> int:
    rows = []
    for name in APPLICATION_NAMES:
        # Builders are lambdas; describe via the built DAG's shape.
        from repro.workload import TenantSpec

        wf = APPLICATIONS[name](TenantSpec(name="probe", application=name))
        rows.append([name, len(wf), len(wf.levels())])
    print(
        render_table(
            ["application", "tasks", "stages"],
            rows,
            title="workload applications",
        )
    )
    print()
    rows = []
    for name in ADMISSION_NAMES:
        doc = (ADMISSIONS[name].__doc__ or "").strip().splitlines()[0]
        rows.append([name, doc])
    print(
        render_table(
            ["admission policy", "summary"],
            rows,
            title="admission control",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "figures": _cmd_figures,
        "advise": _cmd_advise,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "analyze": _cmd_analyze,
        "sweep": _cmd_sweep,
        "results": _cmd_results,
        "diff": _cmd_diff,
        "strategies": _cmd_strategies,
        "schedulers": _cmd_schedulers,
        "workloads": _cmd_workloads,
        "elasticity": _cmd_elasticity,
        "scenarios": _cmd_scenarios,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
