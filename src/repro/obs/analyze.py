"""Trace analysis: observed critical paths, attribution, utilization.

Everything in this module is a **pure consumer** of a
:class:`~repro.obs.trace.Tracer`'s recorded events and spans: it reads
``tracer.spans``, ``tracer.events_of(category)`` for the point-event
categories it uses and ``tracer.dropped``, never ``tracer.events``
(which would turn every row of the log, kernel rows included).  It runs
after the simulation, touches no simulation RNG and schedules nothing,
so analyzed and non-analyzed runs of the same spec+seed produce
bit-for-bit identical scenario metrics (pinned by
``tests/obs/test_analyze.py``).

Three questions are answered from one trace:

- **Where did the time go?**  :func:`analyze_tracer` reconstructs the
  causal graph from the explicit-parentage spans (``task`` spans with
  ``stage``/``compute``/``publish``/``ops`` children, keyed by their
  ``run`` tag) and walks the *observed* critical path of each workflow
  backwards from its last-finishing task.  Each path step is decomposed
  into attribution buckets (:data:`ATTRIBUTION_BUCKETS`) that
  **partition the observed makespan exactly** -- the buckets of a
  workflow sum to ``finished_at - window_start`` by construction.  This
  complements the static ``Workflow.critical_path_time()`` lower bound
  with what actually happened under contention.
- **Which resource was busy?**  Per-site VM-occupancy and per-link
  busy-flow step timelines with peak/mean/idle-fraction summaries
  (:func:`concurrency_profile`), plus per-site registry slot-wait
  totals from ``registry/slot_wait`` events.
- **Is anything on fire?**  ``hottest_site()``/``hottest_link()`` rank
  by busy time; the SLO rule engine proper lives in
  :mod:`repro.scenario.slo` and consumes this module's output.

Degenerate inputs are sentinels, not errors: an empty tracer (or one
recorded without the ``span`` category) yields a :class:`RunAnalysis`
with no workflows and empty utilization maps, and
:func:`concurrency_profile` returns an all-zero summary for an empty
interval list or a zero-length window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ATTRIBUTION_BUCKETS",
    "PathStep",
    "RunAnalysis",
    "UtilizationSummary",
    "WorkflowAnalysis",
    "analyze_tracer",
    "capacity_timeline",
    "concurrency_profile",
]

#: The attribution buckets a workflow's observed makespan is split into.
#: They partition the makespan exactly (sum == makespan):
#:
#: - ``compute``         -- CPU time on the critical path (compute spans
#:                          plus the interleaved think slices of ``ops``);
#: - ``metadata``        -- registry operation time on the path (staging
#:                          resolution, output publication, extra ops),
#:                          *including* RPC legs and registry slot waits;
#: - ``wan_transfer``    -- scheduler-induced staging: WAN byte movement
#:                          while the path task stages its inputs;
#: - ``admission_wait``  -- time the instance queued at admission control
#:                          before its first path task could start;
#: - ``dependency_wait`` -- gaps between consecutive path tasks (waiting
#:                          on off-path parents, VM queueing);
#: - ``overhead``        -- residual task-span time not covered by any
#:                          child span (engine bookkeeping; ~0).
ATTRIBUTION_BUCKETS: Tuple[str, ...] = (
    "compute",
    "metadata",
    "wan_transfer",
    "admission_wait",
    "dependency_wait",
    "overhead",
)

_EPS = 1e-9

#: The child spans of a ``task`` span that its time is split across.
_TASK_PARTS = frozenset(("stage", "compute", "publish", "ops"))

#: Max points persisted per utilization timeline in ``to_dict()``.
_MAX_SERIES_POINTS = 512


@dataclass
class PathStep:
    """One task on an observed critical path, with its time split."""

    task: str
    vm: str
    site: str
    start: float
    end: float
    wait_before: float  # gap since the previous path task finished
    compute: float
    metadata: float
    wan_transfer: float
    overhead: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "task": self.task,
            "vm": self.vm,
            "site": self.site,
            "start": self.start,
            "end": self.end,
            "wait_before": self.wait_before,
            "compute": self.compute,
            "metadata": self.metadata,
            "wan_transfer": self.wan_transfer,
            "overhead": self.overhead,
        }


@dataclass
class WorkflowAnalysis:
    """Observed critical path + attribution for one workflow run."""

    run: str
    window_start: float  # submit time when known, else first task start
    finished_at: float
    n_tasks: int
    path: List[PathStep]
    buckets: Dict[str, float]

    @property
    def makespan(self) -> float:
        return self.finished_at - self.window_start

    def dominant_bucket(self) -> str:
        """The bucket holding the largest share of the makespan."""
        return max(
            ATTRIBUTION_BUCKETS, key=lambda b: self.buckets.get(b, 0.0)
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "run": self.run,
            "window_start": self.window_start,
            "finished_at": self.finished_at,
            "makespan": self.makespan,
            "n_tasks": self.n_tasks,
            "buckets": dict(self.buckets),
            "path": [s.to_dict() for s in self.path],
        }


@dataclass
class UtilizationSummary:
    """Step-timeline summary for one site (VM occupancy) or link
    (concurrent WAN flows).  ``series`` is the ``(t, level)`` step
    function; empty input leaves every field at its zero sentinel."""

    key: str
    kind: str  # "site" | "link"
    peak: int = 0
    mean: float = 0.0
    busy_s: float = 0.0
    idle_fraction: float = 1.0
    n_intervals: int = 0
    vms_seen: int = 0  # sites only
    bytes: float = 0.0  # links only
    series: List[Tuple[float, int]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        series = self.series
        if len(series) > _MAX_SERIES_POINTS:
            stride = -(-len(series) // _MAX_SERIES_POINTS)
            series = series[::stride]
        doc: Dict[str, object] = {
            "key": self.key,
            "kind": self.kind,
            "peak": self.peak,
            "mean": round(self.mean, 6),
            "busy_s": round(self.busy_s, 6),
            "idle_fraction": round(self.idle_fraction, 6),
            "n_intervals": self.n_intervals,
            "series": [[t, v] for t, v in series],
        }
        if self.kind == "site":
            doc["vms_seen"] = self.vms_seen
        else:
            doc["bytes"] = self.bytes
        return doc


def concurrency_profile(
    intervals: Sequence[Tuple[float, float]],
    window: Tuple[float, float],
) -> Tuple[List[Tuple[float, int]], int, float, float]:
    """Sweep ``[start, end)`` intervals into a concurrency step function.

    Returns ``(series, peak, mean, busy_s)`` where ``series`` is the
    ``(t, level)`` step function over ``window``, ``mean`` is the
    time-weighted average level and ``busy_s`` the time with at least
    one interval active.  **Sentinel:** an empty interval list or a
    zero-length window returns ``([], 0, 0.0, 0.0)`` rather than
    raising.
    """
    start, end = window
    if not intervals or end - start <= _EPS:
        return [], 0, 0.0, 0.0
    starts: List[float] = []
    ends: List[float] = []
    for s, e in intervals:
        if e < s:
            s, e = e, s
        # Clamped into the window as ``min(max(x, start), end)`` would.
        if start > s:
            s = start
        if end < s:
            s = end
        if start > e:
            e = start
        if end < e:
            e = end
        starts.append(s)
        ends.append(e)
    starts.sort()
    ends.sort()
    series: List[Tuple[float, int]] = []
    last_t = None  # the instant of ``series[-1]``
    level = 0
    peak = 0
    prev_t = start
    area = 0.0
    busy = 0.0
    n = len(starts)
    i = j = 0
    # Merge the two sorted lists, taking an end before a start at equal
    # t: the order a sort of ``(t, +1)``/``(t, -1)`` tuples gives, so
    # every level, area and busy sum is the same float.
    for _ in range(2 * n):
        if i < n and (j == n or starts[i] < ends[j]):
            t = starts[i]
            i += 1
            step = 1
        else:
            t = ends[j]
            j += 1
            step = -1
        if t > prev_t:
            area += level * (t - prev_t)
            if level > 0:
                busy += t - prev_t
            prev_t = t
        level += step
        if level > peak:
            peak = level
        if t == last_t:
            series[-1] = (t, level)
        else:
            series.append((t, level))
            last_t = t
    if end > prev_t:
        area += level * (end - prev_t)
        if level > 0:
            busy += end - prev_t
    return series, peak, area / (end - start), busy


@dataclass
class RunAnalysis:
    """Everything :func:`analyze_tracer` extracts from one trace."""

    workflows: List[WorkflowAnalysis]
    sites: Dict[str, UtilizationSummary]
    links: Dict[str, UtilizationSummary]
    registry_wait: Dict[str, Dict[str, float]]
    window: Tuple[float, float]
    complete: bool  # False when the tracer dropped events (budget hit)

    @property
    def buckets(self) -> Dict[str, float]:
        """Attribution buckets summed across all analyzed workflows."""
        total = {b: 0.0 for b in ATTRIBUTION_BUCKETS}
        for wf in self.workflows:
            for b in ATTRIBUTION_BUCKETS:
                total[b] += wf.buckets.get(b, 0.0)
        return total

    def hottest_site(self) -> Optional[str]:
        """The site with the most VM-busy time (None when untracked)."""
        if not self.sites:
            return None
        return max(self.sites, key=lambda k: (self.sites[k].busy_s, k))

    def hottest_link(self) -> Optional[str]:
        """The link with the most flow-busy time (None when untracked)."""
        if not self.links:
            return None
        return max(self.links, key=lambda k: (self.links[k].busy_s, k))

    def to_dict(self) -> Dict[str, object]:
        return {
            "window": [self.window[0], self.window[1]],
            "complete": self.complete,
            "buckets": self.buckets,
            "hottest_site": self.hottest_site(),
            "hottest_link": self.hottest_link(),
            "workflows": [wf.to_dict() for wf in self.workflows],
            "sites": {
                k: v.to_dict() for k, v in sorted(self.sites.items())
            },
            "links": {
                k: v.to_dict() for k, v in sorted(self.links.items())
            },
            "registry_wait": {
                k: dict(v) for k, v in sorted(self.registry_wait.items())
            },
        }


def _decompose_task(span, children) -> Dict[str, float]:
    """Split one task span's duration into compute/metadata/transfer/
    overhead using its child spans' recorded attributions.  The four
    parts sum exactly to the span duration (``overhead`` absorbs the
    residual, clamped at zero against float error)."""
    compute = metadata = transfer = 0.0
    for c in children:
        if c.end is None:
            continue
        cdur = c.end - c.start
        args = c.args or {}
        if c.name == "stage":
            metadata += float(args.get("metadata_s", 0.0))
            transfer += float(args.get("transfer_s", cdur))
        elif c.name == "compute":
            compute += cdur
        elif c.name == "publish":
            metadata += float(args.get("metadata_s", cdur))
        elif c.name == "ops":
            ops_compute = float(args.get("compute_s", 0.0))
            compute += ops_compute
            metadata += float(
                args.get("metadata_s", max(0.0, cdur - ops_compute))
            )
    duration = span.end - span.start
    overhead = max(0.0, duration - compute - metadata - transfer)
    return {
        "compute": compute,
        "metadata": metadata,
        "wan_transfer": transfer,
        "overhead": overhead,
    }


def _critical_path(tasks) -> List[object]:
    """Walk backwards from the last-finishing task span, at each step
    hopping to the latest-finishing span that ended before the current
    one started -- the observed analogue of the DAG critical path.
    Ties break on (end, start, id) so the path is deterministic."""
    cur = max(tasks, key=lambda s: (s.end, s.start, s.id))
    path = [cur]
    on_path = {cur.id}
    while True:
        preds = [
            s
            for s in tasks
            if s.id not in on_path and s.end <= cur.start + _EPS
        ]
        if not preds:
            break
        cur = max(preds, key=lambda s: (s.end, s.start, s.id))
        on_path.add(cur.id)
        path.append(cur)
    path.reverse()
    return path


def _analyze_workflow(
    run: str,
    tasks,
    by_parent: Dict[int, list],
    submit_ts: Optional[float],
    admit_wait: float,
) -> WorkflowAnalysis:
    path_spans = _critical_path(tasks)
    window_start = (
        submit_ts
        if submit_ts is not None
        else min(s.start for s in tasks)
    )
    finished_at = max(s.end for s in tasks)
    # Admission wait cannot exceed the head room before the first path
    # task (it never does in practice; the clamp keeps the partition
    # exact even for hand-built traces).
    admission = min(
        max(0.0, admit_wait), max(0.0, path_spans[0].start - window_start)
    )
    buckets = {b: 0.0 for b in ATTRIBUTION_BUCKETS}
    buckets["admission_wait"] = admission
    prev_end = window_start + admission
    steps: List[PathStep] = []
    for s in path_spans:
        wait = max(0.0, s.start - prev_end)
        parts = _decompose_task(s, by_parent.get(s.id, ()))
        args = s.args or {}
        steps.append(
            PathStep(
                task=str(args.get("task", "")),
                vm=str(args.get("vm", "")),
                site=str(args.get("site", "")),
                start=s.start,
                end=s.end,
                wait_before=wait,
                **parts,
            )
        )
        buckets["dependency_wait"] += wait
        for k in ("compute", "metadata", "wan_transfer", "overhead"):
            buckets[k] += parts[k]
        prev_end = s.end
    # The decomposition telescopes: admission + per-step (wait + span
    # duration splits) covers [window_start, finished_at] exactly.
    return WorkflowAnalysis(
        run=run,
        window_start=window_start,
        finished_at=finished_at,
        n_tasks=len(tasks),
        path=steps,
        buckets=buckets,
    )


def analyze_tracer(tracer) -> RunAnalysis:
    """Build a :class:`RunAnalysis` from a finished run's tracer.

    Reads only ``tracer.spans``, ``tracer.events_of("workload")``,
    ``tracer.events_of("registry")`` and ``tracer.dropped`` -- never
    the environment, and never the whole ``tracer.events`` list -- so
    it can run on a live tracer or on any object with those three
    members, and a traced run never turns its kernel rows into
    event tuples.  Unfinished spans are skipped.
    """
    # One pass over the spans: the window, the task and transfer spans,
    # and each task's parts by parent id (the only children
    # ``_decompose_task`` reads).
    task_spans = []
    transfer_spans = []
    by_parent: Dict[int, list] = {}
    lo = hi = None
    for s in tracer.spans:
        end = s.end
        if end is None:
            continue
        start = s.start
        if lo is None:
            lo, hi = start, end
        else:
            if start < lo:
                lo = start
            if end > hi:
                hi = end
        name = s.name
        if name == "task":
            task_spans.append(s)
        elif name == "transfer":
            transfer_spans.append(s)
        elif name in _TASK_PARTS and s.parent is not None:
            by_parent.setdefault(s.parent, []).append(s)
    window = (0.0, 0.0) if lo is None else (lo, hi)

    # Workload correlation: submit times and admission waits by run tag.
    submit_ts: Dict[str, float] = {}
    admit_wait: Dict[str, float] = {}
    for ts, _, name, args in tracer.events_of("workload"):
        if not args:
            continue
        run = str(args.get("run", ""))
        if name == "submit":
            submit_ts.setdefault(run, ts)
        elif name == "admit":
            admit_wait[run] = float(args.get("wait", 0.0))

    groups: Dict[str, list] = {}
    for s in task_spans:
        groups.setdefault(str((s.args or {}).get("run", "")), []).append(s)
    workflows = [
        _analyze_workflow(
            run,
            tasks,
            by_parent,
            submit_ts.get(run),
            admit_wait.get(run, 0.0),
        )
        for run, tasks in sorted(groups.items())
    ]

    # Per-site VM occupancy from task spans.
    sites: Dict[str, UtilizationSummary] = {}
    site_intervals: Dict[str, List[Tuple[float, float]]] = {}
    site_vms: Dict[str, set] = {}
    for s in task_spans:
        args = s.args or {}
        site = str(args.get("site", ""))
        site_intervals.setdefault(site, []).append((s.start, s.end))
        site_vms.setdefault(site, set()).add(args.get("vm"))
    for site, intervals in site_intervals.items():
        series, peak, mean, busy = concurrency_profile(intervals, window)
        span_len = window[1] - window[0]
        sites[site] = UtilizationSummary(
            key=site,
            kind="site",
            peak=peak,
            mean=mean,
            busy_s=busy,
            idle_fraction=(
                1.0 - busy / span_len if span_len > _EPS else 1.0
            ),
            n_intervals=len(intervals),
            vms_seen=len(site_vms[site]),
            series=series,
        )

    # Per-link busy time from WAN transfer spans (directional).
    links: Dict[str, UtilizationSummary] = {}
    link_intervals: Dict[str, List[Tuple[float, float]]] = {}
    link_bytes: Dict[str, float] = {}
    for s in transfer_spans:
        args = s.args or {}
        src, dst = args.get("src"), args.get("dst")
        if src is None or dst is None or src == dst:
            continue
        key = f"{src}->{dst}"
        link_intervals.setdefault(key, []).append((s.start, s.end))
        link_bytes[key] = link_bytes.get(key, 0.0) + float(
            args.get("size", 0.0)
        )
    for key, intervals in link_intervals.items():
        series, peak, mean, busy = concurrency_profile(intervals, window)
        span_len = window[1] - window[0]
        links[key] = UtilizationSummary(
            key=key,
            kind="link",
            peak=peak,
            mean=mean,
            busy_s=busy,
            idle_fraction=(
                1.0 - busy / span_len if span_len > _EPS else 1.0
            ),
            n_intervals=len(intervals),
            bytes=link_bytes[key],
            series=series,
        )

    # Registry slot-wait pressure by site (queueing at saturated
    # registry instances; uncorrelated with tasks by design).
    registry_wait: Dict[str, Dict[str, float]] = {}
    for _, _, name, args in tracer.events_of("registry"):
        if name != "slot_wait" or not args:
            continue
        site = str(args.get("site", ""))
        wait = float(args.get("wait", 0.0))
        entry = registry_wait.setdefault(
            site, {"total_s": 0.0, "count": 0, "max_s": 0.0}
        )
        entry["total_s"] += wait
        entry["count"] += 1
        entry["max_s"] = max(entry["max_s"], wait)

    return RunAnalysis(
        workflows=workflows,
        sites=sites,
        links=links,
        registry_wait=registry_wait,
        window=window,
        complete=tracer.dropped == 0,
    )


def capacity_timeline(tracer) -> Dict[str, List[Tuple[float, int]]]:
    """Per-site placeable-VM step series from ``elastic`` trace events.

    Reads the elastic control plane's capacity transitions -- the
    ``fleet`` baseline emitted at controller start plus every
    ``vm_provisioned``/``scale_down`` event (the moments the *placeable*
    count changes; draining VMs leave placement immediately, so
    decommissions do not move this series) -- and returns
    ``site -> [(t, vms), ...]`` sorted by time.  Empty when the run had
    no elastic controller or the category was not recorded.
    """
    out: Dict[str, List[Tuple[float, int]]] = {}
    for ts, _, _, args in tracer.events_of("elastic"):
        if not args or "vms" not in args:
            continue
        out.setdefault(str(args.get("site", "")), []).append(
            (ts, int(args["vms"]))
        )
    for series in out.values():
        series.sort(key=lambda p: p[0])
    return out
