"""SLO rule engine: declarative targets, post-run structured verdicts.

:class:`SLOSpec` is a sub-spec of
:class:`~repro.scenario.spec.ScenarioSpec` declaring service-level
objectives for a run; :func:`evaluate_slo` checks them against a
finished :class:`~repro.scenario.runner.ScenarioResult` and returns a
:class:`SLOReport` of per-rule verdicts (``met``/``violated``/
``skipped``, debt magnitude, first-violation simulated time).  The
report rides on ``ScenarioResult.slo`` and persists into
``repro.results`` artifacts; :func:`render_slo` renders its serialized
block for ``run`` and ``repro.cli analyze``, and ``diff`` and the sweep
SLO ranking show per-rule labels.

Like :class:`~repro.scenario.spec.ObservabilitySpec`, the SLO block is
a **lens, not an experiment input**: evaluation happens strictly after
the simulation, consumes no simulation RNG, and the block is excluded
from ``spec_hash()`` so runs differing only in their objectives share
one artifact key (re-judging a stored experiment does not orphan it).

Rule kinds (all optional; an empty spec evaluates to no rules):

- ``deadline_s`` -- the whole run's makespan must not exceed this;
  debt is the overshoot, first violation is ``start + deadline``.
- ``tenant_deadlines`` -- workload surface: every completed instance
  of the named tenant must respond (queue wait + execution) within
  its deadline; debt sums per-instance overshoots, first violation is
  the earliest ``submitted_at + deadline`` crossed.
- ``latency_targets`` -- ``(histogram, percentile, max_seconds)``
  checked against the live obs histograms (requires tracing; see the
  cross-field guard in ``ScenarioSpec.validate``).  A histogram with
  no samples yields ``skipped``, not a verdict.
- ``min_throughput_ops_s`` -- completed-op throughput floor over the
  run (surface-appropriate op count / makespan).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.util.checks import check_number

__all__ = ["SLORule", "SLOReport", "SLOSpec", "evaluate_slo", "render_slo"]


@dataclass(frozen=True)
class SLOSpec:
    """Declarative service-level objectives for one scenario.

    Attributes
    ----------
    deadline_s:
        Deadline on the run's overall makespan (seconds).
    tenant_deadlines:
        Workload surface only: ``(tenant, deadline_s)`` pairs bounding
        each completed instance's *response time* (admission wait +
        execution) for that tenant.
    latency_targets:
        ``(histogram, percentile, max_seconds)`` triples checked
        against the obs histograms (e.g. ``("registry.slot_wait_s",
        99, 0.5)``); requires ``observability.enabled``.
    min_throughput_ops_s:
        Floor on completed metadata-op throughput over the run.
    """

    deadline_s: Optional[float] = None
    tenant_deadlines: Tuple[Tuple[str, float], ...] = ()
    latency_targets: Tuple[Tuple[str, float, float], ...] = ()
    min_throughput_ops_s: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(
            self,
            "tenant_deadlines",
            tuple((str(t), float(d)) for t, d in self.tenant_deadlines),
        )
        object.__setattr__(
            self,
            "latency_targets",
            tuple(
                (str(h), float(q), float(s))
                for h, q, s in self.latency_targets
            ),
        )

    def validate(self) -> None:
        if self.deadline_s is not None:
            check_number("slo.deadline_s", self.deadline_s)
        seen = set()
        for tenant, deadline in self.tenant_deadlines:
            if not tenant:
                raise ValueError("slo.tenant_deadlines needs tenant names")
            if tenant in seen:
                raise ValueError(
                    f"slo.tenant_deadlines repeats tenant {tenant!r}"
                )
            seen.add(tenant)
            check_number(f"slo tenant deadline for {tenant!r}", deadline)
        for hist, q, target in self.latency_targets:
            if not hist:
                raise ValueError("slo.latency_targets needs histogram names")
            if not 0 < q <= 100:
                raise ValueError(
                    f"slo latency percentile must be in (0, 100], got {q}"
                )
            check_number("slo latency target", target)
        if self.min_throughput_ops_s is not None:
            check_number(
                "slo.min_throughput_ops_s", self.min_throughput_ops_s
            )

    @property
    def empty(self) -> bool:
        return self == SLOSpec()


@dataclass
class SLORule:
    """One evaluated objective."""

    rule: str  # e.g. "deadline", "tenant_deadline:t1", "latency:h:p99"
    target: float
    observed: Optional[float]
    status: str  # "met" | "violated" | "skipped"
    debt: float = 0.0  # violation magnitude (same unit as target)
    first_violation_at: Optional[float] = None  # simulated seconds
    note: str = ""

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def label(self) -> str:
        """Compact verdict string for diff/sweep cells."""
        if self.status == "violated":
            return f"violated (debt {self.debt:.3g})"
        return self.status


@dataclass
class SLOReport:
    """All rule verdicts for one run, plus the headline rollup."""

    rules: List[SLORule] = field(default_factory=list)

    @property
    def status(self) -> str:
        """``violated`` if any rule is, ``met`` if any rule was
        evaluated and none violated, ``skipped`` otherwise."""
        statuses = {r.status for r in self.rules}
        if "violated" in statuses:
            return "violated"
        if "met" in statuses:
            return "met"
        return "skipped"

    @property
    def total_debt(self) -> float:
        return sum(r.debt for r in self.rules)

    @property
    def n_violated(self) -> int:
        return sum(1 for r in self.rules if r.status == "violated")

    @property
    def first_violation_at(self) -> Optional[float]:
        times = [
            r.first_violation_at
            for r in self.rules
            if r.first_violation_at is not None
        ]
        return min(times) if times else None

    def to_dict(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "n_violated": self.n_violated,
            "total_debt": self.total_debt,
            "first_violation_at": self.first_violation_at,
            "rules": [r.to_dict() for r in self.rules],
        }


def render_slo(block: Dict[str, object]) -> str:
    """The SLO verdict line and rule table of a serialized ``slo``
    block (:meth:`SLOReport.to_dict`)."""
    from repro.experiments.reporting import render_table

    head = f"SLO verdict: {block.get('status', '?')}"
    if block.get("n_violated"):
        head += (
            f" ({block['n_violated']} rule(s) violated, total debt "
            f"{block.get('total_debt', 0.0):.3g}"
        )
        first = block.get("first_violation_at")
        if first is not None:
            head += f", first violation at t={first:.3g}s"
        head += ")"
    rows = []
    for rule in block.get("rules", []):
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


def _histogram_quantile(tracer, name: str, q: float):
    """(observed, note) from a live tracer's histogram, or (None, why)."""
    if tracer is None:
        return None, "run was not traced"
    hist = tracer.metrics.histograms.get(name)
    if hist is None:
        return None, f"histogram {name!r} not recorded"
    if hist.n == 0:
        return None, f"histogram {name!r} is empty"
    return float(hist.quantile(q)), ""


def _op_throughput(result) -> Optional[float]:
    """Completed-op throughput for any surface (None when unknown)."""
    res = result.result
    if result.surface == "synthetic":
        return float(res.throughput)
    if result.surface == "workload":
        return float(res.op_throughput())
    ops = getattr(res, "ops", None)
    makespan = float(result.makespan)
    if ops is None or makespan <= 0:
        return None
    return len(ops) / makespan


def evaluate_slo(slo: SLOSpec, result) -> SLOReport:
    """Judge a finished run against its objectives (pure, post-run).

    ``result`` is a :class:`~repro.scenario.runner.ScenarioResult`
    (duck-typed to avoid an import cycle).  Rules that cannot be
    evaluated (missing histogram, untraced run, no completed
    instances for a tenant) come back ``skipped`` with a note rather
    than raising -- a verdict must never kill a finished run.
    """
    res = result.result
    started_at = float(getattr(res, "started_at", 0.0))
    makespan = float(result.makespan)
    report = SLOReport()

    if slo.deadline_s is not None:
        violated = makespan > slo.deadline_s
        report.rules.append(
            SLORule(
                rule="deadline",
                target=slo.deadline_s,
                observed=makespan,
                status="violated" if violated else "met",
                debt=max(0.0, makespan - slo.deadline_s),
                first_violation_at=(
                    started_at + slo.deadline_s if violated else None
                ),
            )
        )

    if slo.tenant_deadlines:
        records = getattr(res, "records", None) or []
        by_tenant: Dict[str, list] = {}
        for r in records:
            by_tenant.setdefault(r.tenant, []).append(r)
        for tenant, deadline in slo.tenant_deadlines:
            rule = f"tenant_deadline:{tenant}"
            tenant_records = by_tenant.get(tenant)
            if not tenant_records:
                report.rules.append(
                    SLORule(
                        rule=rule,
                        target=deadline,
                        observed=None,
                        status="skipped",
                        note=f"no completed instances for {tenant!r}",
                    )
                )
                continue
            worst = max(r.response_time for r in tenant_records)
            late = [
                r for r in tenant_records if r.response_time > deadline
            ]
            debt = sum(r.response_time - deadline for r in late)
            report.rules.append(
                SLORule(
                    rule=rule,
                    target=deadline,
                    observed=worst,
                    status="violated" if late else "met",
                    debt=debt,
                    first_violation_at=(
                        min(r.submitted_at + deadline for r in late)
                        if late
                        else None
                    ),
                    note=(
                        f"{len(late)}/{len(tenant_records)} instances late"
                        if late
                        else ""
                    ),
                )
            )

    for hist, q, target in slo.latency_targets:
        rule = f"latency:{hist}:p{q:g}"
        observed, note = _histogram_quantile(result.tracer, hist, q)
        if observed is None:
            report.rules.append(
                SLORule(
                    rule=rule,
                    target=target,
                    observed=None,
                    status="skipped",
                    note=note,
                )
            )
            continue
        violated = observed > target
        report.rules.append(
            SLORule(
                rule=rule,
                target=target,
                observed=observed,
                status="violated" if violated else "met",
                debt=max(0.0, observed - target),
            )
        )

    if slo.min_throughput_ops_s is not None:
        observed = _op_throughput(result)
        if observed is None:
            report.rules.append(
                SLORule(
                    rule="throughput",
                    target=slo.min_throughput_ops_s,
                    observed=None,
                    status="skipped",
                    note="no op accounting on this surface",
                )
            )
        else:
            violated = observed < slo.min_throughput_ops_s
            report.rules.append(
                SLORule(
                    rule="throughput",
                    target=slo.min_throughput_ops_s,
                    observed=observed,
                    status="violated" if violated else "met",
                    debt=max(0.0, slo.min_throughput_ops_s - observed),
                )
            )

    return report
