"""The elastic controller: sample signals, decide, actuate with friction.

:class:`ElasticController` is a background simulation process started
by the scenario runner when ``ElasticitySpec.enabled``.  Every
``interval_s`` it:

1. retires any draining VM whose last placed task has finished
   (closing its vm-seconds ledger entry);
2. samples a :class:`~repro.elastic.policies.SignalSnapshot` from the
   scheduler's ``ClusterView`` and the workload layer's
   :class:`ElasticSignals`;
3. asks its :class:`~repro.elastic.policies.ElasticityPolicy` for
   scale actions and executes them -- scale-ups land ``lag_s`` later
   (and then run degraded for ``warmup_s``); scale-downs remove the
   VMs from the placeable fleet immediately but let placed work finish.

Every change to a site's placeable count (the baseline, a landing, a
drain start) is appended to the report's capacity timeline, traced or
not.

A per-site cooldown (``cooldown_s``) rate-limits actuation on top of
whatever hysteresis the policy applies.  The controller holds no RNG
and samples only deterministic state, so identical spec + seed replay
an identical action sequence; with elasticity disabled it is never
constructed at all.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.elastic.policies import (
    ElasticityPolicy,
    FleetView,
    SignalSnapshot,
    make_elasticity_policy,
)
from repro.elastic.report import ElasticReport
from repro.obs.trace import NULL_TRACER

__all__ = ["ElasticController", "ElasticSignals"]


class ElasticSignals:
    """Live workload counters the controller samples each interval.

    The workload runner calls the ``on_*`` hooks as instances move
    through submit -> admit -> complete; the controller reads the
    counters and the accrued deadline debt.  Pure bookkeeping: no
    events, no RNG, so attaching one cannot perturb a run.
    """

    __slots__ = (
        "submitted",
        "admitted",
        "completed",
        "waiting_admission",
        "_deadlines",
        "_run_deadline",
        "_due",
        "_accrued_debt",
    )

    def __init__(
        self,
        tenant_deadlines: Mapping[str, float] = (),
        run_deadline_s: Optional[float] = None,
    ):
        self.submitted = 0
        self.admitted = 0
        self.completed = 0
        self.waiting_admission = 0
        self._deadlines = dict(tenant_deadlines)
        self._run_deadline = run_deadline_s
        self._due: Dict[str, float] = {}  # in-flight instance -> due time
        self._accrued_debt = 0.0

    def on_submit(self, key: str, tenant: str, now: float) -> None:
        self.submitted += 1
        self.waiting_admission += 1
        deadline = self._deadlines.get(tenant)
        if deadline is not None:
            self._due[key] = now + deadline

    def on_admit(self) -> None:
        self.admitted += 1
        self.waiting_admission -= 1

    def on_complete(self, key: str, now: float) -> None:
        self.completed += 1
        due = self._due.pop(key, None)
        if due is not None and now > due:
            self._accrued_debt += now - due

    def debt(self, now: float) -> float:
        """Deadline debt accrued by ``now``: closed overshoots of
        completed instances plus the live overshoot of in-flight ones
        (and of the whole run, under a run-level deadline)."""
        debt = self._accrued_debt
        for due in self._due.values():
            if now > due:
                debt += now - due
        if self._run_deadline is not None and now > self._run_deadline:
            debt += now - self._run_deadline
        return debt


class ElasticController:
    """Watches one run and resizes the deployment's fleet.

    Parameters
    ----------
    deployment:
        The fleet to act on (via ``add_vms``/``drain_vms``/``retire_vm``).
    cluster:
        The engine's live :class:`~repro.scheduling.ClusterView` --
        per-site queue depths and per-tenant in-flight counts.
    spec:
        The scenario's ``ElasticitySpec`` (duck-typed; this package
        layers below ``repro.scenario``).
    signals:
        Workload-layer counters; ``None`` on the workflow surface
        (admission backlog and arrival rate then read as zero).
    tracer:
        Scale decisions and VM lifecycle transitions are emitted under
        the ``elastic`` category; ``None`` falls back to the null
        tracer.
    """

    def __init__(
        self,
        deployment,
        cluster,
        spec,
        signals: Optional[ElasticSignals] = None,
        tracer=None,
    ):
        self.deployment = deployment
        self.cluster = cluster
        self.spec = spec
        self.signals = signals
        self.policy: ElasticityPolicy = make_elasticity_policy(
            spec.policy, spec
        )
        self.report = ElasticReport(policy=self.policy.name)
        tr = tracer if tracer is not None else NULL_TRACER
        self._tracer = tr
        self._trace = tr.enabled and tr.wants("elastic")
        self._env = deployment.env
        self._pending: Dict[str, int] = {}  # site -> VMs ordered, in lag
        self._cooldown_until: Dict[str, float] = {}
        self._awaiting_retire: List = []  # draining VMs we watch

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Record the baseline fleet and begin the control loop."""
        n = len(self.deployment.workers)
        self.report.fleet_initial = n
        self.report.fleet_peak = n
        for site in self.deployment.sites:
            vms = self._record_capacity(site)
            if self._trace:
                self._tracer.emit("elastic", "fleet", site=site, vms=vms)
        self._env.process(self._loop(), name="elastic-controller")

    def _loop(self):
        interval = self.spec.interval_s
        while True:
            yield interval
            self._finalize_drains()
            snap = self._sample()
            fleet = self._fleet_view()
            now = self._env.now
            for action in self.policy.decide(snap, fleet):
                if now < self._cooldown_until.get(action.site, 0.0):
                    continue
                if action.delta > 0:
                    self._order_scale_up(action.site, action.delta)
                else:
                    self._start_drain(action.site, -action.delta)
                self._cooldown_until[action.site] = (
                    now + self.spec.cooldown_s
                )

    # -- sensing ----------------------------------------------------------

    def _sample(self) -> SignalSnapshot:
        sig = self.signals
        now = self._env.now
        return SignalSnapshot(
            now=now,
            site_load={
                site: self.cluster.site_load(site)
                for site in self.deployment.sites
            },
            admission_backlog=sig.waiting_admission if sig else 0,
            submitted_total=sig.submitted if sig else 0,
            slo_debt_s=sig.debt(now) if sig else 0.0,
            tenant_load=dict(self.cluster.tenant_load),
        )

    def _fleet_view(self) -> FleetView:
        return FleetView(
            vms={
                site: len(self.deployment.workers_at(site))
                for site in self.deployment.sites
            },
            pending=dict(self._pending),
            draining={
                site: sum(
                    1 for vm in self.deployment.draining
                    if vm.site == site
                )
                for site in self.deployment.sites
            },
            min_vms=self.spec.min_vms_per_site,
            max_vms=self.spec.max_vms_per_site,
        )

    # -- actuation ---------------------------------------------------------

    def _order_scale_up(self, site: str, count: int) -> None:
        now = self._env.now
        self.report.actions.append((now, site, count))
        self._pending[site] = self._pending.get(site, 0) + count
        if self._trace:
            self._tracer.emit(
                "elastic",
                "scale_up",
                site=site,
                delta=count,
                lag_s=self.spec.lag_s,
            )
        self._env.process(
            self._provision(site, count), name=f"elastic-provision-{site}"
        )

    def _provision(self, site: str, count: int):
        yield self.spec.lag_s
        self.deployment.add_vms(
            site,
            count,
            warm_s=self.spec.warmup_s,
            warmup_factor=self.spec.warmup_factor,
        )
        self._pending[site] -= count
        fleet = len(self.deployment.workers)
        if fleet > self.report.fleet_peak:
            self.report.fleet_peak = fleet
        vms = self._record_capacity(site)
        if self._trace:
            self._tracer.emit(
                "elastic", "vm_provisioned", site=site, delta=count, vms=vms
            )

    def _start_drain(self, site: str, count: int) -> None:
        now = self._env.now
        drained = self.deployment.drain_vms(site, count)
        self.report.actions.append((now, site, -count))
        self._awaiting_retire.extend(drained)
        vms = self._record_capacity(site)
        if self._trace:
            self._tracer.emit(
                "elastic", "scale_down", site=site, delta=-count, vms=vms
            )
        # An already-idle VM retires right away instead of waiting one
        # control interval for the next sweep.
        self._finalize_drains()

    def _record_capacity(self, site: str) -> int:
        """Append ``site``'s placeable count now to the capacity
        timeline and return it."""
        vms = len(self.deployment.workers_at(site))
        self.report.capacity_timeline.setdefault(site, []).append(
            (self._env.now, vms)
        )
        return vms

    def _finalize_drains(self) -> None:
        still_busy = []
        for vm in self._awaiting_retire:
            if self.cluster.vm_load.get(vm.name, 0) == 0:
                self.deployment.retire_vm(vm)
                if self._trace:
                    self._tracer.emit(
                        "elastic",
                        "vm_decommissioned",
                        site=vm.site,
                        vm=vm.name,
                    )
            else:
                still_busy.append(vm)
        self._awaiting_retire = still_busy

    # -- reporting ---------------------------------------------------------

    def finalize(self) -> ElasticReport:
        """Close the ledger at run end and return the report."""
        self._finalize_drains()
        report = self.report
        report.fleet_final = len(self.deployment.workers)
        report.stranded_tasks = sum(
            self.cluster.vm_load.get(vm.name, 0)
            for vm in self.deployment.draining
        )
        report.vm_seconds_by_site = self.deployment.vm_seconds_by_site()
        rates = dict(self.spec.cost_rates)
        by_class: Dict[str, float] = {}
        for site, secs in report.vm_seconds_by_site.items():
            cls = self.deployment.topology.get(site).region.name
            by_class[cls] = by_class.get(cls, 0.0) + secs * rates.get(
                cls, 1.0
            )
        report.cost_by_class = by_class
        return report
