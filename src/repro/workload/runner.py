"""The workload runner: many workflows, one shared deployment.

A :class:`WorkloadRunner` owns one
:class:`~repro.workflow.engine.WorkflowEngine` and drives every workflow
instance of a :class:`~repro.workload.spec.WorkloadSpec` through
``engine.execute()`` *concurrently* -- one environment, one network, one
metadata strategy, one placement policy.  That sharing is the point:

- the placement policy is a single instance, so cluster-scoped state
  (the bandwidth-aware pending-bytes ledger, round-robin cursors) sees
  *all* tenants' placements, while per-run bookkeeping stays
  workflow-scoped because task ids are namespaced per instance;
- per-VM load counters aggregate every tenant's tasks, so policies
  queue-balance against the real cluster load;
- op attribution relies on the engine's run tags (one per ``execute``),
  not list positions, so interleaved runs report exact per-workflow op
  snapshots.

Admission control sits between submission and execution; the wait is
accounted per instance (``queue_wait``) and never consumes RNG.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Union

from repro.sim import AllOf
from repro.cloud.deployment import Deployment
from repro.metadata.strategies.base import MetadataStrategy
from repro.obs import NULL_TRACER
from repro.scheduling import PlacementPolicy, TenantContext
from repro.storage.transfer import TransferService
from repro.workflow.engine import WorkflowEngine
from repro.workload.admission import (
    AdmissionController,
    make_admission,
)
from repro.workload.generators import WorkflowInstance, generate_instances
from repro.workload.result import InstanceRecord, WorkloadResult
from repro.workload.spec import TenantSpec, WorkloadSpec

__all__ = ["WorkloadRunner"]


class WorkloadRunner:
    """Concurrent multi-workflow execution over one shared deployment.

    Parameters
    ----------
    deployment / strategy:
        The shared substrate every tenant contends for.
    scheduler:
        Placement policy name or instance for the shared engine
        (``None``: ``"locality"``; see
        :class:`~repro.workflow.engine.WorkflowEngine`).
    admission:
        Admission controller instance or registry name; a name is built
        with its constructor defaults, and ``None`` means
        ``"unbounded"``.  A scenario run builds the controller from its
        spec's admission fields and passes it in.
    transfer:
        Optional shared :class:`~repro.storage.transfer.TransferService`
        (the engine builds one otherwise).
    elastic_signals:
        Optional :class:`~repro.elastic.controller.ElasticSignals` the
        runner feeds as instances move through submit -> admit ->
        complete (the elastic control plane's workload sensors).  Pure
        bookkeeping; ``None`` costs nothing.
    """

    def __init__(
        self,
        deployment: Deployment,
        strategy: MetadataStrategy,
        scheduler: Optional[Union[str, PlacementPolicy]] = None,
        admission: Optional[Union[str, AdmissionController]] = None,
        transfer: Optional[TransferService] = None,
        elastic_signals=None,
    ):
        self.deployment = deployment
        self.env = deployment.env
        self.strategy = strategy
        self.engine = WorkflowEngine(
            deployment, strategy, transfer=transfer, scheduler=scheduler
        )
        if admission is None:
            admission = "unbounded"
        self.admission = (
            admission
            if isinstance(admission, AdmissionController)
            else make_admission(admission, self.env)
        )
        self.elastic_signals = elastic_signals
        # Observability: instance arrival/admission/completion under
        # "workload", with an admission-wait histogram.  ("reject" is
        # reserved in the taxonomy; no controller drops work today.)
        tr = getattr(self.env, "tracer", None) or NULL_TRACER
        self._tracer = tr
        self._trace_wl = tr.enabled and tr.wants("workload")
        self._h_admit = (
            tr.metrics.histogram("workload.admission_wait_s")
            if self._trace_wl
            else None
        )
        self._in_flight = 0
        self._peak_in_flight = 0
        # run() call counter: sequential specs on one runner get their
        # instances re-namespaced per epoch, so neither file/task keys
        # nor op-run tags ever collide with an earlier spec's.
        self._epoch = 0

    # -- public API --------------------------------------------------------

    def run(self, spec: WorkloadSpec) -> WorkloadResult:
        """Execute the whole workload; returns its result.

        Drives the deployment's environment until every tenant's last
        instance completes.  One runner may execute several specs
        sequentially: each ``run`` call is an *epoch*, and repeat
        epochs re-namespace their instances (``r<epoch>/...``) so a
        later spec never reuses an earlier one's file/task keys or
        op-run tags -- metrics windows never overlap and attribution
        stays exact.
        """
        spec.validate()
        self._epoch += 1
        plan = generate_instances(spec)
        records: List[InstanceRecord] = []
        ops_before = len(self.strategy.stats)
        wan_before = self.engine.transfer.wan_bytes
        self._peak_in_flight = 0
        started = self.env.now

        procs = []
        for tenant in spec.tenants:
            instances = plan[tenant.name]
            if spec.mode == "closed":
                procs.append(
                    self.env.process(
                        self._closed_loop(tenant, instances, records),
                        name=f"tenant-{tenant.name}",
                    )
                )
            else:
                procs.extend(
                    self.env.process(
                        self._open_arrival(
                            tenant, inst, started, records
                        ),
                        name=f"workload-{inst.namespace}",
                    )
                    for inst in instances
                )
        self.env.run(until=AllOf(self.env, procs))

        return WorkloadResult(
            name=spec.name,
            strategy=self.strategy.name,
            scheduler=self.engine.policy.name,
            admission=self.admission.name,
            mode=spec.mode,
            records=sorted(
                records, key=lambda r: (r.submitted_at, r.run)
            ),
            started_at=started,
            finished_at=self.env.now,
            peak_in_flight=self._peak_in_flight,
            admission_bound=self.admission.bound,
            total_ops=len(self.strategy.stats) - ops_before,
            wan_bytes=self.engine.transfer.wan_bytes - wan_before,
        )

    # -- tenant processes --------------------------------------------------

    def _closed_loop(
        self,
        tenant: TenantSpec,
        instances: List[WorkflowInstance],
        records: List[InstanceRecord],
    ) -> Generator:
        """One workflow in flight per tenant, think time between them."""
        for i, inst in enumerate(instances):
            yield from self._submit(tenant, inst, records)
            if tenant.think_time > 0 and i + 1 < len(instances):
                yield tenant.think_time

    def _open_arrival(
        self,
        tenant: TenantSpec,
        inst: WorkflowInstance,
        started: float,
        records: List[InstanceRecord],
    ) -> Generator:
        """Submit one instance at its precomputed arrival offset."""
        at = started + (inst.arrival_offset or 0.0)
        if at > self.env.now:
            yield at - self.env.now
        yield from self._submit(tenant, inst, records)

    def _submit(
        self,
        tenant: TenantSpec,
        inst: WorkflowInstance,
        records: List[InstanceRecord],
    ) -> Generator:
        workflow, run_tag = inst.workflow, inst.namespace
        if self._epoch > 1:
            # Repeat epoch on a deployment that already saw these keys:
            # push the whole instance under a fresh prefix.
            workflow = workflow.namespaced(f"r{self._epoch}")
            run_tag = f"r{self._epoch}/{inst.namespace}"
        submitted = self.env.now
        signals = self.elastic_signals
        if self._trace_wl:
            self._tracer.emit(
                "workload", "submit", tenant=tenant.name, run=run_tag
            )
        if signals is not None:
            signals.on_submit(run_tag, tenant.name, submitted)
        token = yield from self.admission.admit(tenant.name)
        admitted = self.env.now
        if signals is not None:
            signals.on_admit()
        if self._trace_wl:
            wait = admitted - submitted
            self._tracer.emit(
                "workload", "admit",
                tenant=tenant.name, run=run_tag,
                wait=wait, in_flight=self._in_flight + 1,
            )
            self._h_admit.add(wait)
        self._in_flight += 1
        self._peak_in_flight = max(self._peak_in_flight, self._in_flight)
        try:
            result = yield from self.engine.execute(
                workflow,
                input_site=inst.input_site,
                run=run_tag,
                tenant=TenantContext(
                    name=tenant.name, quota=self.admission.bound
                ),
            )
        finally:
            self._in_flight -= 1
            self.admission.release(token)
            if signals is not None:
                signals.on_complete(run_tag, self.env.now)
        if self._trace_wl:
            self._tracer.emit(
                "workload", "complete",
                tenant=tenant.name, run=run_tag,
                makespan=result.makespan,
            )
        records.append(
            InstanceRecord(
                tenant=tenant.name,
                application=inst.application,
                run=run_tag,
                submitted_at=submitted,
                admitted_at=admitted,
                finished_at=self.env.now,
                result=result,
            )
        )

    def __repr__(self) -> str:
        return (
            f"<WorkloadRunner {self.strategy.name}/"
            f"{self.engine.policy.name}/{self.admission.name}>"
        )
