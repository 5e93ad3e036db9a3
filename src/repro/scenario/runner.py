"""Execute a declarative scenario: the single ``run()`` entrypoint.

``run_scenario`` owns everything that used to be hand-wired per
experiment module: deployment construction (always on a **fresh**
topology built from the spec's preset -- site-cap and fault-latency
edits mutate topologies in place, so sharing one between runs leaks
state), metadata-controller setup, fault-injector wiring, dispatch to
the right execution surface (workflow engine / synthetic benchmark /
multi-tenant workload runner) and stats collection into one
:class:`ScenarioResult`.

It is also the one place a spec becomes run-level policy: the
placement policy (:func:`_placement_policy`), the admission controller
(:func:`_admission_controller`) and the weighted transfer service are
built here and handed to the engine and the workload runner, which
resolve no policy themselves.

Each execution plane is imported in the branch that builds it: a
synthetic run loads neither the engine nor the transfer service, and
the fault injectors, the autoscaler and trace analysis load only for a
spec that asks for them.

The dispatch preserves the seed-exact code paths bit-for-bit: a
spec-driven run issues exactly the calls the pre-spec plumbing did
(pinned by the golden equivalence tests in
``tests/experiments/test_seed_compat.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cloud.deployment import Deployment
from repro.metadata.controller import ArchitectureController
from repro.obs import Tracer
from repro.scenario.slo import SLOReport, evaluate_slo, render_slo
from repro.scenario.spec import ScenarioSpec, SchedulerSpec
from repro.sim import Environment
from repro.util.units import MB

if TYPE_CHECKING:  # each plane is imported where the run builds it
    from repro.cloud.faults import FaultEvent
    from repro.elastic.controller import ElasticController, ElasticSignals
    from repro.elastic.report import ElasticReport
    from repro.obs.analyze import RunAnalysis
    from repro.scheduling import PlacementPolicy
    from repro.workload.admission import AdmissionController

__all__ = ["ScenarioResult", "run_scenario"]


@dataclass
class ScenarioResult:
    """Outcome of one scenario run: the surface result plus run context.

    ``result`` is the surface's native result object
    (:class:`~repro.workflow.engine.WorkflowResult`,
    :class:`~repro.experiments.synthetic.SyntheticResult` or
    :class:`~repro.workload.result.WorkloadResult`); the wrapper adds
    what the spec layer owns -- the resolved scheduler/admission names,
    the fault events that actually fired, WAN accounting, execution
    provenance (flow-solver mode, processed-event count) and, when
    tracing was on, the observability summary plus the live tracer for
    the Chrome/JSONL exporters.
    """

    spec: ScenarioSpec
    result: object
    scheduler: str = ""
    admission: Optional[str] = None
    fault_events: Tuple[FaultEvent, ...] = ()
    wan_bytes: int = 0
    provenance: Dict[str, object] = field(default_factory=dict)
    obs: Optional[Dict[str, object]] = None
    #: Post-run trace analysis (critical paths, attribution buckets,
    #: utilization; None when tracing was off or spans were not
    #: recorded).  A pure consumer of the trace -- computing it cannot
    #: change any metric.
    analysis: Optional[RunAnalysis] = None
    #: SLO verdicts (None when the spec declares no objectives).
    slo: Optional[SLOReport] = None
    #: Elastic control-plane report: actions taken, capacity paid
    #: (None when ``spec.elasticity`` is disabled).
    elastic: Optional[ElasticReport] = None
    #: The live tracer (None when tracing was off).  Not serialized --
    #: the exporters in ``repro.obs.export`` consume it directly.
    tracer: Optional[Tracer] = field(default=None, repr=False)

    @property
    def surface(self) -> str:
        return self.spec.surface

    @property
    def makespan(self) -> float:
        return self.result.makespan

    def render(self) -> str:
        """The human-readable report (same tables as the CLI; the SLO
        and elastic blocks print exactly as ``repro.cli analyze``
        prints them)."""
        from repro.experiments.charts import bar_chart
        from repro.experiments.reporting import render_table

        res = self.result
        if self.surface == "workload":
            text = res.render()
        elif self.surface == "synthetic":
            text = render_table(
                ["metric", "value"],
                [
                    ["strategy", res.strategy],
                    ["nodes", res.n_nodes],
                    ["total ops", res.total_ops],
                    ["makespan (s)", res.makespan],
                    ["throughput (ops/s)", res.throughput],
                    ["mean node time (s)", res.mean_node_time],
                    ["local fraction", f"{res.ops.local_fraction:.0%}"],
                    ["read retries", res.ops.total_retries],
                ],
                title="synthetic reader/writer benchmark",
            )
            text += "\n\n" + bar_chart(
                sorted(res.node_time_by_site().items()),
                title="mean node time by site (s)",
                width=40,
            )
        else:
            text = render_table(
                ["metric", "value"],
                [
                    ["workflow", res.workflow],
                    ["strategy", res.strategy],
                    ["scheduler", self.scheduler],
                    ["tasks", len(res.task_results)],
                    ["makespan (s)", res.makespan],
                    ["metadata time (s)", res.total_metadata_time],
                    ["transfer time (s)", res.total_transfer_time],
                    ["local ops", f"{res.ops.local_fraction:.0%}"],
                ],
                title=f"run: {res.workflow} under {res.strategy}",
            )
            text += "\n\n" + bar_chart(
                sorted(res.tasks_per_site().items()),
                title="tasks per site",
                width=40,
            )
        if self.fault_events:
            lines = ["", "faults:"]
            lines.extend(
                f"  t={ev.at:8.2f}  {ev.kind:<22} {ev.target}"
                + (f"  {ev.detail}" if ev.detail else "")
                for ev in sorted(self.fault_events, key=lambda e: e.at)
            )
            text += "\n".join(lines)
        if self.slo is not None:
            text += "\n\n" + render_slo(self.slo.to_dict())
        if self.elastic is not None:
            from repro.elastic.report import render_elastic

            text += "\n\n" + render_elastic(self.elastic.to_dict())
        return text

    def __repr__(self) -> str:
        return (
            f"<ScenarioResult {self.spec.name} [{self.surface}] "
            f"makespan={self.makespan:.1f}s>"
        )


def _wire_faults(
    spec: ScenarioSpec,
    deployment: Deployment,
    registries: Dict[str, object],
) -> List[object]:
    """Instantiate one injector per fault spec against the deployment.

    Outages hold the service slots of the strategy's registries at the
    downed sites (the control plane) and tear down fair flows through
    them (the data plane; a safe no-op under the slot model).
    """
    if not spec.faults:
        return []
    from repro.cloud.faults import (
        LatencySpikeInjector,
        LinkFlapInjector,
        RegionOutage,
        SiteOutage,
    )

    env = deployment.env
    network = deployment.network
    injectors: List[object] = []
    for f in spec.faults:
        if f.kind == "site_outage":
            injectors.append(
                SiteOutage(
                    env,
                    registry=registries.get(f.site),
                    start=f.start,
                    duration=f.duration,
                    network=network,
                    site=f.site,
                )
            )
        elif f.kind == "region_outage":
            injectors.append(
                RegionOutage(
                    env,
                    sites=f.sites,
                    region=f.region,
                    topology=deployment.topology,
                    registries=registries,
                    start=f.start,
                    duration=f.duration,
                    network=network,
                )
            )
        elif f.kind == "link_flap":
            injectors.append(
                LinkFlapInjector(
                    env, network, f.link[0], f.link[1], times=f.times
                )
            )
        else:  # latency_spike
            injectors.append(
                LatencySpikeInjector(
                    env,
                    deployment.topology,
                    f.link[0],
                    f.link[1],
                    start=f.start,
                    duration=f.duration,
                    factor=f.factor,
                )
            )
    return injectors


def _collect_events(injectors: List[object]) -> Tuple[FaultEvent, ...]:
    return tuple(ev for inj in injectors for ev in inj.events)


def _provenance(deployment: Deployment) -> Dict[str, object]:
    """Execution provenance: *how* the run was computed.

    These facts never change the simulated numbers (the solvers are
    pinned equivalent by goldens), which is exactly why they are
    recorded separately from ``metrics`` -- ``repro.cli diff`` surfaces
    a solver swap without flagging the results.
    """
    network = deployment.network
    flow_solver = (
        f"fair/{network.flow_net.solver}"
        if network.flow_net is not None
        else "slots"
    )
    return {
        "flow_solver": flow_solver,
        "events_processed": deployment.env.events_processed,
    }


def _finalize(result: ScenarioResult) -> ScenarioResult:
    """Post-run passes: trace analysis and SLO judgement.

    Both are strictly read-only consumers of the finished run (no
    simulation RNG, no events), so a finalized run's metrics are
    bit-for-bit the metrics of the bare run -- pinned by
    ``tests/obs/test_analyze.py``.
    """
    tracer = result.tracer
    if tracer is not None and tracer.wants("span"):
        from repro.obs.analyze import analyze_tracer

        result.analysis = analyze_tracer(tracer)
    if result.spec.slo is not None and not result.spec.slo.empty:
        result.slo = evaluate_slo(result.spec.slo, result)
    return result


def _elastic_signals(spec: ScenarioSpec) -> ElasticSignals:
    """Workload-surface sensors, fed deadline targets from the SLO spec."""
    from repro.elastic.controller import ElasticSignals

    slo = spec.slo
    return ElasticSignals(
        tenant_deadlines=(
            dict(slo.tenant_deadlines) if slo is not None else {}
        ),
        run_deadline_s=slo.deadline_s if slo is not None else None,
    )


def _start_elastic(
    spec: ScenarioSpec,
    deployment: Deployment,
    cluster,
    signals: Optional[ElasticSignals],
    tracer: Optional[Tracer],
) -> Optional[ElasticController]:
    """Construct and start the control loop (None when disabled)."""
    if not spec.elasticity.enabled:
        return None
    from repro.elastic.controller import ElasticController

    controller = ElasticController(
        deployment,
        cluster,
        spec.elasticity,
        signals=signals,
        tracer=tracer,
    )
    controller.start()
    return controller


def _placement_policy(spec: SchedulerSpec) -> PlacementPolicy:
    """The placement policy a scheduler spec names, with its knobs.

    ``name=None`` is ``"locality"``; the pending penalty goes to the
    two bandwidth-aware policies and the weights to ``hybrid`` only
    (validation rejects them pinned anywhere else).
    """
    from repro.scheduling import make_scheduler

    name = spec.name or "locality"
    knobs: Dict[str, float] = {}
    if name in ("bandwidth_aware", "hybrid"):
        knobs["pending_penalty"] = spec.bw_pending_penalty
    if name == "hybrid":
        knobs.update(
            locality_weight=spec.hybrid_locality_weight,
            load_weight=spec.hybrid_load_weight,
            transfer_weight=spec.hybrid_transfer_weight,
        )
    return make_scheduler(name, **knobs)


def _admission_controller(
    spec: ScenarioSpec, env: Environment
) -> AdmissionController:
    """The admission controller a validated spec names, with its knobs.

    ``admission=None`` is ``"unbounded"``; an unset knob keeps the
    controller's constructor default (validation ties each knob to its
    policy).
    """
    from repro.workload.admission import make_admission

    knobs: Dict[str, float] = {}
    if spec.max_in_flight is not None:
        knobs["limit"] = spec.max_in_flight
    if spec.token_rate is not None:
        knobs["rate"] = spec.token_rate
    if spec.token_burst is not None:
        knobs["burst"] = spec.token_burst
    return make_admission(spec.admission or "unbounded", env, **knobs)


def _build_workflow(spec: ScenarioSpec):
    """The workflow-surface DAG, built exactly like the CLI built it."""
    if spec.workflow_file is not None:
        from repro.workflow.serialization import load_workflow

        return load_workflow(spec.workflow_file)
    from repro.scenario.spec import WORKFLOW_BUILDERS

    builder = WORKFLOW_BUILDERS[spec.application]
    kwargs = {"ops_per_task": spec.ops_per_task}
    if spec.compute_time is not None:
        kwargs["compute_time"] = spec.compute_time
    return builder(**kwargs)


def run_scenario(spec: ScenarioSpec, quick: bool = False) -> ScenarioResult:
    """Validate ``spec`` and execute it end to end.

    ``quick`` runs the :meth:`~repro.scenario.spec.ScenarioSpec.quick`
    reduction of the spec (CI-friendly op volumes, same shape).  The
    run is built from the spec alone: one metadata controller on every
    surface, its registries wired to the spec's faults.
    """
    spec.validate()
    if quick:
        spec = spec.quick()
    net = spec.network
    # The tracer must be attached before the deployment is built:
    # network/registry/engine components cache their tracer category
    # flags at construction time.
    env = Environment()
    tracer: Optional[Tracer] = None
    obs = spec.observability
    if obs.enabled:
        tracer = Tracer(
            env,
            categories=obs.categories,
            max_events=obs.max_events,
            sample_interval=obs.sample_interval,
            histogram_capacity=obs.histogram_capacity,
        )
        env.attach_tracer(tracer)
    deployment = Deployment(
        env=env,
        topology=spec.topology.build(),
        n_nodes=spec.n_nodes,
        seed=spec.seed,
        bandwidth_model=net.bandwidth_model or "slots",
        site_egress_bw=(
            net.egress_cap_mb * MB if net.egress_cap_mb is not None else None
        ),
        site_ingress_bw=(
            net.ingress_cap_mb * MB
            if net.ingress_cap_mb is not None
            else None
        ),
        rpc_flow_weight=net.rpc_flow_weight,
    )
    controller = ArchitectureController(
        deployment,
        strategy=spec.strategy.name,
        config=spec.to_metadata_config(),
    )
    injectors = _wire_faults(
        spec, deployment, registries=controller.strategy.registries
    )
    scheduler, admission, wan_bytes = "", None, 0
    elastic: Optional[ElasticController] = None
    if spec.surface == "synthetic":
        # Imported lazily: the experiments package sits above the
        # scenario layer (its compare modules consume specs).
        from repro.experiments.synthetic import run_synthetic_workload

        result = run_synthetic_workload(
            deployment, controller.strategy, spec.ops_per_node
        )
    else:
        from repro.storage.transfer import TransferService

        transfer = TransferService(
            env,
            deployment.network,
            deployment.sites,
            default_weight=net.transfer_flow_weight,
        )
        policy = _placement_policy(spec.scheduler)
        if spec.surface == "workflow":
            from repro.workflow.engine import WorkflowEngine

            engine = WorkflowEngine(
                deployment,
                controller.strategy,
                transfer=transfer,
                scheduler=policy,
                input_site=spec.scheduler.input_site,
            )
            # Workflow surface has no admission layer, so the autoscaler
            # senses queue depth only (signals=None).
            elastic = _start_elastic(
                spec, deployment, engine.cluster, None, tracer
            )
            result = engine.run(_build_workflow(spec))
            scheduler = engine.policy.name
            wan_bytes = engine.transfer.wan_bytes
        else:
            from repro.workload.runner import WorkloadRunner

            signals = (
                _elastic_signals(spec) if spec.elasticity.enabled else None
            )
            runner = WorkloadRunner(
                deployment,
                controller.strategy,
                scheduler=policy,
                admission=_admission_controller(spec, env),
                transfer=transfer,
                elastic_signals=signals,
            )
            elastic = _start_elastic(
                spec, deployment, runner.engine.cluster, signals, tracer
            )
            result = runner.run(spec.workload)
            scheduler, admission = result.scheduler, result.admission
            wan_bytes = result.wan_bytes
    controller.shutdown()
    return _finalize(
        ScenarioResult(
            spec=spec,
            result=result,
            scheduler=scheduler,
            admission=admission,
            fault_events=_collect_events(injectors),
            wan_bytes=wan_bytes,
            provenance=_provenance(deployment),
            obs=tracer.export() if tracer is not None else None,
            elastic=elastic.finalize() if elastic is not None else None,
            tracer=tracer,
        )
    )
