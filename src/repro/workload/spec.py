"""Workload specifications: tenants, applications and arrival modes.

A :class:`WorkloadSpec` describes *many* workflow instances submitted by
competing tenants to one shared deployment -- the load shape under which
the metadata strategies, bandwidth models and placement policies
actually diverge (the paper's premise is a cloud infrastructure serving
real, concurrent workloads, not one workflow at a time).

Two arrival modes are supported:

- **closed-loop**: each tenant keeps exactly one workflow in flight,
  waiting ``think_time`` seconds between a completion and the next
  submission (the interactive-user model; total concurrency is the
  tenant count);
- **open-loop**: instances arrive on a schedule independent of
  completions -- seeded-RNG Poisson arrivals at ``arrival_rate`` per
  second, or an explicit trace of arrival offsets (the
  service-under-load model; concurrency is unbounded unless an
  admission controller caps it, see ``repro.workload.admission``).

Every quantity is deterministic given the spec and its seed: arrival
draws come from per-tenant named RNG streams, and tenant -> application
assignment is explicit in the spec.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.util.checks import check_number
from repro.util.units import KB, MB
from repro.workflow.applications import buzzflow, montage
from repro.workflow.dag import Task, Workflow, WorkflowFile
from repro.workflow.patterns import pipeline, scatter

__all__ = [
    "APPLICATIONS",
    "APPLICATION_NAMES",
    "TenantSpec",
    "WorkloadSpec",
]


def _scaled(size: float, scale: float) -> int:
    return max(1, int(size * scale))


def _ingest(t: "TenantSpec") -> Workflow:
    """External seed -> split -> parallel consumers.

    The one registry application whose data enters the system from
    *outside* (an external input staged at the tenant's ``input_site``
    before the run), so per-tenant data origins are observable: a
    tenant ingesting from a distant site pays the cross-WAN staging its
    placement policy should route around.
    """
    wf = Workflow("ingest")
    seed = WorkflowFile("ingest/seed", size=_scaled(4 * MB, t.size_scale))
    width = 4
    parts = [
        WorkflowFile(f"ingest/part-{i}", size=_scaled(1 * MB, t.size_scale))
        for i in range(width)
    ]
    extra = lambda n_in, n_out: max(0, t.ops_per_task - n_in - n_out)
    wf.add_task(
        Task(
            "ingest-split",
            inputs=[seed],
            outputs=parts,
            compute_time=min(t.compute_time, 0.5),
            extra_ops=extra(1, width),
            stage="split",
        )
    )
    for i in range(width):
        wf.add_task(
            Task(
                f"ingest-consume-{i}",
                inputs=[parts[i]],
                outputs=[
                    WorkflowFile(
                        f"ingest/result-{i}",
                        size=_scaled(64 * KB, t.size_scale),
                    )
                ],
                compute_time=t.compute_time,
                extra_ops=extra(1, 1),
                stage="consume",
            )
        )
    return wf


#: name -> builder taking a :class:`TenantSpec` and returning a fresh
#: :class:`~repro.workflow.dag.Workflow`.  The ``*-small`` variants are
#: the same DAG shapes at workload-friendly sizes (many concurrent
#: instances), the bare names are the paper's full applications.
APPLICATIONS: Dict[str, Callable[["TenantSpec"], Workflow]] = {
    "montage": lambda t: montage(
        ops_per_task=t.ops_per_task,
        compute_time=t.compute_time,
        file_size=_scaled(1 * MB, t.size_scale),
    ),
    "montage-small": lambda t: montage(
        ops_per_task=t.ops_per_task,
        compute_time=t.compute_time,
        n_parallel=12,
        n_merges=2,
        file_size=_scaled(1 * MB, t.size_scale),
    ),
    "buzzflow": lambda t: buzzflow(
        ops_per_task=t.ops_per_task,
        compute_time=t.compute_time,
        file_size=_scaled(190 * KB, t.size_scale),
    ),
    "buzzflow-small": lambda t: buzzflow(
        ops_per_task=t.ops_per_task,
        compute_time=t.compute_time,
        width=2,
        n_stages=4,
        file_size=_scaled(190 * KB, t.size_scale),
    ),
    "scatter": lambda t: scatter(
        8,
        compute_time=t.compute_time,
        extra_ops=t.ops_per_task,
        file_size=_scaled(190 * KB, t.size_scale),
    ),
    "pipeline": lambda t: pipeline(
        6,
        compute_time=t.compute_time,
        extra_ops=t.ops_per_task,
        file_size=_scaled(190 * KB, t.size_scale),
    ),
    "ingest": _ingest,
}

#: Recognized application names, in a stable order.
APPLICATION_NAMES: Tuple[str, ...] = tuple(sorted(APPLICATIONS))


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's stream of workflow instances.

    Attributes
    ----------
    name:
        Unique tenant identifier; it prefixes every file/task key of the
        tenant's instances (see :meth:`Workflow.namespaced
        <repro.workflow.dag.Workflow.namespaced>`).
    application:
        Key into :data:`APPLICATIONS`.
    n_instances:
        Workflow instances this tenant submits (open-loop traces may
        override it with their own length).
    input_site:
        Site where the tenant's external inputs are staged (``None``:
        the engine default, historically the deployment's first site).
    size_scale:
        Multiplier on the application's file sizes (tenant data-volume
        heterogeneity).
    ops_per_task / compute_time:
        Forwarded to the application builder.
    think_time:
        Closed-loop only: idle seconds between a completion and the
        tenant's next submission.
    arrival_rate:
        Open-loop only: Poisson arrival rate, instances/second.
    arrival_times:
        Open-loop only: explicit trace of arrival offsets (seconds from
        workload start); overrides ``arrival_rate`` and
        ``n_instances``.
    """

    name: str
    application: str = "montage-small"
    n_instances: int = 1
    input_site: Optional[str] = None
    size_scale: float = 1.0
    ops_per_task: int = 20
    compute_time: float = 0.5
    think_time: float = 0.0
    arrival_rate: Optional[float] = None
    arrival_times: Optional[Tuple[float, ...]] = None

    def validate(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.application not in APPLICATIONS:
            raise ValueError(
                f"unknown application {self.application!r}; expected one "
                f"of {APPLICATION_NAMES}"
            )
        check_number("n_instances", self.n_instances, integer=True)
        check_number("size_scale", self.size_scale)
        check_number(
            "ops_per_task", self.ops_per_task, minimum=0, integer=True
        )
        check_number("compute_time", self.compute_time, minimum=0)
        check_number("think_time", self.think_time, minimum=0)
        if self.arrival_rate is not None:
            check_number("arrival_rate", self.arrival_rate)
        if self.arrival_times is not None:
            if not self.arrival_times:
                raise ValueError("arrival_times trace must be non-empty")
            for t in self.arrival_times:
                check_number("arrival_times", t, minimum=0)

    def build_workflow(self, index: int) -> Workflow:
        """The ``index``-th namespaced workflow instance of this tenant."""
        wf = APPLICATIONS[self.application](self)
        return wf.namespaced(f"{self.name}/{index}")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible dict; :meth:`from_dict` inverts it exactly."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "TenantSpec":
        """Rebuild a tenant spec from :meth:`to_dict` output (strict)."""
        data = dict(data)
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ValueError(f"unknown TenantSpec keys: {unknown}")
        if data.get("arrival_times") is not None:
            data["arrival_times"] = tuple(data["arrival_times"])
        return cls(**data)


@dataclass(frozen=True)
class WorkloadSpec:
    """A full multi-tenant workload: tenants plus the arrival mode.

    ``seed`` drives every random draw of the workload layer (open-loop
    Poisson arrivals); it is independent of the deployment seed, so
    varying one never perturbs the other.
    """

    tenants: Tuple[TenantSpec, ...]
    mode: str = "closed"  # "closed" | "open"
    seed: int = 0
    name: str = "workload"

    def __post_init__(self):
        # Tolerate lists in user code; store a hashable tuple.
        object.__setattr__(self, "tenants", tuple(self.tenants))

    def validate(self) -> None:
        if not self.tenants:
            raise ValueError("workload needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        if self.mode not in ("closed", "open"):
            raise ValueError(
                f"mode must be 'closed' or 'open', got {self.mode!r}"
            )
        check_number("workload seed", self.seed, minimum=0, integer=True)
        for t in self.tenants:
            t.validate()
            if self.mode == "closed":
                if t.arrival_rate is not None or t.arrival_times is not None:
                    raise ValueError(
                        f"tenant {t.name!r}: arrival_rate/arrival_times "
                        "are open-loop knobs (closed-loop pacing is "
                        "think_time)"
                    )
            else:
                if t.arrival_rate is None and t.arrival_times is None:
                    raise ValueError(
                        f"tenant {t.name!r}: open-loop tenants need an "
                        "arrival_rate or an arrival_times trace"
                    )
                if t.think_time:
                    raise ValueError(
                        f"tenant {t.name!r}: think_time is a closed-loop "
                        "knob (open-loop pacing is the arrival process)"
                    )

    @property
    def n_tenants(self) -> int:
        return len(self.tenants)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible dict; :meth:`from_dict` inverts it exactly."""
        return {
            "tenants": [t.to_dict() for t in self.tenants],
            "mode": self.mode,
            "seed": self.seed,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorkloadSpec":
        """Rebuild a workload spec from :meth:`to_dict` output (strict)."""
        data = dict(data)
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ValueError(f"unknown WorkloadSpec keys: {unknown}")
        data["tenants"] = tuple(
            TenantSpec.from_dict(t) if isinstance(t, Mapping) else t
            for t in data.get("tenants", ())
        )
        return cls(**data)

    @classmethod
    def uniform(
        cls,
        n_tenants: int,
        applications: Sequence[str] = ("montage-small", "buzzflow-small"),
        mode: str = "closed",
        n_instances: int = 1,
        think_time: float = 0.0,
        arrival_rate: Optional[float] = None,
        input_sites: Optional[Sequence[str]] = None,
        ops_per_task: int = 20,
        compute_time: float = 0.5,
        size_scale: float = 1.0,
        seed: int = 0,
        name: str = "uniform",
    ) -> "WorkloadSpec":
        """``n_tenants`` tenants round-robined over ``applications``.

        The standard sweep workload: tenant ``i`` runs
        ``applications[i % len]`` from ``input_sites[i % len]`` (when
        given), all with identical sizing -- contention is the only
        variable.
        """
        if n_tenants <= 0:
            raise ValueError("n_tenants must be positive")
        tenants = tuple(
            TenantSpec(
                name=f"tenant-{i:02d}",
                application=applications[i % len(applications)],
                n_instances=n_instances,
                input_site=(
                    input_sites[i % len(input_sites)]
                    if input_sites
                    else None
                ),
                ops_per_task=ops_per_task,
                compute_time=compute_time,
                size_scale=size_scale,
                think_time=think_time if mode == "closed" else 0.0,
                arrival_rate=arrival_rate if mode == "open" else None,
            )
            for i in range(n_tenants)
        )
        spec = cls(tenants=tenants, mode=mode, seed=seed, name=name)
        spec.validate()
        return spec
