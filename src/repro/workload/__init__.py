"""Multi-tenant workload execution over one shared deployment.

The workload layer composes the rest of the stack: many tenants submit
streams of workflow instances (closed-loop with think time, or open-loop
Poisson/trace arrivals) against one deployment, one metadata strategy
and one placement policy, with pluggable admission control and
per-tenant fairness accounting.  See ``docs/workloads.md``.

The package re-exports the admission policies and the workload spec,
which the scenario spec names.  The runner
(:mod:`repro.workload.runner`), its result
(:mod:`repro.workload.result`) and the arrival generators
(:mod:`repro.workload.generators`) load only on the workload surface:
import them from their modules.
"""

from repro.workload.admission import (
    ADMISSIONS,
    ADMISSION_NAMES,
    AdmissionController,
    MaxInFlightAdmission,
    TokenBucketAdmission,
    UnboundedAdmission,
    make_admission,
)
from repro.workload.spec import (
    APPLICATIONS,
    APPLICATION_NAMES,
    TenantSpec,
    WorkloadSpec,
)

__all__ = [
    "ADMISSIONS",
    "ADMISSION_NAMES",
    "APPLICATIONS",
    "APPLICATION_NAMES",
    "AdmissionController",
    "MaxInFlightAdmission",
    "TenantSpec",
    "TokenBucketAdmission",
    "UnboundedAdmission",
    "WorkloadSpec",
    "make_admission",
]
