"""The Section VII strategy advisor and the analytic queueing reference.

- :mod:`repro.analysis.advisor` -- characterizes a workflow and
  recommends a metadata strategy (``repro.cli advise``);
- :mod:`repro.analysis.queueing` -- closed-form M/M/1 and closed-network
  bounds the simulated registry is checked against.

Run artifacts (serialization, stores, diffs) live in
:mod:`repro.results`; traces and their analysis in :mod:`repro.obs`.
"""

from repro.analysis.advisor import (
    WorkloadProfile,
    recommend_strategy,
    profile_workflow,
)
from repro.analysis.queueing import (
    closed_network_throughput,
    mm1_mean_wait,
    mm1_utilization,
    saturation_point,
    throughput_upper_bound,
)

__all__ = [
    "WorkloadProfile",
    "closed_network_throughput",
    "mm1_mean_wait",
    "mm1_utilization",
    "profile_workflow",
    "recommend_strategy",
    "saturation_point",
    "throughput_upper_bound",
]
