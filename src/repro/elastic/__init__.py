"""Elastic provisioning control plane: close the loop from load to capacity.

Every subsystem below this one *observes* -- the tracer records, the
analyzer attributes, the SLO engine judges -- but the VM fleet stays
frozen at construction.  This package is the actuator: an
:class:`ElasticController` samples live signals during a run (per-site
queue depth through the scheduler's ``ClusterView``, workload admission
backlog, accumulating SLO debt) on a fixed control interval and asks a
pluggable :class:`ElasticityPolicy` for scale-up / scale-down actions,
which it executes through the deployment's safe fleet lifecycle APIs
(``Deployment.add_vms`` / ``drain_vms`` / ``retire_vm``) with realistic
friction: **provisioning lag** (capacity lands ``lag_s`` after the
decision), **warm-up cost** (new VMs compute degraded for ``warmup_s``)
and **draining semantics** (a removed VM finishes its placed tasks,
takes no new ones, never strands work).

Policies (select by ``ElasticitySpec.policy``; on the CLI
``--set elasticity.enabled=true --set elasticity.policy=NAME``):

- ``threshold``  -- per-site queue-depth hysteresis bands;
- ``slo_debt``   -- scale when projected deadline debt crosses a budget;
- ``predictive`` -- EWMA arrival-rate forecast with trend extrapolation,
  pre-provisions ahead of open-loop ramps.

Everything is deterministic and RNG-free: identical spec + seed replay
an identical action sequence, and a disabled spec constructs nothing,
schedules nothing and draws nothing (existing goldens stay bit-for-bit).
See ``docs/elasticity.md``.

The package re-exports the policies, whose name table the scenario
spec validates against.  The controller
(:mod:`repro.elastic.controller`) and its report
(:mod:`repro.elastic.report`) load only when a spec enables
elasticity: import them from their modules.
"""

from repro.elastic.policies import (
    ELASTICITY_NAMES,
    ELASTICITY_POLICIES,
    ElasticityPolicy,
    FleetView,
    PredictivePolicy,
    ScaleAction,
    SignalSnapshot,
    SLODebtPolicy,
    ThresholdPolicy,
    make_elasticity_policy,
)

__all__ = [
    "ELASTICITY_NAMES",
    "ELASTICITY_POLICIES",
    "ElasticityPolicy",
    "FleetView",
    "PredictivePolicy",
    "SLODebtPolicy",
    "ScaleAction",
    "SignalSnapshot",
    "ThresholdPolicy",
    "make_elasticity_policy",
]
