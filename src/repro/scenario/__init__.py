"""Unified declarative scenario API: one spec, one ``run()``.

Every experiment surface in the repo -- a single workflow through the
engine, the Section VI-B synthetic benchmark, a multi-tenant workload
-- is described by one validated, serializable
:class:`~repro.scenario.spec.ScenarioSpec` and executed through one
entrypoint (:meth:`ScenarioSpec.run`).  See ``docs/scenarios.md``.
"""

from repro.scenario.registry import (
    SCENARIOS,
    SCENARIO_NAMES,
    get_scenario,
    register_scenario,
)
from repro.scenario.runner import ScenarioResult, run_scenario
from repro.scenario.slo import (
    SLOReport,
    SLORule,
    SLOSpec,
    evaluate_slo,
)
from repro.scenario.spec import (
    ElasticitySpec,
    FAULT_KINDS,
    FaultSpec,
    NetworkSpec,
    ObservabilitySpec,
    SURFACES,
    ScenarioSpec,
    SchedulerSpec,
    StrategySpec,
    TOPOLOGY_PRESETS,
    TopologySpec,
    WORKFLOW_APPLICATIONS,
    WORKFLOW_BUILDERS,
)
from repro.scenario.sweep import (
    SweepCell,
    SweepResult,
    iter_sweep,
    run_cells,
    run_sweep,
)

#: Ergonomic alias: ``Scenario.run(...)`` reads like the entrypoint it is.
Scenario = ScenarioSpec

__all__ = [
    "ElasticitySpec",
    "FAULT_KINDS",
    "FaultSpec",
    "NetworkSpec",
    "ObservabilitySpec",
    "SCENARIOS",
    "SCENARIO_NAMES",
    "SLOReport",
    "SLORule",
    "SLOSpec",
    "SURFACES",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "SchedulerSpec",
    "StrategySpec",
    "SweepCell",
    "SweepResult",
    "TOPOLOGY_PRESETS",
    "TopologySpec",
    "WORKFLOW_APPLICATIONS",
    "WORKFLOW_BUILDERS",
    "evaluate_slo",
    "get_scenario",
    "iter_sweep",
    "register_scenario",
    "run_cells",
    "run_scenario",
    "run_sweep",
]
