"""Result serialization: every experiment outcome as a JSON document.

The scenario layer made every experiment *description* serializable
(``ScenarioSpec.to_dict``); this module does the same for experiment
*outcomes*, so runs survive the process that produced them:

- :func:`scenario_result_to_dict` -- one
  :class:`~repro.scenario.runner.ScenarioResult` as a self-describing
  artifact (the spec, its content hash, surface payload, and a flat
  ``metrics`` mapping that ``repro.cli diff`` compares key by key);
- :func:`sweep_result_to_dict` / :func:`sweep_cell_to_dict` -- a whole
  sweep grid, errored cells included;
- :func:`synthetic_result_to_dict` -- the synthetic surface twin of
  the existing ``workflow_result_to_dict``/``workload_result_to_dict``
  in ``repro.analysis.export``.

Documents are plain dicts of JSON scalars/lists/dicts; wall-clock and
git-revision stamps are *not* part of these payloads (the
parallel-vs-serial bit-for-bit contract covers them) -- the
:class:`~repro.results.store.ResultStore` adds those under ``meta`` at
save time.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.analysis.export import (
    workflow_result_to_dict,
    workload_result_to_dict,
)
from repro.experiments.synthetic import SyntheticResult
from repro.scenario.runner import ScenarioResult
from repro.scenario.spec import ScenarioSpec
from repro.scenario.sweep import SweepCell, SweepResult

__all__ = [
    "result_metrics",
    "scenario_result_to_dict",
    "spec_hash",
    "sweep_cell_to_dict",
    "sweep_result_to_dict",
    "synthetic_result_to_dict",
]


def spec_hash(spec: ScenarioSpec) -> str:
    """The stable content hash artifacts are keyed by (module form).

    Function alias of :meth:`ScenarioSpec.spec_hash
    <repro.scenario.spec.ScenarioSpec.spec_hash>` for callers holding
    the results package rather than the spec.
    """
    return spec.spec_hash()


def synthetic_result_to_dict(result: SyntheticResult) -> Dict[str, Any]:
    """Flatten a synthetic reader/writer run (op trace excluded)."""
    return {
        "strategy": result.strategy,
        "n_nodes": result.n_nodes,
        "ops_per_node": result.ops_per_node,
        "total_ops": result.total_ops,
        "makespan": result.makespan,
        "throughput": result.throughput,
        "mean_node_time": result.mean_node_time,
        "node_times": [float(t) for t in result.node_times],
        "node_sites": list(result.node_sites),
        "node_time_by_site": result.node_time_by_site(),
    }


def result_metrics(result: ScenarioResult) -> Dict[str, float]:
    """Flat headline metrics: the keyed values ``repro.cli diff`` compares.

    Every surface contributes ``makespan_s`` and ``wan_bytes``; the
    rest are surface-specific (throughput for synthetic, staging times
    for workflow, fairness/slowdown for workload).  Keys are stable --
    diffs across commits align on them.
    """
    res = result.result
    metrics: Dict[str, float] = {
        "makespan_s": float(result.makespan),
        "wan_bytes": float(result.wan_bytes),
    }
    if result.surface == "synthetic":
        metrics.update(
            throughput_ops_s=float(res.throughput),
            mean_node_time_s=float(res.mean_node_time),
            total_ops=float(res.total_ops),
        )
    elif result.surface == "workflow":
        metrics.update(
            metadata_time_s=float(res.total_metadata_time),
            transfer_time_s=float(res.total_transfer_time),
            tasks=float(len(res.task_results)),
        )
    else:  # workload
        metrics.update(
            op_throughput_ops_s=float(res.op_throughput()),
            network_throughput_bytes_s=float(res.network_throughput()),
            jain_fairness=float(res.jain_fairness()),
            p50_slowdown=float(res.slowdown_percentile(50)),
            p95_slowdown=float(res.slowdown_percentile(95)),
            mean_queue_wait_s=float(res.mean_queue_wait()),
            completed=float(res.n_completed),
            peak_in_flight=float(res.peak_in_flight),
        )
    if result.elastic is not None:
        metrics.update(
            vm_seconds=float(result.elastic.vm_seconds),
            capacity_cost=float(result.elastic.cost),
            scale_ups=float(result.elastic.n_scale_ups),
            scale_downs=float(result.elastic.n_scale_downs),
            fleet_peak=float(result.elastic.fleet_peak),
        )
    return metrics


def scenario_result_to_dict(
    result: ScenarioResult, include_ops: bool = False
) -> Dict[str, Any]:
    """One scenario run as a self-describing JSON artifact.

    Carries the full spec (so the artifact alone reproduces the run
    via ``ScenarioSpec.from_dict(doc["spec"]).run()``), the spec's
    content hash, the flat ``metrics`` diff keys, the fault events
    that fired, execution ``provenance`` (flow solver mode,
    processed-event count -- facts about *how* the run was computed,
    surfaced separately by ``repro.cli diff``), the
    observability summary under ``obs`` when tracing was on, and the
    surface's native payload under ``result``.
    """
    res = result.result
    if result.surface == "synthetic":
        payload = synthetic_result_to_dict(res)
    elif result.surface == "workflow":
        payload = workflow_result_to_dict(res, include_ops=include_ops)
    else:
        payload = workload_result_to_dict(res)
    doc = {
        "schema": 1,
        "kind": "scenario-result",
        "name": result.spec.name,
        "surface": result.surface,
        "seed": result.spec.seed,
        "spec_hash": result.spec.spec_hash(),
        "spec": result.spec.to_dict(),
        "scheduler": result.scheduler,
        "admission": result.admission,
        "wan_bytes": result.wan_bytes,
        "fault_events": [
            {
                "at": ev.at,
                "kind": ev.kind,
                "target": ev.target,
                "detail": ev.detail,
            }
            for ev in result.fault_events
        ],
        "metrics": result_metrics(result),
        "provenance": dict(result.provenance),
        "result": payload,
    }
    if result.obs is not None:
        doc["obs"] = result.obs
    if result.analysis is not None:
        doc["analysis"] = result.analysis.to_dict()
    if result.slo is not None:
        doc["slo"] = result.slo.to_dict()
    if result.elastic is not None:
        doc["elastic"] = result.elastic.to_dict()
    return doc


def sweep_cell_to_dict(
    cell: SweepCell, include_ops: bool = False
) -> Dict[str, Any]:
    """One grid point: overrides plus either its artifact or its error."""
    return {
        "overrides": dict(cell.overrides),
        "error": cell.error,
        "result": (
            scenario_result_to_dict(cell.result, include_ops=include_ops)
            if cell.result is not None
            else None
        ),
    }


def sweep_result_to_dict(
    sweep: SweepResult, include_ops: bool = False
) -> Dict[str, Any]:
    """A whole sweep grid as one JSON document, errored cells inline."""
    return {
        "schema": 1,
        "kind": "sweep-result",
        "base": sweep.base.to_dict(),
        "base_hash": sweep.base.spec_hash(),
        "axes": {k: list(v) for k, v in sweep.axes.items()},
        "cells": [
            sweep_cell_to_dict(c, include_ops=include_ops)
            for c in sweep.cells
        ],
    }
