"""Run artifacts: serialization, spec-hash stores, and run diffing.

The experiment plane's persistence layer.  ``repro.scenario`` made
experiment *descriptions* first-class values; this package does the
same for experiment *outcomes*, in one document format per run and one
per sweep:

- :mod:`repro.results.serialize` -- every result object as a JSON
  document with a flat keyed ``metrics`` mapping;
- :mod:`repro.results.store` -- :func:`run_artifact` (a run's document
  plus ``meta``), :func:`write_document` (the one writer, for stores,
  ``run --export`` and ``sweep --export``) and :class:`ResultStore`
  directories of one artifact per run, keyed ``<spec_hash12>-s<seed>``;
- :mod:`repro.results.diff` -- keyed comparison of two artifacts or
  two whole stores (``repro.cli diff A B``).
"""

from repro.results.diff import (
    ArtifactDiff,
    StoreDiff,
    diff_artifacts,
    diff_stores,
)
from repro.results.serialize import (
    result_metrics,
    scenario_result_to_dict,
    sweep_cell_to_dict,
    sweep_result_to_dict,
    synthetic_result_to_dict,
    workflow_result_to_dict,
    workload_result_to_dict,
)
from repro.results.store import (
    ResultStore,
    current_git_rev,
    run_artifact,
    write_document,
)

__all__ = [
    "ArtifactDiff",
    "ResultStore",
    "StoreDiff",
    "current_git_rev",
    "diff_artifacts",
    "diff_stores",
    "result_metrics",
    "run_artifact",
    "scenario_result_to_dict",
    "sweep_cell_to_dict",
    "sweep_result_to_dict",
    "synthetic_result_to_dict",
    "workflow_result_to_dict",
    "workload_result_to_dict",
    "write_document",
]
