"""Workflow substrate: DAGs, access patterns, applications and the engine.

Workflows here follow the paper's model (Section II): tasks are
standalone computations exchanging data through files; the engine is a
scheduler that builds a task-dependency graph from the tasks'
input/output files, queries the metadata service for file locations,
moves data when needed and publishes metadata for produced files.

The package re-exports the DAG model, the access patterns and the
paper's applications, which the scenario spec names.  The engine
(:mod:`repro.workflow.engine`), the JSON format
(:mod:`repro.workflow.serialization`) and the trace-driven generator
(:mod:`repro.workflow.traces`) load only where they run: import them
from their modules.
"""

from repro.workflow.dag import Task, Workflow, WorkflowFile
from repro.workflow.patterns import (
    broadcast,
    gather,
    pipeline,
    reduce_tree,
    scatter,
)
from repro.workflow.applications import buzzflow, montage

__all__ = [
    "Task",
    "Workflow",
    "WorkflowFile",
    "broadcast",
    "buzzflow",
    "gather",
    "montage",
    "pipeline",
    "reduce_tree",
    "scatter",
]
