"""Workflow DAG serialization: JSON save/load.

Lets users define custom workflows in files and feed them to the
engine, advisor and CLI without writing Python.  The format is the
natural JSON projection of :class:`~repro.workflow.dag.Workflow`::

    {
      "name": "my-workflow",
      "tasks": [
        {"task_id": "a", "outputs": [{"name": "x", "size": 1024}],
         "compute_time": 1.0, "extra_ops": 10, "stage": "prep"},
        {"task_id": "b", "inputs": [{"name": "x"}]}
      ]
    }

Input files may omit ``size``; it is resolved from the producing
task's declaration (sizes are a property of the file, declared once at
its producer, exactly like the write-once rule).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.workflow.dag import Task, Workflow, WorkflowFile

__all__ = ["workflow_from_dict", "workflow_to_dict", "load_workflow", "save_workflow"]


class WorkflowFormatError(ValueError):
    """The serialized document does not describe a valid workflow."""


def workflow_to_dict(workflow: Workflow) -> Dict[str, Any]:
    """Project a workflow onto plain JSON-compatible data."""
    tasks: List[Dict[str, Any]] = []
    for task in workflow.topological_order():
        entry: Dict[str, Any] = {"task_id": task.task_id}
        if task.inputs:
            entry["inputs"] = [{"name": f.name} for f in task.inputs]
        if task.outputs:
            entry["outputs"] = [
                {"name": f.name, "size": f.size} for f in task.outputs
            ]
        if task.compute_time != 1.0:
            entry["compute_time"] = task.compute_time
        if task.extra_ops:
            entry["extra_ops"] = task.extra_ops
        if task.stage:
            entry["stage"] = task.stage
        tasks.append(entry)
    return {"name": workflow.name, "tasks": tasks}


def workflow_from_dict(doc: Dict[str, Any]) -> Workflow:
    """Rebuild a workflow from its dict form (validates the DAG)."""
    if not isinstance(doc, dict) or "name" not in doc:
        raise WorkflowFormatError("document must be an object with 'name'")
    raw_tasks = doc.get("tasks")
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise WorkflowFormatError("'tasks' must be a non-empty list")

    # First pass: file sizes are declared at producers.
    sizes: Dict[str, int] = {}
    for t in raw_tasks:
        for out in t.get("outputs", []):
            if "name" not in out:
                raise WorkflowFormatError(f"output without name in {t}")
            sizes[out["name"]] = int(out.get("size", WorkflowFile("x").size))

    wf = Workflow(doc["name"])
    for t in raw_tasks:
        if "task_id" not in t:
            raise WorkflowFormatError(f"task without task_id: {t}")
        inputs = [
            WorkflowFile(
                i["name"],
                size=sizes.get(
                    i["name"], int(i.get("size", WorkflowFile("x").size))
                ),
            )
            for i in t.get("inputs", [])
        ]
        outputs = [
            WorkflowFile(o["name"], size=sizes[o["name"]])
            for o in t.get("outputs", [])
        ]
        wf.add_task(
            Task(
                task_id=t["task_id"],
                inputs=inputs,
                outputs=outputs,
                compute_time=float(t.get("compute_time", 1.0)),
                extra_ops=int(t.get("extra_ops", 0)),
                stage=t.get("stage", ""),
            )
        )
    wf.validate()
    return wf


def save_workflow(workflow: Workflow, path: Union[str, Path]) -> None:
    """Write a workflow to a JSON file."""
    Path(path).write_text(
        json.dumps(workflow_to_dict(workflow), indent=2) + "\n",
        encoding="utf-8",
    )


def load_workflow(path: Union[str, Path]) -> Workflow:
    """Read a workflow from a JSON file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise WorkflowFormatError(f"invalid JSON in {path}: {exc}") from exc
    return workflow_from_dict(doc)
