"""Tests for workflow JSON serialization."""

import json

import pytest

from repro.workflow.applications import montage
from repro.workflow.patterns import gather, pipeline
from repro.workflow.serialization import (
    WorkflowFormatError,
    load_workflow,
    save_workflow,
    workflow_from_dict,
    workflow_to_dict,
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "wf",
        [
            pipeline(4, extra_ops=5),
            gather(6),
            montage(ops_per_task=100, n_parallel=12, n_merges=2),
        ],
        ids=["pipeline", "gather", "montage"],
    )
    def test_dict_roundtrip_preserves_structure(self, wf):
        doc = workflow_to_dict(wf)
        back = workflow_from_dict(doc)
        assert back.name == wf.name
        assert set(back.tasks) == set(wf.tasks)
        for tid, task in wf.tasks.items():
            bt = back.tasks[tid]
            assert [f.name for f in bt.inputs] == [f.name for f in task.inputs]
            assert [(f.name, f.size) for f in bt.outputs] == [
                (f.name, f.size) for f in task.outputs
            ]
            assert bt.compute_time == task.compute_time
            assert bt.extra_ops == task.extra_ops
        # Same dependency structure.
        assert [t.task_id for t in back.topological_order()] == [
            t.task_id for t in wf.topological_order()
        ]

    def test_file_roundtrip(self, tmp_path):
        wf = pipeline(3, extra_ops=2)
        path = tmp_path / "wf.json"
        save_workflow(wf, path)
        back = load_workflow(path)
        assert back.name == wf.name
        assert len(back) == 3
        # The file is genuine JSON.
        json.loads(path.read_text())

    def test_input_sizes_resolved_from_producer(self):
        doc = {
            "name": "w",
            "tasks": [
                {
                    "task_id": "a",
                    "outputs": [{"name": "x", "size": 777}],
                },
                {"task_id": "b", "inputs": [{"name": "x"}]},
            ],
        }
        wf = workflow_from_dict(doc)
        assert wf.tasks["b"].inputs[0].size == 777


class TestValidation:
    def test_missing_name(self):
        with pytest.raises(WorkflowFormatError):
            workflow_from_dict({"tasks": [{"task_id": "a"}]})

    def test_empty_tasks(self):
        with pytest.raises(WorkflowFormatError):
            workflow_from_dict({"name": "w", "tasks": []})

    def test_task_without_id(self):
        with pytest.raises(WorkflowFormatError):
            workflow_from_dict({"name": "w", "tasks": [{}]})

    def test_output_without_name(self):
        with pytest.raises(WorkflowFormatError):
            workflow_from_dict(
                {"name": "w", "tasks": [{"task_id": "a", "outputs": [{}]}]}
            )

    def test_cycle_rejected(self):
        doc = {
            "name": "cyclic",
            "tasks": [
                {
                    "task_id": "a",
                    "inputs": [{"name": "y"}],
                    "outputs": [{"name": "x", "size": 1}],
                },
                {
                    "task_id": "b",
                    "inputs": [{"name": "x"}],
                    "outputs": [{"name": "y", "size": 1}],
                },
            ],
        }
        from repro.workflow.dag import WorkflowValidationError

        with pytest.raises(WorkflowValidationError):
            workflow_from_dict(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(WorkflowFormatError):
            load_workflow(path)
