"""Exporter contracts: every event shape survives JSONL, Chrome lanes
are named, and the trace CLI rejects malformed category selections."""

import json

import pytest

from repro.cli import main
from repro.obs.export import chrome_trace_doc, events_jsonl
from repro.scenario import ObservabilitySpec, get_scenario


@pytest.fixture(scope="module")
def traced_workload():
    """A fully-traced multi-tenant run: exercises every event shape."""
    spec = get_scenario("multi_tenant_8").replace(
        observability=ObservabilitySpec(enabled=True)
    )
    return spec.run(quick=True)


class TestJsonlRoundTrip:
    #: (cat, name) -> keys every record of that shape must carry.
    SHAPES = {
        ("workload", "submit"): {"tenant", "run"},
        ("workload", "admit"): {"tenant", "run", "wait", "in_flight"},
        ("workload", "complete"): {"tenant", "run", "makespan"},
        ("registry", "slot_wait"): {"site", "wait", "queue"},
        ("span", "task"): {"ph", "dur", "id", "task", "vm", "site", "run"},
        ("span", "stage"): {"ph", "dur", "id", "parent"},
        ("span", "publish"): {"ph", "dur", "id", "parent"},
        ("span", "transfer"): {"ph", "dur", "id", "src", "dst", "size"},
        ("span", "rpc"): {"ph", "dur", "id", "src", "dst"},
    }

    def test_every_line_parses_and_known_shapes_keep_keys(
        self, traced_workload
    ):
        lines = list(events_jsonl(traced_workload.tracer))
        assert lines
        seen = set()
        for line in lines:
            rec = json.loads(line)  # every line must parse alone
            assert {"ts", "cat", "name"} <= rec.keys()
            shape = (rec["cat"], rec["name"])
            seen.add(shape)
            expected = self.SHAPES.get(shape)
            if expected is not None:
                missing = expected - rec.keys()
                assert not missing, f"{shape} lost keys {missing}"
        # The run must actually have produced every catalogued shape.
        assert set(self.SHAPES) <= seen

    def test_line_count_matches_tracer_contents(self, traced_workload):
        tracer = traced_workload.tracer
        lines = list(events_jsonl(tracer))
        assert len(lines) == len(tracer.events) + len(tracer.spans)

    def test_span_records_reconstruct_durations(self, traced_workload):
        for line in events_jsonl(traced_workload.tracer):
            rec = json.loads(line)
            if rec.get("ph") == "span":
                assert rec["dur"] >= 0
                assert rec["id"] >= 0


class TestChromeLaneMetadata:
    def test_every_lane_has_a_thread_name_record(self, traced_workload):
        doc = chrome_trace_doc(traced_workload.tracer)
        events = doc["traceEvents"]
        named = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        used = {e["tid"] for e in events if e["ph"] != "M"}
        assert used, "trace has no records"
        assert used <= set(named), "unnamed lanes in the trace"
        # Lane names are the vm/site/category labels, never empty.
        assert all(named.values())

    def test_process_name_metadata_present(self, traced_workload):
        doc = chrome_trace_doc(traced_workload.tracer)
        procs = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert len(procs) == 1
        assert procs[0]["args"]["name"] == "repro-sim"


class TestTraceCategoriesCli:
    def test_unknown_category_exits_2(self, capsys, tmp_path):
        rc = main(
            [
                "trace", "--scenario", "fanout_bandwidth_aware", "--quick",
                "--categories", "kernel,bogus",
                "--out", str(tmp_path / "t.json"),
            ]
        )
        assert rc == 2
        assert "unknown trace categories" in capsys.readouterr().err

    def test_empty_category_list_exits_2(self, capsys, tmp_path):
        """`--categories ,` selects nothing: a config mistake, not a
        silent all-categories fallback."""
        rc = main(
            [
                "trace", "--scenario", "fanout_bandwidth_aware", "--quick",
                "--categories", ",",
                "--out", str(tmp_path / "t.json"),
            ]
        )
        assert rc == 2
        assert "categories" in capsys.readouterr().err

    def test_category_with_no_events_yields_valid_empty_doc(
        self, capsys, tmp_path
    ):
        """A real category that never fires on this surface (workload
        events on a single-workflow run) must still export valid JSON
        -- just with no trace records beyond the metadata."""
        out = tmp_path / "t.json"
        rc = main(
            [
                "trace", "--scenario", "fanout_bandwidth_aware", "--quick",
                "--categories", "workload",
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [e for e in doc["traceEvents"] if e["ph"] != "M"] == []
