"""Parallel sweep contract: jobs=N is bit-for-bit serial, cells isolate failures."""

import json
import multiprocessing

import pytest

from repro.results import sweep_cell_to_dict
from repro.scenario import get_scenario, run_cells, run_sweep
from repro.scenario.sweep import NONE_LABELS


def _serialized_cells(sweep):
    """Each cell's result payload as canonical JSON (errors as-is)."""
    return [
        json.dumps(sweep_cell_to_dict(c)["result"], sort_keys=True)
        if c.ok
        else c.error
        for c in sweep.cells
    ]


class TestParallelEquivalence:
    def test_jobs2_bit_for_bit_equal_to_serial_on_2x2_grid(self):
        base = get_scenario("paper_synthetic")
        axes = {
            "strategy.name": ["centralized", "hybrid"],
            "seed": [0, 1],
        }
        serial = run_sweep(base, axes, quick=True, jobs=1)
        parallel = run_sweep(base, axes, quick=True, jobs=2)
        assert _serialized_cells(serial) == _serialized_cells(parallel)

    @pytest.mark.slow
    def test_jobs4_bit_for_bit_equal_on_8_cell_grid(self):
        base = get_scenario("paper_synthetic")
        axes = {
            "strategy.name": ["centralized", "hybrid"],
            "n_nodes": [4, 8],
            "seed": [0, 1],
        }
        serial = run_sweep(base, axes, quick=True, jobs=1)
        parallel = run_sweep(base, axes, quick=True, jobs=4)
        assert len(serial.cells) == 8
        assert _serialized_cells(serial) == _serialized_cells(parallel)

    def test_parallel_workflow_surface_matches_serial(self):
        # The workflow surface pickles a prebuilt DAG to the workers;
        # serial mode deep-copies it per cell -- same isolation.
        from repro.experiments.scheduler_compare import run_scheduler_compare

        policies = ("locality", "bandwidth_aware")
        serial = run_scheduler_compare(policies=policies, jobs=1)
        parallel = run_scheduler_compare(policies=policies, jobs=2)
        assert serial.makespan == parallel.makespan
        assert serial.wan_bytes == parallel.wan_bytes
        assert serial.tasks_per_site == parallel.tasks_per_site

    def test_jobs_rejects_nonpositive(self):
        base = get_scenario("paper_synthetic")
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(base, {"seed": [0, 1]}, quick=True, jobs=0)
        with pytest.raises(ValueError, match="jobs"):
            run_cells([({}, base)], jobs=-1)

    def test_abandoned_parallel_stream_stops_its_workers(self):
        # The figures stop reading at their first errored cell; closing
        # the stream must shut the pool down rather than let it run on.
        base = get_scenario("paper_synthetic")
        cells = [({"seed": s}, base.replace(seed=s)) for s in range(4)]
        stream = run_cells(cells, quick=True, jobs=2)
        first = next(stream)
        assert first.ok and first.overrides == {"seed": 0}
        stream.close()
        assert multiprocessing.active_children() == []


class TestFailureIsolation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_invalid_override_errors_one_cell_only(self, jobs):
        base = get_scenario("paper_synthetic")
        res = run_sweep(
            base,
            {"strategy.name": ["centralized", "nope"]},
            quick=True,
            jobs=jobs,
        )
        assert len(res.cells) == 2
        ok, bad = res.cells
        assert ok.ok and ok.result is not None
        assert not bad.ok and bad.result is None
        assert "nope" in bad.error
        assert res.ok_cells() == [ok]
        assert res.errored_cells() == [bad]
        assert ok.unwrap() is ok.result
        with pytest.raises(RuntimeError, match="nope"):
            bad.unwrap()

    def test_runtime_failure_is_captured_per_cell(self):
        # An override that passes replace() but fails at run time:
        # a fair-model-only knob under the slots model.
        base = get_scenario("paper_synthetic")
        res = run_sweep(
            base,
            {"network.egress_cap_mb": [None, 50.0]},
            quick=True,
        )
        assert res.cells[0].ok
        assert not res.cells[1].ok
        assert "egress" in res.cells[1].error

    def test_errored_cells_render_inline(self):
        base = get_scenario("paper_synthetic")
        res = run_sweep(
            base, {"strategy.name": ["centralized", "nope"]}, quick=True
        )
        text = res.render()
        assert "ERROR:" in text
        assert "nope" in text
        # The good cell still shows its makespan.
        assert "centralized" in text


class TestFailureIsolationPersistence:
    """A raising cell mid-sweep must not cost the surviving cells
    their artifacts: every ok cell persists under its spec-hash key,
    the failed cell is reported and writes nothing -- identically in
    serial and parallel mode (the CLI's ``sweep --out`` contract)."""

    AXES = {"strategy.name": ["centralized", "nope", "hybrid"]}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_surviving_cells_persist_with_spec_hash_keys(
        self, tmp_path, jobs
    ):
        from repro.results import ResultStore

        base = get_scenario("paper_synthetic")
        res = run_sweep(base, self.AXES, quick=True, jobs=jobs)
        assert len(res.cells) == 3
        # The middle cell raised; its neighbours are intact.
        assert [c.ok for c in res.cells] == [True, False, True]
        assert "nope" in res.cells[1].error

        store = ResultStore(tmp_path / "runs")
        for cell in res.ok_cells():
            store.save(cell.result, overrides=cell.overrides)

        assert len(store) == 2
        on_disk = {p.stem for p in store.paths()}
        expected = {
            ResultStore.key_for(c.result.spec) for c in res.ok_cells()
        }
        assert on_disk == expected
        # Keys are derived from the cell's own spec (quick runs carry
        # the quick-reduced spec), so rebuilding the overridden spec
        # round-trips to the persisted payload.
        for cell in res.ok_cells():
            spec = base.replace(**cell.overrides).quick()
            doc = store.lookup(spec)
            assert doc is not None
            assert doc["meta"]["overrides"] == cell.overrides

    def test_failed_cell_key_absent_even_when_spec_is_valid(
        self, tmp_path
    ):
        # A cell can fail at *run* time with a perfectly hashable
        # spec; its key must still be absent from the store.
        from repro.results import ResultStore

        base = get_scenario("paper_synthetic")
        res = run_sweep(
            base,
            {"network.egress_cap_mb": [None, 50.0]},
            quick=True,
        )
        assert [c.ok for c in res.cells] == [True, False]
        store = ResultStore(tmp_path / "runs")
        for cell in res.ok_cells():
            store.save(cell.result, overrides=cell.overrides)
        failed_spec = base.replace(**{"network.egress_cap_mb": 50.0})
        assert store.lookup(failed_spec.quick()) is None
        assert len(store) == 1


class TestNoneLabelRendering:
    def test_none_bandwidth_model_renders_default_name(self):
        base = get_scenario("paper_synthetic")
        res = run_sweep(
            base,
            {"network.bandwidth_model": [None, "fair"]},
            quick=True,
        )
        text = res.render()
        assert "slots" in text
        assert "None" not in text

    def test_none_labels_cover_defaultable_axes(self):
        assert NONE_LABELS["network.bandwidth_model"] == "slots"
        assert NONE_LABELS["scheduler.name"] == "locality"
        assert NONE_LABELS["admission"] == "unbounded"
