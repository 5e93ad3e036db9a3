"""Results layer: serialization, spec-hash stores, and run diffing."""

import json

import pytest

from repro.cloud.deployment import Deployment
from repro.cloud.presets import azure_4dc_topology
from repro.metadata.controller import ArchitectureController
from repro.metadata.stats import OpKind, OpRecord, OpStats
from repro.results import (
    ResultStore,
    current_git_rev,
    diff_artifacts,
    diff_stores,
    result_metrics,
    scenario_result_to_dict,
    sweep_result_to_dict,
    workflow_result_to_dict,
)
from repro.scenario import ScenarioSpec, get_scenario, run_sweep
from repro.workflow.engine import WorkflowEngine, WorkflowResult
from repro.workflow.patterns import pipeline
from repro.workload import WorkloadSpec


def synthetic_result(**over):
    spec = get_scenario("paper_synthetic").replace(**over)
    return spec.run(quick=True)


class TestSerialization:
    def test_synthetic_artifact_round_trips_through_json(self):
        doc = scenario_result_to_dict(synthetic_result())
        loaded = json.loads(json.dumps(doc))
        assert loaded["kind"] == "scenario-result"
        assert loaded["surface"] == "synthetic"
        assert (
            loaded["spec_hash"]
            == ScenarioSpec.from_dict(loaded["spec"]).spec_hash()
        )
        assert loaded["metrics"]["makespan_s"] > 0
        assert loaded["metrics"]["throughput_ops_s"] > 0

    def test_workflow_artifact_round_trips_through_json(self):
        spec = ScenarioSpec(
            surface="workflow", application="montage", ops_per_task=4
        )
        doc = scenario_result_to_dict(spec.run())
        loaded = json.loads(json.dumps(doc))
        assert loaded["surface"] == "workflow"
        assert loaded["metrics"]["tasks"] > 0
        assert "transfer_time_s" in loaded["metrics"]

    def test_workload_artifact_round_trips_through_json(self):
        spec = ScenarioSpec(
            surface="workload",
            workload=WorkloadSpec.uniform(
                2, applications=("pipeline",), ops_per_task=4, name="t"
            ),
            n_nodes=4,
        )
        result = spec.run()
        doc = scenario_result_to_dict(result)
        loaded = json.loads(json.dumps(doc))
        assert loaded["surface"] == "workload"
        assert loaded["metrics"]["jain_fairness"] > 0
        assert loaded["metrics"]["completed"] == 2

    def test_artifact_reproduces_run(self):
        # The embedded spec alone re-runs to the identical payload.
        doc = scenario_result_to_dict(synthetic_result())
        replay = ScenarioSpec.from_dict(doc["spec"]).run()
        assert scenario_result_to_dict(replay) == doc

    def test_sweep_document_includes_errored_cells(self):
        sweep = run_sweep(
            get_scenario("paper_synthetic"),
            {"strategy.name": ["centralized", "nope"]},
            quick=True,
        )
        doc = json.loads(json.dumps(sweep_result_to_dict(sweep)))
        assert doc["kind"] == "sweep-result"
        assert len(doc["cells"]) == 2
        assert doc["cells"][0]["error"] is None
        assert doc["cells"][1]["result"] is None
        assert "nope" in doc["cells"][1]["error"]


class TestWorkflowPayload:
    @pytest.fixture
    def result(self, fast_config):
        dep = Deployment(
            topology=azure_4dc_topology(jitter=False), n_nodes=4, seed=71
        )
        ctrl = ArchitectureController(
            dep, strategy="hybrid", config=fast_config
        )
        engine = WorkflowEngine(dep, ctrl.strategy)
        res = engine.run(pipeline(3, compute_time=0.05, extra_ops=4))
        ctrl.shutdown()
        return res

    def test_workflow_result_dict_shape(self, result):
        doc = workflow_result_to_dict(result)
        assert doc["workflow"] == "pipeline"
        assert doc["strategy"] == "hybrid"
        assert doc["makespan"] > 0
        assert len(doc["tasks"]) == 3
        assert "op_metrics" in doc
        assert "ops" not in doc


class TestOpMetrics:
    """The ``op_metrics`` block of a workflow payload: eight headline
    numbers of the run's op trace."""

    @staticmethod
    def op_metrics(stats):
        result = WorkflowResult(
            workflow="w", strategy="hybrid", makespan=0.4, ops=stats
        )
        return workflow_result_to_dict(result)["op_metrics"]

    def test_summarize(self):
        stats = OpStats()
        stats.add(
            OpRecord(OpKind.WRITE, "k", "s", 0.0, 0.1, local=True)
        )
        stats.add(
            OpRecord(
                OpKind.READ, "k", "s", 0.1, 0.4, local=False, retries=2
            )
        )
        m = self.op_metrics(stats)
        assert sorted(m) == sorted(
            [
                "total_ops", "makespan", "throughput", "mean_read_latency",
                "mean_write_latency", "p99_latency", "local_fraction",
                "total_retries",
            ]
        )
        assert m["total_ops"] == 2
        assert m["makespan"] == pytest.approx(0.4)
        assert m["mean_write_latency"] == pytest.approx(0.1)
        assert m["mean_read_latency"] == pytest.approx(0.3)
        assert m["local_fraction"] == 0.5
        assert m["total_retries"] == 2
        assert m["throughput"] == pytest.approx(5.0)

    def test_empty_stats(self):
        m = self.op_metrics(OpStats())
        assert m["total_ops"] == 0
        assert m["throughput"] == 0.0

    def test_no_op_trace_no_block(self):
        result = WorkflowResult(workflow="w", strategy="hybrid", makespan=1.0)
        assert "op_metrics" not in workflow_result_to_dict(result)


class TestResultStore:
    def test_save_load_lookup_list(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        result = synthetic_result()
        path = store.save(
            result,
            overrides={"seed": 0},
            git_rev="abc1234",
            wall_time_s=1.5,
        )
        key = store.key_for(result.spec)
        assert path.name == f"{key}.json"
        assert key.endswith(f"-s{result.spec.seed}")
        # Key prefix is the first 12 hash hex chars.
        assert key.split("-")[0] == result.spec.spec_hash()[:12]

        doc = store.load(key)
        assert doc["meta"]["git_rev"] == "abc1234"
        assert doc["meta"]["wall_time_s"] == 1.5
        assert doc["meta"]["overrides"] == {"seed": 0}
        assert store.load(path) == doc

        assert store.lookup(result.spec)["spec_hash"] == result.spec.spec_hash()
        assert store.lookup(result.spec.replace(seed=99)) is None

        docs = store.list()
        assert len(docs) == len(store) == 1
        assert docs[0]["key"] == key

    def test_load_missing_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(FileNotFoundError):
            store.load("ffffffffffff-s0")

    def test_empty_or_absent_store_lists_nothing(self, tmp_path):
        assert ResultStore(tmp_path / "nope").list() == []
        assert len(ResultStore(tmp_path / "nope")) == 0

    @pytest.mark.parametrize(
        "document, kind",
        [([], "None"), ({"kind": "sweep-result"}, "'sweep-result'"),
         ({}, "None")],
    )
    def test_list_refuses_a_file_that_is_no_run_artifact(
        self, tmp_path, document, kind
    ):
        store = ResultStore(tmp_path)
        store.save(synthetic_result())
        stray = tmp_path / "stray.json"
        stray.write_text(json.dumps(document))
        with pytest.raises(ValueError) as err:
            store.list()
        assert str(err.value).startswith(
            f"{stray} is not a run artifact: kind {kind}"
        )

    def test_current_git_rev_returns_short_hash(self):
        rev = current_git_rev()
        # Inside the repo checkout this is a short hex rev.
        assert rev != "unknown"
        int(rev, 16)


class TestDiffArtifacts:
    def test_spec_change_and_metric_delta_are_keyed(self):
        a = scenario_result_to_dict(synthetic_result())
        b = scenario_result_to_dict(synthetic_result(seed=3))
        diff = diff_artifacts(a, b, a_label="before", b_label="after")
        assert diff.spec_changes == {"seed": (0, 3)}
        assert set(diff.metric_deltas()) == set(a["metrics"])
        text = diff.render()
        assert "before" in text and "after" in text
        assert "seed" in text
        assert "makespan_s" in text

    def test_identical_artifacts_diff_empty(self):
        a = scenario_result_to_dict(synthetic_result())
        diff = diff_artifacts(a, a)
        assert diff.identical
        assert diff.spec_changes == {}
        assert "identical" in diff.render()

    def test_documents_that_are_not_run_artifacts_are_refused(self):
        artifact = scenario_result_to_dict(synthetic_result())
        sweep = sweep_result_to_dict(
            run_sweep(
                get_scenario("paper_synthetic"), {"seed": [0]}, quick=True
            )
        )
        with pytest.raises(ValueError, match=r"^B is not a run artifact: "
                           r"kind 'sweep-result'"):
            diff_artifacts(artifact, sweep)
        for other in ({}, []):
            with pytest.raises(ValueError, match=r"^A \(old\.json\) is not "
                               r"a run artifact: kind None"):
                diff_artifacts(other, artifact, a_label="old.json")


class TestDiffStores:
    def test_same_specs_pair_by_file_key(self, tmp_path):
        a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        r = synthetic_result()
        a.save(r, git_rev="one")
        b.save(r, git_rev="two")
        diff = diff_stores(a.root, b.root)
        assert len(diff.pairs) == 1
        assert diff.only_a == [] and diff.only_b == []
        assert diff.pairs[0].identical

    def test_changed_spec_pairs_by_name_seed_overrides(self, tmp_path):
        # n_nodes survives the quick() reduction, so the two specs
        # genuinely hash differently.
        a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        a.save(synthetic_result(), overrides={"x": 1})
        b.save(synthetic_result(n_nodes=16), overrides={"x": 1})
        diff = diff_stores(a.root, b.root)
        assert len(diff.pairs) == 1
        assert diff.only_a == [] and diff.only_b == []
        assert "n_nodes" in diff.pairs[0].spec_changes
        assert "n_nodes" in diff.render()

    def test_unmatched_artifacts_are_reported(self, tmp_path):
        a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
        shared = synthetic_result()
        a.save(shared)
        a.save(synthetic_result(seed=5))
        b.save(shared)
        diff = diff_stores(a.root, b.root)
        assert len(diff.pairs) == 1
        assert len(diff.only_a) == 1
        assert diff.only_a[0].endswith("-s5")
        assert diff.only_b == []
        assert "only in A" in diff.render()


class TestElasticSerialization:
    def test_elastic_block_and_metrics_ride_on_artifacts(self):
        res = get_scenario("autoscale_ramp").run(quick=True)
        doc = scenario_result_to_dict(res)
        el = doc["elastic"]
        assert el["policy"] == "predictive"
        assert el["vm_seconds"] == pytest.approx(res.elastic.vm_seconds)
        assert el["stranded_tasks"] == 0
        assert [a["delta"] for a in el["actions"]] == [
            d for _, _, d in res.elastic.actions
        ]
        json.dumps(doc)  # artifact stays JSON-clean
        metrics = result_metrics(res)
        assert metrics["vm_seconds"] == pytest.approx(
            res.elastic.vm_seconds
        )
        assert metrics["capacity_cost"] == pytest.approx(res.elastic.cost)
        assert metrics["fleet_peak"] == float(res.elastic.fleet_peak)
        assert metrics["scale_ups"] == float(res.elastic.n_scale_ups)

    def test_disabled_runs_serialize_without_elastic_key(self):
        res = synthetic_result()
        doc = scenario_result_to_dict(res)
        assert "elastic" not in doc
        assert "vm_seconds" not in result_metrics(res)

    def test_elastic_artifacts_diff_on_capacity_metrics(self, tmp_path):
        store = ResultStore(tmp_path)
        a = get_scenario("autoscale_ramp").run(quick=True)
        b = get_scenario("autoscale_ramp").replace(
            **{"elasticity.max_vms_per_site": 1}
        ).run(quick=True)
        da = store.load(store.save(a))
        db = store.load(store.save(b))
        delta = diff_artifacts(da, db)
        assert "elasticity.max_vms_per_site" in delta.spec_changes
        assert "vm_seconds" in delta.metrics
        lo, hi = delta.metrics["vm_seconds"]
        assert lo != hi  # capping the fleet changes the capacity bill
