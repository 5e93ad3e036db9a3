"""Tests for the command-line interface."""

import argparse
import os

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_flags(self):
        args = build_parser().parse_args(["figures", "--quick", "--only", "fig1"])
        assert args.quick and args.only == "fig1"
        assert args.jobs == 1
        args = build_parser().parse_args(["figures", "--jobs", "4"])
        assert args.jobs == 4

    def test_spec_source_options(self):
        """run/trace/analyze/sweep name a spec one way; run has no
        other way to set a knob."""
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )

        def options(name):
            return sorted(
                opt
                for action in sub.choices[name]._actions
                if action.dest != "help"
                for opt in action.option_strings
            )

        assert options("run") == sorted(
            ["--scenario", "--spec", "--set", "--quick", "--dump-spec",
             "--export"]
        )
        assert "simulate" not in sub.choices
        for name, extra in (
            ("trace", ["--out", "--jsonl", "--categories"]),
            ("analyze", ["--artifact", "--out"]),
            ("sweep", ["--jobs", "--out", "--export"]),
        ):
            assert options(name) == sorted(
                ["--scenario", "--spec", "--set", "--quick"] + extra
            )

    @pytest.mark.parametrize("command", ["run", "trace", "analyze", "sweep"])
    def test_spec_source_is_required_and_exclusive(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [command, "--scenario", "paper_default", "--spec", "x.json"]
            )

    def test_set_is_repeatable(self):
        args = build_parser().parse_args(
            ["run", "--scenario", "paper_default",
             "--set", "seed=3", "--set", "strategy.name=dn"]
        )
        assert cli.parse_overrides(args.overrides) == {
            "seed": 3, "strategy.name": "dn"
        }


class TestCommands:
    def test_strategies_lists_all(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in (
            "centralized",
            "replicated",
            "decentralized",
            "hybrid",
            "subtree",
            "relational-db",
            "k-replicated",
        ):
            assert name in out

    def test_run_synthetic_scenario(self, capsys):
        assert (
            main(
                [
                    "run", "--scenario", "paper_synthetic",
                    "--set", "strategy.name=dn",
                    "--set", "n_nodes=8",
                    "--set", "ops_per_node=10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "mean node time by site" in out

    def test_advise_montage(self, capsys):
        assert main(["advise", "--workflow", "montage", "--ops", "1000"]) == 0
        out = capsys.readouterr().out
        assert "recommended strategy: decentralized" in out

    def test_figures_single_quick(self, capsys):
        assert main(["figures", "--quick", "--only", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out

    def test_figures_sweep_in_worker_processes(self, capsys):
        assert main(["figures", "--quick", "--only", "fig8", "--jobs", "2"]) == 0
        assert "Fig. 8" in capsys.readouterr().out

    def test_figures_rejects_bad_jobs(self, capsys):
        assert main(["figures", "--only", "fig8", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_run_with_workflow_file_and_export(self, capsys, tmp_path):
        from repro.workflow import pipeline
        from repro.workflow.serialization import save_workflow

        wf_path = tmp_path / "wf.json"
        out_path = tmp_path / "run.json"
        save_workflow(pipeline(3, extra_ops=4), wf_path)
        assert (
            main(
                [
                    "run", "--scenario", "paper_default",
                    "--set", f"workflow_file={wf_path}",
                    "--set", "strategy.name=dr",
                    "--set", "n_nodes=8",
                    "--export", str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "tasks per site" in out
        import json

        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "scenario-result"
        assert doc["result"]["strategy"] == "hybrid"
        assert doc["meta"]["overrides"]["strategy.name"] == "dr"

    @pytest.mark.parametrize(
        "content", [None, "not json"], ids=["missing", "malformed"]
    )
    def test_run_with_bad_workflow_file_fails_cleanly(
        self, content, capsys, tmp_path
    ):
        wf_path = tmp_path / "wf.json"
        if content is not None:
            wf_path.write_text(content)
        rc = main(
            ["run", "--scenario", "paper_default", "--quick",
             "--set", f"workflow_file={wf_path}"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_advise_from_file(self, capsys, tmp_path):
        from repro.workflow import pipeline
        from repro.workflow.serialization import save_workflow

        wf_path = tmp_path / "wf.json"
        save_workflow(pipeline(5, extra_ops=1200), wf_path)
        assert main(["advise", "--file", str(wf_path)]) == 0
        out = capsys.readouterr().out
        assert "recommended strategy" in out

    def test_advise_requires_target(self):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--workflow", "montage", "--nodes", "0"],
             "--nodes must be a positive integer, got 0"),
            (["--workflow", "montage", "--ops", "-5"],
             "--ops must be an integer >= 0, got -5"),
            (["--file", "/nonexistent/wf.json"], "/nonexistent/wf.json"),
            (["--file", "{bad}"], "invalid JSON in"),
        ],
        ids=["zero-nodes", "negative-ops", "missing-file", "bad-document"],
    )
    def test_advise_bad_input_fails_cleanly(
        self, argv, message, capsys, tmp_path
    ):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        argv = [a.replace("{bad}", str(bad)) for a in argv]
        assert main(["advise"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert message in captured.err
        assert "recommended strategy" not in captured.out


class TestFiguresCommand:
    """``figures`` is the one front door to the paper's figures."""

    @pytest.fixture
    def fake_figures(self, monkeypatch):
        """Replace every figure with a stub recording ``(quick, jobs)``."""
        calls = {}

        class FakeResult:
            def __init__(self, name):
                self.name = name

            def render(self):
                return f"TABLE-{self.name}"

        def stub(name):
            def run(quick, jobs):
                calls[name] = (quick, jobs)
                return FakeResult(name)

            return run

        monkeypatch.setattr(
            cli, "FIGURES", {name: stub(name) for name in cli.FIGURES}
        )
        return calls

    def test_table_covers_every_paper_figure(self):
        assert sorted(cli.FIGURES) == sorted(
            ["fig1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig10"]
        )
        assert all(callable(run) for run in cli.FIGURES.values())

    def test_runs_every_figure_and_prints_each_render(
        self, fake_figures, capsys
    ):
        assert main(["figures", "--quick", "--jobs", "3"]) == 0
        out = capsys.readouterr().out
        assert fake_figures == {name: (True, 3) for name in cli.FIGURES}
        headers = [line for line in out.splitlines() if line.startswith("===")]
        assert headers == [f"=== {name} ===" for name in sorted(cli.FIGURES)]
        for name in cli.FIGURES:
            assert f"TABLE-{name}" in out

    def test_only_runs_the_named_figure(self, fake_figures, capsys):
        assert main(["figures", "--only", "fig6"]) == 0
        assert fake_figures == {"fig6": (False, 1)}
        assert "TABLE-fig6" in capsys.readouterr().out

    def test_unknown_figure_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--only", "fig2"])
        assert exc.value.code == 2

    def test_negative_jobs_rejected_before_any_figure_runs(
        self, fake_figures, capsys
    ):
        assert main(["figures", "--jobs", "-1"]) == 2
        assert fake_figures == {}
        assert "--jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["fig5", "fig6", "fig7", "fig8", "fig10"]
    )
    def test_jobs_reach_each_sweep_backed_figure(self, name, monkeypatch):
        seen = []
        # The CLI imports each harness when its figure runs.
        harness = {
            "fig5": "fig5_makespan",
            "fig6": "fig6_progress",
            "fig7": "fig7_throughput",
            "fig8": "fig8_scalability",
            "fig10": "fig10_workflows",
        }[name]
        monkeypatch.setattr(
            f"repro.experiments.{harness}.run_{name}",
            lambda **kwargs: seen.append(kwargs),
        )
        cli.FIGURES[name](True, 4)
        cli.FIGURES[name](False, 4)
        quick, full = seen
        assert quick["jobs"] == full["jobs"] == 4
        assert quick != full  # --quick shrinks the grid


class TestSchedulerFlags:
    def test_schedulers_lists_all_policies(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        for name in (
            "locality",
            "round_robin",
            "load_balanced",
            "bandwidth_aware",
            "hybrid",
        ):
            assert name in out

    def test_run_with_scheduler(self, capsys):
        assert (
            main(
                [
                    "run", "--scenario", "paper_default",
                    "--set", "strategy.name=dn",
                    "--set", "n_nodes=8",
                    "--set", "ops_per_task=2",
                    "--set", "scheduler.name=load_balanced",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "load_balanced" in out

    def test_unknown_scheduler_rejected(self, capsys):
        rc = main(
            [
                "run", "--scenario", "paper_default",
                "--set", "scheduler.name=annealing",
            ]
        )
        assert rc == 2
        assert "scheduler must be None or one of" in capsys.readouterr().err

    def test_knobs_accepted_with_matching_scheduler(self, capsys):
        assert (
            main(
                [
                    "run", "--scenario", "paper_default",
                    "--set", "strategy.name=dn",
                    "--set", "n_nodes=8",
                    "--set", "ops_per_task=2",
                    "--set", "scheduler.name=hybrid",
                    "--set", "scheduler.hybrid_locality_weight=2.0",
                    "--set", "scheduler.bw_pending_penalty=0.5",
                ]
            )
            == 0
        )
        assert "hybrid" in capsys.readouterr().out


class TestWorkloadFlags:
    def test_workloads_lists_applications_and_policies(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("montage-small", "ingest", "max_in_flight"):
            assert name in out

    def test_run_multi_tenant_closed_loop(self, capsys):
        assert (
            main(
                [
                    "run", "--scenario", "multi_tenant_8",
                    "--set", "max_in_flight=2", "--quick",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "tenant-02" in out
        assert "peak in-flight 2 (bound 2)" in out
        assert "Jain fairness" in out

    def test_open_loop_run(self, capsys):
        assert main(["run", "--scenario", "open_loop_tokens", "--quick"]) == 0
        assert "open loop" in capsys.readouterr().out


class TestScenarioFlags:
    def test_scenarios_lists_registry(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in (
            "paper_default",
            "paper_synthetic",
            "fair_capped",
            "multi_tenant_8",
            "outage_resilience",
        ):
            assert name in out

    def test_dump_spec_to_stdout(self, capsys):
        """The fast-profile smoke check: overrides land in the spec."""
        assert (
            main(
                [
                    "run", "--scenario", "paper_default",
                    "--set", "ops_per_task=2", "--set", "n_nodes=8",
                    "--dump-spec", "-",
                ]
            )
            == 0
        )
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["surface"] == "workflow"
        assert doc["application"] == "montage"
        assert doc["ops_per_task"] == 2
        assert doc["n_nodes"] == 8

    def test_dump_spec_then_spec_reproduces_the_run(self, capsys, tmp_path):
        """--dump-spec output re-fed via --spec reproduces the same
        result object (identical rendered report)."""
        flags = [
            "run", "--scenario", "paper_default",
            "--set", "application=buzzflow", "--set", "strategy.name=dn",
            "--set", "ops_per_task=2", "--set", "n_nodes=8",
            "--set", "seed=3",
        ]
        assert main(flags) == 0
        direct_out = capsys.readouterr().out
        path = tmp_path / "spec.json"
        assert main(flags + ["--dump-spec", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", "--spec", str(path)]) == 0
        spec_out = capsys.readouterr().out
        assert spec_out == direct_out

    def test_dump_spec_quick_replays_the_quick_run(self, capsys, tmp_path):
        """Under --quick the dumped spec is the reduced one, so the file
        alone replays what the quick run ran."""
        flags = ["run", "--scenario", "multi_tenant_8", "--quick"]
        assert main(flags) == 0
        quick_out = capsys.readouterr().out
        path = tmp_path / "quick.json"
        assert main(flags + ["--dump-spec", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", "--spec", str(path)]) == 0
        assert capsys.readouterr().out == quick_out

    def test_dump_spec_for_workload_mode(self, capsys, tmp_path):
        path = tmp_path / "wl.json"
        assert (
            main(
                [
                    "run", "--scenario", "multi_tenant_8",
                    "--set", "max_in_flight=2",
                    "--dump-spec", str(path),
                ]
            )
            == 0
        )
        import json

        doc = json.loads(path.read_text())
        assert doc["surface"] == "workload"
        assert doc["admission"] == "max_in_flight"
        assert doc["max_in_flight"] == 2
        assert len(doc["workload"]["tenants"]) == 8

    def test_set_overrides_a_spec_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        assert (
            main(
                [
                    "run", "--scenario", "paper_default",
                    "--set", "ops_per_task=2", "--dump-spec", str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "run", "--spec", str(path), "--set", "n_nodes=4",
                    "--set", "elasticity.enabled=true",
                    "--set", 'strategy={"name": "decentralized"}',
                    "--set", 'faults=[{"kind": "site_outage", '
                    '"site": "west-europe", "start": 0.5, "duration": 2.0}]',
                    "--dump-spec", "-",
                ]
            )
            == 0
        )
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["ops_per_task"] == 2
        assert doc["n_nodes"] == 4
        assert doc["elasticity"]["enabled"] is True
        # A JSON object fills the whole sub-spec, as in a spec file.
        assert doc["strategy"]["name"] == "decentralized"
        assert doc["strategy"]["home_site"] is None
        assert doc["faults"][0]["site"] == "west-europe"
        assert doc["faults"][0]["duration"] == 2.0

    # Every guard is a ScenarioSpec.validate() rule: an override that
    # breaks one exits 2 with a message naming spec paths, before any
    # simulation starts.
    @pytest.mark.parametrize(
        "overrides,message",
        [
            (
                ["scheduler.hybrid_load_weight=2"],
                "require scheduler.name='hybrid'",
            ),
            (
                ["scheduler.bw_pending_penalty=0.5"],
                "bw_pending_penalty requires scheduler.name=",
            ),
            (["admission=unbounded"], "workload-surface knob"),
            (["elasticity.lag_s=5"], "elasticity knobs require enabled"),
            (["compute_time=NaN"], "compute_time must be"),
            (["n_nodes=2.5"], "n_nodes must be a positive integer"),
            (["nmae=1"], "bad override"),
            (["scheduler.nmae=1"], "unknown field"),
            (['strategy={"nmae": "hybrid"}'], "unknown StrategySpec keys"),
            (["strategy=hybrid"], "strategy must be a StrategySpec"),
            (
                ['faults=[{"kind": "site_outage", "sight": "east-us"}]'],
                "unknown FaultSpec keys",
            ),
        ],
    )
    def test_invalid_override_exits_2(self, overrides, message, capsys):
        argv = ["run", "--scenario", "paper_default"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_bad_set_syntax(self, capsys):
        rc = main(["run", "--scenario", "paper_default", "--set", "n_nodes"])
        assert rc == 2
        assert "expected dotted.path=value" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        assert main(["run", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_spec_missing_file_errors_cleanly(self, capsys):
        rc = main(["run", "--spec", "/nonexistent/spec.json"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_spec_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"surface": "workflow", "admission": "unbounded"}')
        rc = main(["run", "--spec", str(path)])
        assert rc == 2
        assert "workload-surface" in capsys.readouterr().err

    def test_wrongly_typed_spec_rejected_cleanly(self, capsys, tmp_path):
        """Hand-edited JSON with a mistyped value errors, not a traceback."""
        path = tmp_path / "typed.json"
        path.write_text('{"surface": "workflow", "n_nodes": "eight"}')
        rc = main(["run", "--spec", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_runtime_value_error_reported_cleanly(self, capsys, tmp_path):
        """A spec that validates but cannot run (1-node synthetic
        benchmark) exits 2 with an error line, not a traceback."""
        from repro.scenario import ScenarioSpec

        path = tmp_path / "tiny.json"
        ScenarioSpec(surface="synthetic", n_nodes=1, ops_per_node=2).save(
            path
        )
        rc = main(["run", "--spec", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_run_named_scenario_via_dumped_spec(self, capsys, tmp_path):
        """Registry scenarios are plain spec files once saved."""
        from repro.scenario import get_scenario

        spec = get_scenario("paper_default").replace(
            ops_per_task=2, n_nodes=8
        )
        path = tmp_path / "paper.json"
        spec.save(path)
        assert main(["run", "--spec", str(path)]) == 0
        assert "tasks per site" in capsys.readouterr().out


class TestOutputPaths:
    """A bad output path ends in ``error:`` and exit 2, not a
    traceback; a missing directory is reported before anything runs."""

    MISSING = "/nonexistent/dir/x.json"

    @pytest.fixture
    def no_runs(self, monkeypatch):
        from repro.scenario import ScenarioSpec

        def refuse(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(ScenarioSpec, "run", refuse)
        monkeypatch.setattr(cli, "run_sweep", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--scenario", "paper_default", "--dump-spec", MISSING],
            ["run", "--scenario", "paper_default", "--export", MISSING],
            ["trace", "--scenario", "paper_default", "--out", MISSING],
            ["trace", "--scenario", "paper_default", "--out", "{tmp}",
             "--jsonl", MISSING],
            ["analyze", "--scenario", "paper_default", "--out", MISSING],
            ["sweep", "--scenario", "paper_synthetic", "--set", "seed=1,2",
             "--export", MISSING],
        ],
        ids=["run-dump-spec", "run-export", "trace-out", "trace-jsonl",
             "analyze-out", "sweep-export"],
    )
    def test_missing_directory_fails_before_the_run(
        self, argv, no_runs, capsys, tmp_path
    ):
        argv = [a.replace("{tmp}", str(tmp_path / "t.json")) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write /nonexistent/dir/x.json")
        assert not list(tmp_path.iterdir())

    def test_store_under_a_file_fails_before_the_sweep(
        self, no_runs, capsys, tmp_path
    ):
        (tmp_path / "file").write_text("")
        rc = main(
            ["sweep", "--scenario", "paper_synthetic", "--set", "seed=1,2",
             "--out", str(tmp_path / "file" / "store")]
        )
        assert rc == 2
        assert "is not a directory" in capsys.readouterr().err

    def test_unwritable_path_fails_cleanly(self, capsys, tmp_path):
        """A path the check lets through (here a directory) still ends
        in ``error:`` when the write fails."""
        rc = main(
            ["run", "--scenario", "paper_default", "--dump-spec",
             str(tmp_path)]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestSweepCommand:
    def test_sweep_over_spec_file(self, capsys, tmp_path):
        from repro.scenario import ScenarioSpec, StrategySpec

        path = tmp_path / "base.json"
        ScenarioSpec(
            name="sweep-base",
            surface="synthetic",
            strategy=StrategySpec(name="hybrid"),
            ops_per_node=5,
            n_nodes=8,
            seed=1,
        ).save(path)
        assert (
            main(
                [
                    "sweep", "--spec", str(path),
                    "--set", "strategy.name=centralized,hybrid",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 combinations" in out
        assert "centralized" in out and "hybrid" in out
        # A JSON object is one axis value: the whole sub-spec.
        assert (
            main(
                [
                    "sweep", "--spec", str(path),
                    "--set", 'strategy={"name": "decentralized"}',
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 combinations" in out
        assert "ERROR" not in out

    def test_sweep_export(self, capsys, tmp_path):
        from repro.scenario import ScenarioSpec

        base = tmp_path / "base.json"
        out_path = tmp_path / "sweep.json"
        ScenarioSpec(
            surface="synthetic", ops_per_node=5, n_nodes=8
        ).save(base)
        assert (
            main(
                [
                    "sweep", "--spec", str(base),
                    "--set", "n_nodes=4,8",
                    "--export", str(out_path),
                ]
            )
            == 0
        )
        import json

        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "sweep-result"
        assert len(doc["cells"]) == 2
        assert doc["axes"] == {"n_nodes": [4, 8]}

    def test_sweep_requires_axes(self, capsys):
        rc = main(["sweep", "--scenario", "paper_synthetic"])
        assert rc == 2
        assert "--set" in capsys.readouterr().err

    def test_sweep_bad_set_syntax(self, capsys):
        rc = main(
            ["sweep", "--scenario", "paper_synthetic", "--set", "n_nodes"]
        )
        assert rc == 2
        assert "dotted.path" in capsys.readouterr().err

    def test_sweep_splits_axes_on_top_level_commas_only(
        self, capsys, tmp_path
    ):
        import json

        strategy = '{"name":"hybrid","home_site":"east-us"}'
        assert cli.parse_overrides([f"strategy={strategy}"], axes=True) == {
            "strategy": ({"name": "hybrid", "home_site": "east-us"},)
        }
        assert cli.parse_overrides(
            ['faults=[{"kind":"a"},{"kind":"b"}]'], axes=True
        ) == {"faults": ([{"kind": "a"}, {"kind": "b"}],)}
        assert cli.parse_overrides(
            ["strategy.name=centralized,hybrid"], axes=True
        ) == {"strategy.name": ("centralized", "hybrid")}
        out_path = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep", "--scenario", "paper_synthetic", "--quick",
                "--set", f"strategy={strategy}",
                "--export", str(out_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 combinations" in out
        assert "ERROR" not in out
        (cell,) = json.loads(out_path.read_text())["cells"]
        assert cell["error"] is None
        assert cell["result"]["spec"]["strategy"]["home_site"] == "east-us"

    def test_sweep_unknown_scenario(self, capsys):
        rc = main(["sweep", "--scenario", "nope", "--set", "n_nodes=4"])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestSweepParallelAndStore:
    def _base(self, tmp_path):
        from repro.scenario import ScenarioSpec

        path = tmp_path / "base.json"
        ScenarioSpec(
            name="cli-par", surface="synthetic", ops_per_node=5, n_nodes=8
        ).save(path)
        return path

    def test_sweep_jobs_writes_same_artifacts_as_serial(
        self, capsys, tmp_path
    ):
        base = self._base(tmp_path)
        argv = ["sweep", "--spec", str(base), "--set", "seed=0,1"]
        assert main(argv + ["--jobs", "2", "--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out
        assert "2 artifacts written" in out
        a_files = sorted(p.name for p in (tmp_path / "a").glob("*.json"))
        b_files = sorted(p.name for p in (tmp_path / "b").glob("*.json"))
        assert a_files == b_files and len(a_files) == 2
        import json

        for name in a_files:
            doc_a = json.loads((tmp_path / "a" / name).read_text())
            doc_b = json.loads((tmp_path / "b" / name).read_text())
            # meta carries wall time (varies run to run); the result
            # payload itself is bit-for-bit identical.
            doc_a.pop("meta")
            doc_b.pop("meta")
            assert doc_a == doc_b

    def test_sweep_rejects_bad_jobs(self, capsys):
        rc = main(
            [
                "sweep", "--scenario", "paper_synthetic",
                "--set", "seed=0", "--jobs", "0",
            ]
        )
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_export_marks_errored_cells(self, capsys, tmp_path):
        import json

        base = self._base(tmp_path)
        out_path = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "sweep", "--spec", str(base),
                    "--set", "strategy.name=centralized,nope",
                    "--export", str(out_path),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "1 of 2 cells errored" in err
        doc = json.loads(out_path.read_text())
        assert doc["cells"][0]["error"] is None
        assert doc["cells"][0]["result"]["metrics"]["makespan_s"] > 0
        assert doc["cells"][1]["result"] is None
        assert "nope" in doc["cells"][1]["error"]


class TestResultsCommand:
    def test_results_lists_store(self, capsys, tmp_path):
        base_path = tmp_path / "base.json"
        from repro.scenario import ScenarioSpec

        ScenarioSpec(
            name="cli-res", surface="synthetic", ops_per_node=5, n_nodes=8
        ).save(base_path)
        store = tmp_path / "runs"
        assert (
            main(
                [
                    "sweep", "--spec", str(base_path),
                    "--set", "seed=0,1",
                    "--out", str(store),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["results", str(store)]) == 0
        out = capsys.readouterr().out
        assert "2 artifacts" in out
        assert "cli-res" in out
        assert "-s0" in out and "-s1" in out

    def test_results_empty_store_errors(self, capsys, tmp_path):
        rc = main(["results", str(tmp_path / "empty")])
        assert rc == 2
        assert "no artifacts" in capsys.readouterr().err

    @pytest.mark.parametrize("stray", ["list", "sweep", "malformed"])
    def test_results_and_diff_refuse_a_file_that_is_no_artifact(
        self, capsys, tmp_path, stray
    ):
        store = tmp_path / "runs"
        assert main(
            ["sweep", "--scenario", "paper_synthetic", "--quick",
             "--set", "seed=0", "--out", str(store)]
        ) == 0
        bad = store / f"{stray}.json"
        if stray == "list":
            bad.write_text("[]")
        elif stray == "malformed":
            bad.write_text("{bad")
        else:
            assert main(
                ["sweep", "--scenario", "paper_synthetic", "--quick",
                 "--set", "seed=0", "--export", str(bad)]
            ) == 0
        why = "is not valid JSON" if stray == "malformed" else (
            "is not a run artifact"
        )
        capsys.readouterr()
        for argv, name in ((["results", str(store)], bad),
                           (["diff", str(store), str(store)], bad),
                           (["diff", str(bad), str(bad)], f"A ({bad})"),
                           (["analyze", "--artifact", str(bad)], bad)):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {name} {why}")
            assert len(err.splitlines()) == 1
        bad.unlink()
        assert main(["results", str(store)]) == 0
        assert "1 artifacts" in capsys.readouterr().out

    def test_results_surfaces_obs_and_slo_columns(self, capsys, tmp_path):
        from repro.results import ResultStore
        from repro.scenario import get_scenario

        store = ResultStore(tmp_path / "runs")
        store.save(get_scenario("multi_tenant_slo").run(quick=True))
        # An untraced, SLO-less run lands in the same store.
        store.save(get_scenario("paper_synthetic").run(quick=True))
        capsys.readouterr()
        assert main(["results", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "obs" in out and "SLO" in out
        assert "violated" in out  # the judged artifact
        assert "ev+an" in out  # event count + analysis marker
        # The legacy-shaped artifact renders "-" placeholders, no crash.
        assert "paper_synthetic" in out


class TestDiffCommand:
    def _store(self, tmp_path, name, n_nodes):
        from repro.scenario import ScenarioSpec

        base_path = tmp_path / f"{name}.json"
        ScenarioSpec(
            name="cli-diff",
            surface="synthetic",
            ops_per_node=5,
            n_nodes=n_nodes,
        ).save(base_path)
        store = tmp_path / name
        assert (
            main(
                [
                    "sweep", "--spec", str(base_path),
                    "--set", "seed=0",
                    "--out", str(store),
                ]
            )
            == 0
        )
        return store

    def test_diff_two_stores_renders_keyed_delta(self, capsys, tmp_path):
        a = self._store(tmp_path, "a", n_nodes=8)
        b = self._store(tmp_path, "b", n_nodes=4)
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "1 paired" in out
        assert "n_nodes" in out
        assert "makespan_s" in out

    def test_diff_two_artifact_files(self, capsys, tmp_path):
        a = self._store(tmp_path, "a", n_nodes=8)
        b = self._store(tmp_path, "b", n_nodes=4)
        capsys.readouterr()
        file_a = sorted(a.glob("*.json"))[0]
        file_b = sorted(b.glob("*.json"))[0]
        assert main(["diff", str(file_a), str(file_b)]) == 0
        out = capsys.readouterr().out
        assert "n_nodes" in out
        assert "makespan_s" in out

    def test_diff_mixed_targets_errors(self, capsys, tmp_path):
        a = self._store(tmp_path, "a", n_nodes=8)
        capsys.readouterr()
        file_a = sorted(a.glob("*.json"))[0]
        rc = main(["diff", str(a), str(file_a)])
        assert rc == 2
        assert "two artifact files or two store" in capsys.readouterr().err

    def _export(self, path, *overrides):
        argv = ["run", "--scenario", "paper_synthetic", "--quick"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv + ["--export", str(path)]) == 0

    def test_diff_two_run_exports_at_different_seeds(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._export(a)
        self._export(b, "seed=3")
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        row = next(
            line for line in out.splitlines() if "makespan_s" in line
        )
        assert "%" in row  # a delta, not an empty table
        assert "seed" in out
        assert "identical" not in out

    def test_diff_refuses_a_sweep_document(self, capsys, tmp_path):
        a, sweep = tmp_path / "a.json", tmp_path / "sweep.json"
        self._export(a)
        assert main(
            ["sweep", "--scenario", "paper_synthetic", "--quick",
             "--set", "seed=0,1", "--export", str(sweep)]
        ) == 0
        capsys.readouterr()
        assert main(["diff", str(a), str(sweep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: B (")
        assert "kind 'sweep-result'" in err

    def test_diff_refuses_an_empty_object(self, capsys, tmp_path):
        a, empty = tmp_path / "a.json", tmp_path / "empty.json"
        self._export(a)
        empty.write_text("{}")
        capsys.readouterr()
        assert main(["diff", str(empty), str(a)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: A (")
        assert "not a run artifact: kind None" in err


class TestRunExport:
    """``run --export`` writes the artifact a result store holds."""

    def test_export_equals_the_stored_sweep_cell(self, capsys, tmp_path):
        import json

        exported = tmp_path / "run.json"
        store = tmp_path / "runs"
        source = ["--scenario", "paper_synthetic", "--quick",
                  "--set", "seed=3"]
        assert main(["run"] + source + ["--export", str(exported)]) == 0
        assert main(["sweep"] + source + ["--out", str(store)]) == 0
        assert "artifact written to" in capsys.readouterr().out
        (stored,) = store.glob("*.json")
        doc_run = json.loads(exported.read_text())
        doc_sweep = json.loads(stored.read_text())
        assert doc_run["meta"]["overrides"] == {"seed": 3}
        assert doc_run["meta"].pop("wall_time_s") > 0
        doc_sweep["meta"].pop("wall_time_s")
        assert doc_run == doc_sweep

    @pytest.mark.parametrize("scenario", ["paper_default", "multi_tenant_8"])
    def test_export_on_workflow_and_workload_surfaces(
        self, scenario, capsys, tmp_path
    ):
        import json

        path = tmp_path / "run.json"
        assert main(
            ["run", "--scenario", scenario, "--quick", "--export", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        assert doc["kind"] == "scenario-result"
        assert doc["name"] == scenario
        assert doc["metrics"]["makespan_s"] > 0

    def test_traced_export_analyzes_from_disk(self, capsys, tmp_path):
        path = tmp_path / "slo.json"
        assert main(
            ["run", "--scenario", "multi_tenant_slo", "--quick",
             "--export", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["analyze", "--artifact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "observed critical path" in out
        assert "SLO verdict:" in out


class TestTraceCommand:
    def test_trace_named_scenario_writes_chrome_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "trace",
                    "--scenario",
                    "fanout_bandwidth_aware",
                    "--quick",
                    "--out",
                    str(out),
                    "--jsonl",
                    str(jsonl),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "traced fanout_bandwidth_aware" in printed
        assert "streaming sketches" in printed
        doc = json.loads(out.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"kernel", "network", "scheduler", "span"} <= cats
        lines = jsonl.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)

    def test_trace_category_subset(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace",
                    "--scenario",
                    "fanout_bandwidth_aware",
                    "--quick",
                    "--categories",
                    "scheduler,span",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        cats = {
            e.get("cat")
            for e in json.loads(out.read_text())["traceEvents"]
        }
        assert "kernel" not in cats
        assert {"scheduler", "span"} <= cats

    def test_trace_spec_file(self, capsys, tmp_path):
        from repro.scenario import ScenarioSpec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            ScenarioSpec(
                name="cli-trace-spec",
                surface="workflow",
                application="montage",
                ops_per_task=4,
                n_nodes=8,
            ).to_json()
        )
        out = tmp_path / "trace.json"
        assert (
            main(["trace", "--spec", str(spec_path), "--out", str(out)])
            == 0
        )
        assert "cli-trace-spec" in capsys.readouterr().out
        assert out.exists()

    def test_trace_keeps_spec_observability_knobs(self, capsys):
        """trace switches tracing on but keeps the spec's event budget:
        500 retained events on a run of ~10^5 must drop the rest."""
        assert (
            main(
                [
                    "trace", "--scenario", "fanout_bandwidth_aware",
                    "--quick",
                    "--set", "observability.enabled=true",
                    "--set", "observability.max_events=500",
                    "--out", os.devnull,
                ]
            )
            == 0
        )
        head = capsys.readouterr().out.splitlines()[0]
        dropped = int(head.rpartition("(")[2].split()[0])
        assert dropped > 0, head

    def test_trace_keeps_spec_categories_without_flag(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace", "--scenario", "fanout_bandwidth_aware",
                    "--quick",
                    "--set", "observability.enabled=true",
                    "--set", 'observability.categories=["scheduler"]',
                    "--out", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        cats = {
            e.get("cat")
            for e in json.loads(out.read_text())["traceEvents"]
            if e["ph"] != "M"
        }
        assert cats == {"scheduler"}

    def test_trace_unknown_category_errors(self, capsys, tmp_path):
        rc = main(
            [
                "trace",
                "--scenario",
                "fanout_bandwidth_aware",
                "--quick",
                "--categories",
                "bogus",
                "--out",
                str(tmp_path / "t.json"),
            ]
        )
        assert rc == 2
        assert "unknown" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_analyze_named_scenario_renders_full_report(
        self, capsys, tmp_path
    ):
        out_path = tmp_path / "report.txt"
        assert (
            main(
                [
                    "analyze", "--scenario", "multi_tenant_slo", "--quick",
                    "--out", str(out_path),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        for needle in (
            "time attribution",
            "observed critical path",
            "VM occupancy",
            "SLO verdict: violated",
            "tenant_deadline:tenant-00",
        ):
            assert needle in printed, f"report missing {needle!r}"
        assert "observed critical path" in out_path.read_text()

    def test_analyze_forces_tracing_on(self, capsys):
        # fanout_bandwidth_aware is untraced in the registry; analyze
        # must still produce a span-level report.
        argv = ["analyze", "--scenario", "fanout_bandwidth_aware", "--quick"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "observed critical path" in out
        assert "SLO: none declared" in out

    def test_analyze_spec_file(self, capsys, tmp_path):
        from repro.scenario import ScenarioSpec

        spec_path = tmp_path / "spec.json"
        ScenarioSpec(
            name="cli-analyze-spec",
            surface="workflow",
            application="montage",
            ops_per_task=4,
            n_nodes=8,
        ).save(spec_path)
        assert main(["analyze", "--spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-analyze-spec" in out
        assert "observed critical path" in out

    def test_analyze_stored_artifact_without_rerunning(
        self, capsys, tmp_path
    ):
        from repro.results import ResultStore
        from repro.scenario import get_scenario

        store = ResultStore(tmp_path / "runs")
        artifact = store.save(
            get_scenario("multi_tenant_slo").run(quick=True)
        )
        capsys.readouterr()
        assert main(["analyze", "--artifact", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "stored run" in out
        assert "observed critical path" in out
        assert "SLO verdict: violated" in out

    def test_analyze_artifact_without_blocks_errors(
        self, capsys, tmp_path
    ):
        from repro.results import ResultStore
        from repro.scenario import get_scenario

        store = ResultStore(tmp_path / "runs")
        artifact = store.save(
            get_scenario("paper_synthetic").run(quick=True)
        )
        rc = main(["analyze", "--artifact", str(artifact)])
        assert rc == 2
        assert "no 'analysis' or 'slo'" in capsys.readouterr().err

    def test_analyze_artifact_is_exclusive_with_scenario(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "analyze", "--scenario", "multi_tenant_slo",
                    "--artifact", str(tmp_path / "x.json"),
                ]
            )

    @pytest.mark.parametrize(
        "flags", [["--quick"], ["--set", "n_nodes=4"]]
    )
    def test_analyze_artifact_rejects_run_options(
        self, flags, capsys, tmp_path
    ):
        """A stored run is rendered as it was run: options that only
        shape a new run would be silently ignored."""
        rc = main(["analyze", "--artifact", str(tmp_path / "x.json")] + flags)
        assert rc == 2
        assert "do not apply to --artifact" in capsys.readouterr().err


class TestTracedRun:
    """run prints the metrics-plane summary whenever the spec traces."""

    def test_traced_run_prints_sketches(self, capsys):
        assert (
            main(
                [
                    "run", "--scenario", "paper_default",
                    "--set", "ops_per_task=6", "--set", "n_nodes=8",
                    "--set", "observability.enabled=true",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "streaming sketches" in out
        assert "ops.latency_s" in out

    def test_traced_spec_file_prints_obs(self, capsys, tmp_path):
        from repro.scenario import ScenarioSpec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            ScenarioSpec(
                name="cli-metrics-spec",
                surface="workflow",
                application="montage",
                ops_per_task=4,
                n_nodes=8,
            ).to_json()
        )
        argv = ["run", "--spec", str(spec_path)]
        assert main(argv) == 0
        assert "trace events" not in capsys.readouterr().out
        assert main(argv + ["--set", "observability.enabled=true"]) == 0
        assert "trace events" in capsys.readouterr().out


class TestElasticityFlags:
    def test_elasticity_lists_policies(self, capsys):
        assert main(["elasticity"]) == 0
        out = capsys.readouterr().out
        for name in ("threshold", "slo_debt", "predictive"):
            assert name in out

    def test_scenarios_table_shows_capability_columns(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "caps" in out
        # The elastic scenarios advertise the control plane; the SLO
        # scenario advertises its lens; plain ones show the dash.
        assert "elastic" in out
        assert "obs+elastic" in out
        assert "slo+elastic" in out
        assert "obs+slo" in out

    def test_run_with_elasticity_overrides_reports_actions(self, capsys):
        assert (
            main(
                [
                    "run", "--scenario", "paper_default",
                    "--set", "ops_per_task=10", "--set", "n_nodes=4",
                    "--set", "elasticity.enabled=true",
                    "--set", "elasticity.policy=threshold",
                    "--set", "elasticity.lag_s=5",
                    "--set", "elasticity.max_vms_per_site=3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "elastic policy threshold" in out
        assert "vm-seconds" in out

    def test_elastic_knobs_require_enabled(self, capsys):
        rc = main(
            [
                "run", "--scenario", "paper_default",
                "--set", "ops_per_task=4", "--set", "elasticity.lag_s=5",
            ]
        )
        assert rc == 2
        assert "elasticity knobs require enabled=True" in (
            capsys.readouterr().err
        )

    def test_analyze_elastic_scenario_prints_capacity_timeline(
        self, capsys
    ):
        assert (
            main(["analyze", "--scenario", "autoscale_ramp", "--quick"]) == 0
        )
        out = capsys.readouterr().out
        assert "capacity timeline" in out
        assert "elastic policy predictive" in out

    def test_elastic_artifact_analyzes_from_disk(self, capsys, tmp_path):
        from repro.results import ResultStore
        from repro.scenario import get_scenario

        store = ResultStore(tmp_path / "runs")
        path = store.save(get_scenario("autoscale_ramp").run(quick=True))
        assert main(["analyze", "--artifact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "elastic policy predictive" in out
        assert "vm-seconds" in out
