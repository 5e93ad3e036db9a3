"""A run imports only the planes it executes.

Each case runs a quick registry scenario in a fresh interpreter with
``PYTHONPATH`` pointing at ``src`` and reads ``sys.modules`` after the
run.  Every module a run loads costs setup time in every fresh process
(each ``repro.cli`` command, each sweep worker), so the execution
planes a spec does not ask for -- the workflow engine and transfers,
the workload runner, the autoscaler, fault injection, the fair-share
flow solver, trace analysis and export, the result store and the
process pool -- must not load at all.

``import repro.cli`` is pinned the same way: every CLI command pays for
what the module imports at its top, so the figure harnesses, the
advisor, the workflow readers and the result store load inside the
commands that use them.  So is ``import repro.results``: it names the
result types in annotations only, so an artifact reader or writer
loads no run plane.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Modules of planes that a quick ``paper_synthetic`` run never uses.
UNUSED_BY_SYNTHETIC = (
    "repro.cloud.flow",
    "repro.cloud.faults",
    "repro.workflow.engine",
    "repro.workflow.serialization",
    "repro.workflow.traces",
    "repro.workload.runner",
    "repro.workload.result",
    "repro.workload.generators",
    "repro.elastic.controller",
    "repro.elastic.report",
    "repro.obs.analyze",
    "repro.obs.export",
    "repro.storage.transfer",
    "repro.results",
    "multiprocessing",
)

#: The workflow surface runs the engine and its transfers, nothing more.
WORKFLOW_PLANES = ("repro.workflow.engine", "repro.storage.transfer")

#: What ``import repro.cli`` loads beyond a quick synthetic run: the
#: CLI itself and the table renderer that every ``run`` report uses.
CLI_FRONT_DOOR = ("repro.cli", "repro.experiments.reporting")

_PROBE = """
import json, sys
from repro.scenario import get_scenario
get_scenario(sys.argv[1]).run(quick=True)
print(json.dumps(sorted(sys.modules)))
"""

_CLI_PROBE = """
import json, sys
import repro.cli
print(json.dumps(sorted(sys.modules)))
"""

#: What ``import repro.results`` loads beyond a quick synthetic run.
RESULTS_PACKAGE = (
    "repro.results",
    "repro.results.diff",
    "repro.results.serialize",
    "repro.results.store",
)

#: The planes behind the result types ``repro.results`` annotates.
RESULT_TYPE_PLANES = (
    "repro.experiments.synthetic",
    "repro.scenario.runner",
    "repro.scenario.sweep",
    "repro.workflow.engine",
    "repro.workload.result",
    "repro.workload.runner",
)

_RESULTS_PROBE = """
import json, sys
import repro.results
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(scenario, probe=_PROBE):
    """Every module in ``sys.modules`` after a quick run of ``scenario``
    (or after running ``probe``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, scenario],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_synthetic_run_loads_no_unused_plane():
    loaded = loaded_modules("paper_synthetic")
    assert sorted(loaded.intersection(UNUSED_BY_SYNTHETIC)) == []
    assert len({m for m in loaded if m.split(".")[0] == "repro"}) <= 53


def test_workflow_run_loads_only_the_engine_planes():
    loaded = loaded_modules("paper_default")
    unused = set(UNUSED_BY_SYNTHETIC).difference(WORKFLOW_PLANES)
    assert sorted(loaded.intersection(unused)) == []
    assert loaded.issuperset(WORKFLOW_PLANES)


@pytest.mark.parametrize(
    "scenario, planes",
    [
        ("fair_capped", ("repro.cloud.flow",)),
        ("fanout_bandwidth_aware", ("repro.cloud.flow",)),
        ("autoscale_ramp", ("repro.elastic.controller", "repro.obs.analyze")),
        ("outage_resilience", ("repro.cloud.faults",)),
    ],
)
def test_a_plane_loads_where_the_spec_uses_it(scenario, planes):
    assert loaded_modules(scenario).issuperset(planes)


def test_cli_import_loads_only_the_front_door():
    cli, run = (
        {m for m in modules if m.split(".")[0] == "repro"}
        for modules in (
            loaded_modules("", probe=_CLI_PROBE),
            loaded_modules("paper_synthetic"),
        )
    )
    assert sorted(cli - run) == sorted(CLI_FRONT_DOOR)
    assert sorted(cli.intersection(UNUSED_BY_SYNTHETIC)) == []


def test_results_import_loads_no_run_plane():
    results, run = (
        {m for m in modules if m.split(".")[0] == "repro"}
        for modules in (
            loaded_modules("", probe=_RESULTS_PROBE),
            loaded_modules("paper_synthetic"),
        )
    )
    assert sorted(results - run) == sorted(RESULTS_PACKAGE)
    assert sorted(results.intersection(RESULT_TYPE_PLANES)) == []
