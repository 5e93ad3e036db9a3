"""Every example script runs to completion and prints its headline.

Each script in ``examples/`` runs in a subprocess with ``PYTHONPATH``
pointing at ``src``, the way its docstring says to run it, and must
exit 0 and print the line that heads its report.  The three longest
(5-15 s each) are marked slow.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: example -> a line of its report that only a full run prints
HEADLINES = {
    "quickstart": "local-op fraction",
    "elastic_scaling": "A 5th site joins",
    "genomics_pipeline": "Genome pipeline, 16 nodes / 4 DCs",
    "scheduler_comparison": "x 5 placement policies",
    "multi_tenant": "Contention at the metadata service",
    "montage_mosaic": "Montage, 400 ops/task, 32 nodes / 4 DCs",
}

SLOW = {"scheduler_comparison", "multi_tenant", "montage_mosaic"}


def test_every_example_is_listed():
    scripts = {
        name[:-3]
        for name in os.listdir(os.path.join(ROOT, "examples"))
        if name.endswith(".py")
    }
    assert scripts == set(HEADLINES)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name
        for name in sorted(HEADLINES)
    ],
)
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", f"{name}.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert HEADLINES[name] in proc.stdout
