"""Kernel traces are pinned byte for byte.

Three quick registry scenarios run fully traced, and the whole JSONL
event stream of each (every category, spans included) is pinned by its
sha256, its line count and the kernel's ``events_processed``.  Between
them they schedule every event class the model runs (``Initialize``,
``Timeout``, ``Process``, ``Event``, ``Request``, ``AllOf``,
``Release``, ``AnyOf``, ``StorePut``, ``StoreGet``) and exercise
``reschedule``, so any change to what the kernel schedules, in which
order or at which instant shows up here.  A digest that moves means
the simulated behaviour moved: find the first diverging line with
``repro.cli trace --jsonl`` on both trees, do not re-pin casually.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import events_jsonl
from repro.scenario import ObservabilitySpec, get_scenario

#: scenario -> (sha256 of the JSONL stream, lines, events_processed)
TRACE_GOLDEN = {
    "multi_tenant_8": (
        "cc4fcb92507f53c36b5d57df9b316a3d78070f2a84639521e7025ccc01a47a76",
        14_422,
        4_233,
    ),
    "paper_synthetic": (
        "8f3f23ac46d120b536dea6d0340107ca22e0ea8c86bcfae0fd758c8808001e0b",
        55_684,
        17_963,
    ),
    "fair_capped": (
        "ff6c42bd304358a95726e409bd35b634878937bc85d58dad04ec132a51669b90",
        39_720,
        11_383,
    ),
}

#: Every event class the model schedules; the trace records each by
#: ``type(event).__name__``.
KERNEL_KINDS = {
    "Initialize", "Timeout", "Process", "Event", "Request", "AllOf",
    "Release", "AnyOf", "StorePut", "StoreGet",
}


def traced_run(name):
    spec = get_scenario(name).replace(
        observability=ObservabilitySpec(enabled=True)
    )
    return spec.run(quick=True)


def trace_digest(result):
    """(sha256, line count, events_processed) of one traced run."""
    digest = hashlib.sha256()
    lines = 0
    for line in events_jsonl(result.tracer):
        digest.update(line.encode())
        digest.update(b"\n")
        lines += 1
    return digest.hexdigest(), lines, result.provenance["events_processed"]


@pytest.fixture(scope="module")
def traced():
    return {name: traced_run(name) for name in TRACE_GOLDEN}


@pytest.mark.parametrize("name", sorted(TRACE_GOLDEN))
def test_trace_matches_golden(traced, name):
    assert trace_digest(traced[name]) == TRACE_GOLDEN[name]


def test_goldens_cover_every_kernel_class_and_reschedule(traced):
    kinds = set()
    reschedules = 0
    for result in traced.values():
        for _, cat, name, args in result.tracer.events:
            if cat == "kernel" and name == "schedule":
                kinds.add(args["kind"])
            reschedules += cat == "kernel" and name == "reschedule"
    assert kinds == KERNEL_KINDS
    assert reschedules


def test_digests_do_not_depend_on_the_hash_seed():
    """The in-process runs above use this session's hash seed; a child
    under a fixed one must produce the same streams."""
    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_trace_golden as g\n"
        "print(json.dumps({n: g.trace_digest(g.traced_run(n)) "
        "for n in g.TRACE_GOLDEN}))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).parent)],
        env=env, capture_output=True, text=True, check=True,
    )
    got = {n: tuple(v) for n, v in json.loads(out.stdout).items()}
    assert got == TRACE_GOLDEN
