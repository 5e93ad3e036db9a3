"""Kernel traces and the outputs built from them are pinned byte for byte.

Four quick registry scenarios run fully traced, and the whole JSONL
event stream of each (every category, spans included) is pinned by its
sha256, its line count and the kernel's ``events_processed``.  Between
them they schedule every event class the model runs (``Initialize``,
``Timeout``, ``Process``, ``Event``, ``Request``, ``AllOf``,
``Release``, ``AnyOf``, ``StorePut``, ``StoreGet``) and exercise
``reschedule``, so any change to what the kernel schedules, in which
order or at which instant shows up here.  The fair model is pinned
twice: ``fair_capped`` caps every site, so each of its links is coupled
to others, while ``fanout_bandwidth_aware`` caps only the fan-out hub,
so most of its flows run on uncoupled links (each its own constraint
component).  A digest that moves means
the simulated behaviour moved: find the first diverging line with
``repro.cli trace --scenario NAME --quick --jsonl FILE`` on both
trees, do not re-pin casually.

Three more quick traced runs pin what is built from a trace: the
Chrome trace document, the ``obs`` export (counts, the metric series
and the sketches), the post-run analysis and the elastic capacity
timeline, each by the sha256 of its key-sorted JSON.  These move when
the tracer's storage or the analyzer's reading of it changes what
comes out, even where the JSONL stream does not.

One full-size run is pinned the same way, stream and outputs:
``autoscale_ramp`` at its registry seed, the traced run that
``bench/run.py`` times as ``autoscale_traced``.  The quick pins never
see its volume: 54,158 records, and three latency histograms that
outgrow their 2,048-sample reservoirs and start replacing samples.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import TRACE_CATEGORIES
from repro.obs.analyze import capacity_timeline
from repro.obs.export import chrome_trace_doc, events_jsonl
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
    "fanout_bandwidth_aware": (
        "8839b3c5db5bc0aa7b9a762a45d8b4f78234e71bd2fe5e08129940174a4689c9",
        115_822,
        31_419,
    ),
}

#: scenario -> sha256 of the key-sorted JSON of each traced output
OUTPUT_GOLDEN = {
    "multi_tenant_slo": {
        "chrome": "37152573f4ce0237bdc1ebe55fda3989515d785ea8384dffce879818270eec64",
        "obs": "84d2c4074a82e36bf8a86c2744d53baa78ea7c7633342a7909327dfb4de18436",
        "analysis": "a5f449b5705d20755c3e7726411f6286568d7940361318f2385214d8f4a8f9ad",
        "capacity": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    },
    "fair_capped": {
        "chrome": "8ab09db931c6ae16ccca75b1c97df887d3f1099310d3086ad2f34fcd2e7ae9da",
        "obs": "84983cbb693ac062e488268700d1b3ce275ea37dbc504bd8ad7ea8b96044abd3",
        "analysis": "b566094c159f4522e360efe84cf27022cccc8477ce72d448fe738b4d7ac13016",
        "capacity": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    },
    "autoscale_ramp": {
        "chrome": "639514b68c1f9c00908f7ed08277b4a00280fa3252781512aa31bff8829ee3fb",
        "obs": "b9ea2f8b89ba8693c1a599142ad5fed642b210cccf0747e8bad65ec8560fc4c4",
        "analysis": "6033882e39c0aa144ffeb671274688d936cdb0eec20d561f21662019c866cc63",
        "capacity": "e4a2f2bf448b8155c2d5e92ca53669487d8350f973813057ef9e29520e7cbb72",
    },
}

#: scenario -> the full-size run's (sha256 of the JSONL stream, lines,
#: events_processed) and the sha256 of each traced output
FULL_GOLDEN = {
    "autoscale_ramp": {
        "trace": (
            "07906ac8bb3c2b7698cb04f2fcb655197dfc0edf47662faec24ae31abfa53d58",
            54_158,
            15_701,
        ),
        "chrome": "d4fdf273191e79d92be1d11073948f90681d8412aaa4129ccfa6d9a18e49aace",
        "obs": "3193b3200e78ecc13c237c2a5feea0ad859d5d9eee41075535e445598fb3c0c7",
        "analysis": "06b9f72e576dd100f5ee67ed1331a296ea7e7e408666c124f14a6750d42562fd",
        "capacity": "0fb8c2954d0ddb0874f1641ec38789e4a53c6d398eb222d97c47cb145af00651",
    },
}

#: Every event class the model schedules; the trace records each by
#: ``type(event).__name__``.
KERNEL_KINDS = {
    "Initialize", "Timeout", "Process", "Event", "Request", "AllOf",
    "Release", "AnyOf", "StorePut", "StoreGet",
}


def traced_run(name, quick=True):
    spec = get_scenario(name).replace(
        observability=ObservabilitySpec(enabled=True)
    )
    return spec.run(quick=quick)


def trace_digest(result):
    """(sha256, line count, events_processed) of one traced run."""
    digest = hashlib.sha256()
    lines = 0
    for line in events_jsonl(result.tracer):
        digest.update(line.encode())
        digest.update(b"\n")
        lines += 1
    return digest.hexdigest(), lines, result.provenance["events_processed"]


def output_digests(result):
    """sha256 of the key-sorted JSON of each output built from a trace
    (the capacity timeline is empty for a run without an autoscaler)."""
    docs = {
        "chrome": chrome_trace_doc(result.tracer),
        "obs": result.obs,
        "analysis": result.analysis.to_dict(),
        "capacity": capacity_timeline(result.tracer),
    }
    return {
        key: hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()
        ).hexdigest()
        for key, doc in docs.items()
    }


def traced_runs():
    """One quick traced run of every pinned scenario."""
    names = sorted(set(TRACE_GOLDEN) | set(OUTPUT_GOLDEN))
    return {name: traced_run(name) for name in names}


def all_digests(runs):
    """Every pinned digest of ``traced_runs()``."""
    return {
        "trace": {n: trace_digest(runs[n]) for n in TRACE_GOLDEN},
        "output": {n: output_digests(runs[n]) for n in OUTPUT_GOLDEN},
    }


@pytest.fixture(scope="module")
def traced():
    return traced_runs()


@pytest.mark.parametrize("name", sorted(TRACE_GOLDEN))
def test_trace_matches_golden(traced, name):
    assert trace_digest(traced[name]) == TRACE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(OUTPUT_GOLDEN))
def test_outputs_match_golden(traced, name):
    assert output_digests(traced[name]) == OUTPUT_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(FULL_GOLDEN))
def test_full_size_run_matches_golden(name):
    result = traced_run(name, quick=False)
    assert {
        "trace": trace_digest(result), **output_digests(result)
    } == FULL_GOLDEN[name]


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


def test_events_of_is_the_category_filter_of_events(traced):
    for name in TRACE_GOLDEN:
        tracer = traced[name].tracer
        events = tracer.events
        for cat in TRACE_CATEGORIES:
            of_cat = list(tracer.events_of(cat))
            assert of_cat == [e for e in events if e[1] == cat]


def test_digests_do_not_depend_on_the_hash_seed():
    """The in-process runs above use this session's hash seed; a child
    under a fixed one must produce the same streams and outputs."""
    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_trace_golden as g\n"
        "print(json.dumps(g.all_digests(g.traced_runs())))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).parent)],
        env=env, capture_output=True, text=True, check=True,
    )
    got = json.loads(out.stdout)
    assert {n: tuple(v) for n, v in got["trace"].items()} == TRACE_GOLDEN
    assert got["output"] == OUTPUT_GOLDEN
