"""Run and sweep artifacts are pinned byte for byte.

The artifact of the quick run of every registry scenario, and one
two-cell sweep document, are pinned by the sha256 of
``json.dumps(doc, sort_keys=True, indent=2)``: the form a result store
writes, ``meta`` aside.  Between them they cover all three surfaces,
the ``obs``, ``analysis``, ``slo`` and ``elastic`` blocks, fault
events and the cells of a sweep.  A digest that moves means either
the simulated run moved (the trace goldens in
``tests/obs/test_trace_golden.py`` say which) or the serializers
changed what they write; ``repro.cli diff`` of the two artifacts shows
which keys differ.
"""

import hashlib
import json

import pytest

from repro.results import scenario_result_to_dict, sweep_result_to_dict
from repro.scenario import SCENARIOS, get_scenario, run_sweep

#: registry scenario -> sha256 of its quick run's artifact
ARTIFACT_GOLDEN = {
    "autoscale_pareto": "1a7ae21e0b444b00371fa74773f827c4f06c008d128c661f5dd3f85809051a42",
    "autoscale_ramp": "427a919bc74516d651d7615e294fc2db8f153dbae5439d05fcdfb1e20dc7d24e",
    "fair_capped": "745a38f10aad5a48b3c45a84654a0691459eb7c8eb0c8137c032e3851f7255aa",
    "fanout_bandwidth_aware": "42f38ed16a8138d340add71bdcc1e2053ad9efa0b28dd95f2f48f260d2905a2a",
    "multi_tenant_8": "8819c7582bc9c9c29b8723534ba38f0c6ebcf376b21d648fc27c92a765ffd936",
    "multi_tenant_slo": "3aed4d5df316349080b41c5d0242c37706109d3f1cb2ed4a1a0089501c6a0f60",
    "open_loop_tokens": "d03eb0c158dc96764b30b8f1b8eb9a738a36d8f1f1d5447ca521b4a36ebbf350",
    "outage_resilience": "299c9e5baa7f59226745d16474196be84bbb5defe266d151b7241b461916cd81",
    "paper_default": "ac9235d74883906b33a689fdebdc67cc0d6daee14d0966d54d0eb2a202ba3ecd",
    "paper_synthetic": "13edebbc0d7cc4bd8cb60b770c39f3df2e45ddd36fd623e52c7d7b36d24c1637",
}

#: sha256 of the quick ``paper_synthetic`` sweep over two strategies
SWEEP_GOLDEN = "234951cdd4c41645f3cade57d38593844d27f9d907a32a8c9426e003efec136a"


def digest(doc):
    text = json.dumps(doc, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_registry_scenario_is_pinned():
    assert set(ARTIFACT_GOLDEN) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(ARTIFACT_GOLDEN))
def test_quick_run_artifact_bytes(name):
    doc = scenario_result_to_dict(get_scenario(name).run(quick=True))
    assert digest(doc) == ARTIFACT_GOLDEN[name]


def test_two_cell_sweep_document_bytes():
    sweep = run_sweep(
        get_scenario("paper_synthetic"),
        {"strategy.name": ["centralized", "hybrid"]},
        quick=True,
    )
    assert digest(sweep_result_to_dict(sweep)) == SWEEP_GOLDEN
