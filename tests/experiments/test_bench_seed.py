"""``BENCH_seed.json``'s metrics, pinned at full precision.

The seed trajectory file stores each pinned scenario's
``result_metrics`` rounded to 6 decimals.  This test builds the same
four scenarios (``fig5_synthetic``, ``fig7_synthetic`` at 64 nodes x
500 ops, ``fanout_bandwidth_aware`` and ``multi_tenant_8``) and checks
three things per scenario:

- the full-precision metrics equal the values below, with ``==``;
- each of them rounds, at 6 decimals, to the number in the file;
- the spec hash equals the one the file records.

The simulator is deterministic, so bit-for-bit equality is the
contract; a drift means a behavioural change to investigate, not a
value to re-pin.
"""

import json
from pathlib import Path

import pytest

from repro.results import result_metrics
from repro.scenario import get_scenario

BENCH_SEED = Path(__file__).resolve().parents[2] / "BENCH_seed.json"

SEED_METRICS = {
    "fig5_synthetic": {
        "makespan_s": 116.02580885806061,
        "mean_node_time_s": 79.40131289691803,
        "throughput_ops_s": 275.8007060234933,
        "total_ops": 32000.0,
        "wan_bytes": 0.0,
    },
    "fig7_synthetic": {
        "makespan_s": 61.385611999822125,
        "mean_node_time_s": 42.36132486319691,
        "throughput_ops_s": 521.2947946188551,
        "total_ops": 32000.0,
        "wan_bytes": 0.0,
    },
    "fanout_bandwidth_aware": {
        "makespan_s": 52.16319288450971,
        "metadata_time_s": 353.00051853728394,
        "tasks": 160.0,
        "transfer_time_s": 62.94042088548242,
        "wan_bytes": 190840832.0,
    },
    "multi_tenant_8": {
        "completed": 8.0,
        "jain_fairness": 0.8883171052977424,
        "makespan_s": 15.286356418092039,
        "mean_queue_wait_s": 2.847051645154484,
        "network_throughput_bytes_s": 2797546.1797676445,
        "op_throughput_ops_s": 45.923304468365906,
        "p50_slowdown": 1.412513326429158,
        "p95_slowdown": 2.2913958036476525,
        "peak_in_flight": 4.0,
        "wan_bytes": 42764288.0,
    },
}


def seed_spec(name):
    """The spec behind each scenario of the seed trajectory file."""
    if name == "fig5_synthetic":
        return get_scenario("paper_synthetic").replace(name=name)
    if name == "fig7_synthetic":
        return get_scenario("paper_synthetic").replace(
            name=name, n_nodes=64, ops_per_node=500
        )
    return get_scenario(name)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(BENCH_SEED.read_text())["scenarios"]


def test_pinned_set_is_the_files(recorded):
    assert set(SEED_METRICS) == set(recorded)


@pytest.mark.parametrize("name", sorted(SEED_METRICS))
def test_seed_metrics_at_full_precision(recorded, name):
    spec = seed_spec(name)
    assert spec.spec_hash() == recorded[name]["spec_hash"]
    metrics = result_metrics(spec.run())
    assert metrics == SEED_METRICS[name]
    assert {k: round(v, 6) for k, v in metrics.items()} == (
        recorded[name]["metrics"]
    )
