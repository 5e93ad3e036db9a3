"""The autoscaler under faults: outages that hit a fleet mid-scale.

Each quick elastic registry scenario runs under both bandwidth models
with one of two outages: a ``site_outage`` of east-us from 7 s to 17 s,
or a ``region_outage`` of east-us and south-central-us from 5 s to
17 s.  Both span the quick ramp's first scale-up, ordered at 8 s and
landed at 14 s.  Every run must still complete every submitted
instance and strand no task on a draining VM, and the capacity
timeline the controller records must agree with the fleet the report
states.
"""

import pytest

from repro.scenario import FaultSpec, get_scenario

FAULTS = {
    "site_outage": FaultSpec(
        kind="site_outage", site="east-us", start=7.0, duration=10.0
    ),
    "region_outage": FaultSpec(
        kind="region_outage",
        sites=("east-us", "south-central-us"),
        start=5.0,
        duration=12.0,
    ),
}


def fleet_after_each_instant(timeline):
    """The whole fleet's placeable VMs after each instant of a per-site
    capacity timeline (every change at that instant applied)."""
    instants = sorted({t for series in timeline.values() for t, _ in series})
    return [
        sum(
            [vms for at, vms in series if at <= t][-1]
            for series in timeline.values()
        )
        for t in instants
    ]


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("model", ["slots", "fair"])
@pytest.mark.parametrize("name", ["autoscale_ramp", "autoscale_pareto"])
def test_autoscaled_run_survives_outage(name, model, fault):
    spec = get_scenario(name).replace(
        **{"network.bandwidth_model": model, "faults": (FAULTS[fault],)}
    )
    res = spec.run(quick=True)
    submitted = sum(t.n_instances for t in spec.quick().workload.tenants)
    assert res.result.n_completed == submitted
    assert any(ev.kind.endswith("-end") for ev in res.fault_events)
    report = res.elastic
    assert report.stranded_tasks == 0
    timeline = report.capacity_timeline
    assert sum(series[-1][1] for series in timeline.values()) == (
        report.fleet_final
    )
    sizes = fleet_after_each_instant(timeline)
    assert sizes[0] == report.fleet_initial
    assert max(sizes) == report.fleet_peak
