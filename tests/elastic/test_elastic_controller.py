"""ElasticController integration: lag, drain/retire, signals, determinism."""

import dataclasses

import pytest

from repro.cloud.deployment import Deployment
from repro.cloud.presets import azure_4dc_topology
from repro.elastic.controller import ElasticController, ElasticSignals
from repro.obs.trace import Tracer
from repro.scenario import ElasticitySpec, get_scenario


class StubCluster:
    """The minimal ClusterView surface the controller samples."""

    def __init__(self, deployment):
        self._deployment = deployment
        self.vm_load = {}
        self.tenant_load = {}

    def site_load(self, site):
        return sum(
            self.vm_load.get(vm.name, 0)
            for vm in self._deployment.workers_at(site)
        )


@pytest.fixture
def small():
    dep = Deployment(
        topology=azure_4dc_topology(jitter=False), n_nodes=4, seed=1
    )
    return dep, StubCluster(dep)


def _controller(dep, cluster, spec, tracer=None, signals=None):
    ctl = ElasticController(
        dep, cluster, spec, signals=signals, tracer=tracer
    )
    ctl.start()
    return ctl


THRESHOLD = ElasticitySpec(
    enabled=True,
    policy="threshold",
    interval_s=1.0,
    lag_s=3.0,
    max_vms_per_site=4,
)


class TestProvisioningLag:
    def test_ordered_capacity_lands_lag_seconds_later(self, small):
        dep, cluster = small
        # Saturate east-us: its single worker carries 5 tasks.
        vm = dep.workers_at("east-us")[0]
        cluster.vm_load[vm.name] = 5
        ctl = _controller(dep, cluster, THRESHOLD)
        dep.env.run(until=1.5)  # first decision at t=1
        assert ctl.report.actions == [(1.0, "east-us", 1)]
        assert len(dep.workers_at("east-us")) == 1  # still in the lag
        dep.env.run(until=4.5)  # lands at t=1+3
        assert len(dep.workers_at("east-us")) == 2

    def test_pending_capacity_counts_toward_fleet_peak_only_on_arrival(
        self, small
    ):
        dep, cluster = small
        vm = dep.workers_at("east-us")[0]
        cluster.vm_load[vm.name] = 5
        ctl = _controller(dep, cluster, THRESHOLD)
        dep.env.run(until=1.5)
        assert ctl.report.fleet_peak == 4
        dep.env.run(until=4.5)
        assert ctl.report.fleet_peak == 5

    def test_warmup_parameters_applied_to_provisioned_vms(self, small):
        dep, cluster = small
        vm = dep.workers_at("east-us")[0]
        cluster.vm_load[vm.name] = 5
        spec = ElasticitySpec(
            enabled=True,
            policy="threshold",
            interval_s=1.0,
            lag_s=3.0,
            warmup_s=7.0,
            warmup_factor=3.0,
            max_vms_per_site=4,
        )
        _controller(dep, cluster, spec)
        dep.env.run(until=4.5)
        fresh = dep.workers_at("east-us")[-1]
        assert fresh.provisioned_at == 4.0
        assert fresh.warm_at == 4.0 + 7.0
        assert fresh.warmup_factor == 3.0


class TestDrainSemantics:
    def test_busy_vm_drains_without_stranding_then_retires(self, small):
        dep, cluster = small
        # A 5-VM east-us pool with one task on its newest VM reads
        # quiet (ratio 0.2 < 0.25), so the policy drains one -- and
        # drains shed newest-first, hitting the busy VM.  The other
        # sites sit mid-band so they stay untouched.
        extra = dep.add_vms("east-us", 4)[-1]
        for site in ("west-europe", "north-europe", "south-central-us"):
            for vm in dep.workers_at(site):
                cluster.vm_load[vm.name] = 1
        cluster.vm_load[extra.name] = 1  # the newest VM is busy
        ctl = _controller(dep, cluster, THRESHOLD)
        dep.env.run(until=1.5)
        # Drain ordered (newest first): out of placement immediately...
        assert (1.0, "east-us", -1) in ctl.report.actions
        assert extra not in dep.workers_at("east-us")
        assert extra.draining
        # ...but not retired while its placed tasks are running.
        assert extra in dep.draining
        cluster.vm_load[extra.name] = 0
        dep.env.run(until=2.5)  # next sweep retires it
        assert extra not in dep.draining
        report = ctl.finalize()
        assert report.stranded_tasks == 0

    def test_idle_vm_retires_in_the_same_tick(self, small):
        dep, cluster = small
        extra = dep.add_vms("east-us", 1)[0]
        for site in ("west-europe", "north-europe", "south-central-us"):
            for vm in dep.workers_at(site):
                cluster.vm_load[vm.name] = 1
        _controller(dep, cluster, THRESHOLD)
        dep.env.run(until=1.5)
        assert extra not in dep.draining  # already idle: retired at once

    def test_cooldown_rate_limits_actuation(self, small):
        dep, cluster = small
        vm = dep.workers_at("east-us")[0]
        cluster.vm_load[vm.name] = 50
        spec = ElasticitySpec(
            enabled=True,
            policy="threshold",
            interval_s=1.0,
            lag_s=10.0,
            cooldown_s=5.0,
            max_vms_per_site=4,
        )
        ctl = _controller(dep, cluster, spec)
        dep.env.run(until=4.5)
        # Without the cooldown the saturated site would re-trigger
        # every tick as each order enlarges the effective fleet.
        assert ctl.report.actions == [(1.0, "east-us", 1)]


class TestTracing:
    def test_scale_events_emitted_under_elastic_category(self, small):
        dep, cluster = small
        vm = dep.workers_at("east-us")[0]
        cluster.vm_load[vm.name] = 5
        tracer = Tracer(dep.env, categories=("elastic",))
        _controller(dep, cluster, THRESHOLD, tracer=tracer)
        dep.env.run(until=4.5)
        names = [name for _, cat, name, _ in tracer.events if cat == "elastic"]
        assert names.count("fleet") == 4  # baseline, one per site
        assert "scale_up" in names
        assert "vm_provisioned" in names
        by_name = {
            name: args for _, _, name, args in tracer.events
        }
        assert by_name["scale_up"]["lag_s"] == 3.0
        assert by_name["vm_provisioned"]["vms"] == 2


class TestCapacityTimeline:
    """The controller records each site's placeable count where it
    changes, traced or not."""

    def test_baseline_per_site(self, small):
        dep, cluster = small
        ctl = _controller(dep, cluster, THRESHOLD)
        assert ctl.report.capacity_timeline == {
            site: [(0.0, 1)] for site in dep.sites
        }

    def test_steps_when_provisioning_lands_not_at_the_order(self, small):
        dep, cluster = small
        vm = dep.workers_at("east-us")[0]
        cluster.vm_load[vm.name] = 5
        ctl = _controller(dep, cluster, THRESHOLD)
        dep.env.run(until=1.5)  # ordered at t=1
        assert ctl.report.capacity_timeline["east-us"] == [(0.0, 1)]
        dep.env.run(until=4.5)  # landed at t=1+3
        assert ctl.report.capacity_timeline["east-us"] == [
            (0.0, 1), (4.0, 2),
        ]

    def test_steps_at_drain_start_not_at_decommission(self, small):
        dep, cluster = small
        extra = dep.add_vms("east-us", 4)[-1]
        for site in ("west-europe", "north-europe", "south-central-us"):
            for vm in dep.workers_at(site):
                cluster.vm_load[vm.name] = 1
        cluster.vm_load[extra.name] = 1  # the drained VM is busy
        # A cooldown keeps east-us from draining again at t=2.
        spec = dataclasses.replace(THRESHOLD, cooldown_s=10.0)
        ctl = _controller(dep, cluster, spec)
        dep.env.run(until=1.5)  # drain starts at t=1
        assert ctl.report.capacity_timeline["east-us"] == [
            (0.0, 5), (1.0, 4),
        ]
        cluster.vm_load[extra.name] = 0
        dep.env.run(until=2.5)  # decommissioned at t=2
        assert extra not in dep.draining
        assert ctl.report.capacity_timeline["east-us"] == [
            (0.0, 5), (1.0, 4),
        ]

    def test_timeline_is_the_series_the_trace_carries(self, small):
        dep, cluster = small
        vm = dep.workers_at("east-us")[0]
        cluster.vm_load[vm.name] = 5
        tracer = Tracer(dep.env, categories=("elastic",))
        ctl = _controller(dep, cluster, THRESHOLD, tracer=tracer)
        dep.env.run(until=4.5)
        traced = {}
        for ts, _, _, args in tracer.events_of("elastic"):
            if "vms" in args:
                traced.setdefault(args["site"], []).append((ts, args["vms"]))
        assert ctl.report.capacity_timeline == traced

    def test_untraced_quick_ramp_series_are_time_ordered_from_one_vm(
        self,
    ):
        res = get_scenario("autoscale_ramp").replace(
            **{"observability.enabled": False}
        ).run(quick=True)
        assert res.tracer is None
        report = res.elastic
        timeline = report.capacity_timeline
        assert set(timeline) == {
            "east-us", "west-europe", "north-europe", "south-central-us",
        }
        for series in timeline.values():
            assert series == sorted(series, key=lambda p: p[0])
            assert series[0] == (0.0, 1)  # 4 nodes over 4 sites
        assert sum(s[-1][1] for s in timeline.values()) == report.fleet_final
        # The artifact block carries the timeline as lists.
        assert report.to_dict()["capacity_timeline"] == {
            site: [list(p) for p in series]
            for site, series in timeline.items()
        }


class TestSignals:
    def test_debt_accrues_from_overshoot_and_live_inflight(self):
        sig = ElasticSignals(tenant_deadlines={"t0": 10.0})
        sig.on_submit("run-a", "t0", now=0.0)
        sig.on_admit()
        sig.on_submit("run-b", "t0", now=0.0)
        assert sig.waiting_admission == 1
        # run-a completes 5 s late: closed debt.
        sig.on_complete("run-a", now=15.0)
        # run-b still in flight at t=20: 10 s live overshoot.
        assert sig.debt(20.0) == pytest.approx(5.0 + 10.0)

    def test_run_deadline_overshoot_counts(self):
        sig = ElasticSignals(run_deadline_s=30.0)
        assert sig.debt(29.0) == 0.0
        assert sig.debt(36.0) == pytest.approx(6.0)

    def test_tenants_without_deadlines_accrue_nothing(self):
        sig = ElasticSignals()
        sig.on_submit("run-a", "t0", now=0.0)
        sig.on_admit()
        sig.on_complete("run-a", now=100.0)
        assert sig.debt(200.0) == 0.0


class TestScenarioDeterminism:
    def test_same_spec_and_seed_replay_identical_actions(self):
        spec = get_scenario("autoscale_ramp")
        first = spec.run(quick=True)
        second = spec.run(quick=True)
        assert first.elastic is not None
        assert first.elastic.actions == second.elastic.actions
        assert first.elastic.to_dict() == second.elastic.to_dict()
        assert first.makespan == second.makespan

    def test_ramp_scenario_scales_up_and_back_down(self):
        res = get_scenario("autoscale_ramp").run(quick=True)
        report = res.elastic
        assert report.n_scale_ups >= 1
        assert report.n_scale_downs >= 1
        assert report.fleet_peak > report.fleet_initial
        assert report.stranded_tasks == 0
        assert report.vm_seconds > 0.0
        # Priced cost reflects the europe=1.5x multiplier.
        assert report.cost > 0.0

    def test_disabled_elasticity_attaches_no_report(self):
        res = get_scenario("multi_tenant_8").run(quick=True)
        assert res.elastic is None
