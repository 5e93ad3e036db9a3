"""Trace analysis: critical paths, attribution, utilization.

The analyzer duck-types the tracer (``spans``/``events_of``/``dropped``),
so the unit tests drive it with hand-built span graphs; the
integration tests run real traced scenarios and pin the two load-
bearing contracts: buckets partition the observed makespan exactly,
and analysis never perturbs the simulation.
"""

import pytest

from repro.obs.analyze import (
    ATTRIBUTION_BUCKETS,
    RunAnalysis,
    analyze_tracer,
    concurrency_profile,
)
from repro.obs.analyze import _critical_path
from repro.results import result_metrics
from repro.scenario import ObservabilitySpec, get_scenario


class FakeSpan:
    """Just the attributes analyze_tracer reads."""

    _next = [0]

    def __init__(self, name, start, end, parent=None, **args):
        self.id = FakeSpan._next[0]
        FakeSpan._next[0] += 1
        self.name = name
        self.cat = "span"
        self.parent = parent.id if parent is not None else None
        self.start = start
        self.end = end
        self.args = args


class FakeTracer:
    def __init__(self, spans=(), events=(), dropped=0):
        self.spans = list(spans)
        self.events = list(events)
        self.dropped = dropped

    def events_of(self, cat):
        return [e for e in self.events if e[1] == cat]


def task(name, start, end, run="wf#1", site="a", vm="a-0"):
    return FakeSpan(
        "task", start, end, task=name, run=run, site=site, vm=vm
    )


class TestConcurrencyProfile:
    def test_sweep_line(self):
        series, peak, mean, busy = concurrency_profile(
            [(0.0, 4.0), (2.0, 6.0), (8.0, 10.0)], (0.0, 10.0)
        )
        assert peak == 2
        assert busy == pytest.approx(8.0)  # [0,6) + [8,10)
        assert mean == pytest.approx(1.0)  # 10 unit-seconds over 10s
        assert series[0] == (0.0, 1)
        assert series[-1] == (10.0, 0)

    def test_intervals_clamped_to_window(self):
        _, peak, mean, busy = concurrency_profile(
            [(-5.0, 15.0)], (0.0, 10.0)
        )
        assert peak == 1
        assert busy == pytest.approx(10.0)
        assert mean == pytest.approx(1.0)

    def test_empty_input_sentinel(self):
        assert concurrency_profile([], (0.0, 10.0)) == ([], 0, 0.0, 0.0)

    def test_zero_window_sentinel(self):
        assert concurrency_profile([(0.0, 1.0)], (3.0, 3.0)) == (
            [], 0, 0.0, 0.0,
        )

    @staticmethod
    def tuple_sort_profile(intervals, window):
        """The reference: sort ``(t, +1)``/``(t, -1)`` tuples, so an
        end goes before a start at equal ``t``, and sweep them."""
        start, end = window
        if not intervals or end - start <= 1e-9:
            return [], 0, 0.0, 0.0
        deltas = []
        for s, e in intervals:
            if e < s:
                s, e = e, s
            deltas.append((min(max(s, start), end), 1))
            deltas.append((min(max(e, start), end), -1))
        deltas.sort()
        series = []
        level = peak = 0
        prev_t = start
        area = busy = 0.0
        for t, d in deltas:
            if t > prev_t:
                area += level * (t - prev_t)
                if level > 0:
                    busy += t - prev_t
                prev_t = t
            level += d
            peak = max(peak, level)
            if series and series[-1][0] == t:
                series[-1] = (t, level)
            else:
                series.append((t, level))
        if end > prev_t:
            area += level * (end - prev_t)
            if level > 0:
                busy += end - prev_t
        return series, peak, area / (end - start), busy

    def assert_same_as_tuple_sort(self, intervals, window):
        """Equal results, and the same time object at every instant of
        the series (an int and a float tie at equal ``t``)."""
        got = concurrency_profile(intervals, window)
        want = self.tuple_sort_profile(intervals, window)
        assert got == want
        assert repr(got) == repr(want)

    @pytest.mark.parametrize(
        "intervals, window",
        [
            ([], (0.0, 10.0)),  # no intervals
            ([(1.0, 2.0)], (3.0, 3.0)),  # zero-length window
            ([(0.0, 2.0), (2.0, 4.0)], (0.0, 4.0)),  # end ties a start
            ([(3.0, 1.0), (1.0, 3.0)], (0.0, 4.0)),  # reversed
            ([(2.0, 2.0), (0.0, 2.0), (2, 3.0)], (0, 4.0)),  # zero length
            ([(-5.0, 1.0), (9.0, 15.0), (-2, 20)], (0.0, 10.0)),  # clamped
        ],
    )
    def test_merged_sweep_equals_the_tuple_sort(self, intervals, window):
        self.assert_same_as_tuple_sort(intervals, window)

    @pytest.mark.parametrize("seed", range(40))
    def test_merged_sweep_equals_the_tuple_sort_seeded(self, seed):
        """Times from a coarse grid, so starts and ends tie, mixed int
        and float; some intervals reversed, of zero length or reaching
        past the window; some windows of zero length."""
        import random

        rng = random.Random(seed)

        def instant():
            t = rng.randrange(-4, 25) / 2
            return int(t) if t == int(t) and rng.random() < 0.3 else t

        intervals = []
        for _ in range(rng.randrange(0, 30)):
            s = instant()
            kind = rng.random()
            if kind < 0.15:
                e = s
            elif kind < 0.3:
                e, s = s, s + rng.randrange(1, 6)
            else:
                e = s + rng.randrange(0, 8) / 2
            intervals.append((s, e))
        window = rng.choice([(0.0, 10.0), (2, 7.5), (3.0, 3.0), (-1.0, 12)])
        self.assert_same_as_tuple_sort(intervals, window)


class TestCriticalPath:
    def test_picks_latest_finishing_predecessor_chain(self):
        a = task("a", 0.0, 2.0)
        b = task("b", 0.0, 5.0)  # the slow branch
        c = task("c", 5.5, 8.0)  # starts after both
        path = _critical_path([a, b, c])
        assert [s.args["task"] for s in path] == ["b", "c"]

    def test_overlapping_spans_never_chain(self):
        a = task("a", 0.0, 6.0)
        b = task("b", 4.0, 9.0)  # overlaps a: not a's successor
        path = _critical_path([a, b])
        assert [s.args["task"] for s in path] == ["b"]

    def test_deterministic_tie_break(self):
        a = task("a", 0.0, 3.0)
        b = task("b", 0.0, 3.0)  # same window; higher id wins
        c = task("c", 3.0, 4.0)
        path = _critical_path([a, b, c])
        assert [s.args["task"] for s in path] == ["b", "c"]


class TestAnalyzeTracer:
    def test_empty_tracer_sentinel(self):
        analysis = analyze_tracer(FakeTracer())
        assert isinstance(analysis, RunAnalysis)
        assert analysis.workflows == []
        assert analysis.sites == {}
        assert analysis.hottest_site() is None
        assert analysis.hottest_link() is None
        assert analysis.window == (0.0, 0.0)
        assert analysis.complete

    def test_buckets_partition_hand_built_trace(self):
        t1 = task("one", 1.0, 4.0)
        compute = FakeSpan("compute", 1.5, 3.5, parent=t1)
        t2 = task("two", 5.0, 8.0)  # 1s dependency gap after t1
        stage = FakeSpan(
            "stage", 5.0, 6.0, parent=t2, metadata_s=0.25, transfer_s=0.75
        )
        events = [
            (0.0, "workload", "submit", {"run": "wf#1", "tenant": "t"}),
            (0.5, "workload", "admit", {"run": "wf#1", "wait": 0.5}),
        ]
        analysis = analyze_tracer(
            FakeTracer([t1, compute, t2, stage], events)
        )
        (wf,) = analysis.workflows
        assert wf.window_start == 0.0  # the submit time, not task start
        assert wf.makespan == pytest.approx(8.0)
        b = wf.buckets
        assert b["admission_wait"] == pytest.approx(0.5)
        # 0.5s gap submit->start beyond admission, plus 1s between tasks
        assert b["dependency_wait"] == pytest.approx(1.5)
        assert b["compute"] == pytest.approx(2.0)
        assert b["metadata"] == pytest.approx(0.25)
        assert b["wan_transfer"] == pytest.approx(0.75)
        # overhead absorbs the un-childed residual of both task spans
        assert b["overhead"] == pytest.approx(3.0)
        assert sum(b.values()) == pytest.approx(wf.makespan, abs=1e-12)
        assert wf.dominant_bucket() == "overhead"

    def test_utilization_and_registry_extraction(self):
        t1 = task("one", 0.0, 4.0, site="a", vm="a-0")
        t2 = task("two", 2.0, 6.0, site="a", vm="a-1")
        xfer = FakeSpan(
            "transfer", 1.0, 3.0, src="a", dst="b", size=100.0
        )
        local = FakeSpan(  # same-site: never a WAN link
            "transfer", 1.0, 2.0, src="a", dst="a", size=5.0
        )
        events = [
            (0.5, "registry", "slot_wait", {"site": "a", "wait": 0.2}),
            (1.5, "registry", "slot_wait", {"site": "a", "wait": 0.3}),
        ]
        analysis = analyze_tracer(
            FakeTracer([t1, t2, xfer, local], events)
        )
        site = analysis.sites["a"]
        assert site.peak == 2
        assert site.vms_seen == 2
        assert site.busy_s == pytest.approx(6.0)
        assert analysis.hottest_site() == "a"
        assert set(analysis.links) == {"a->b"}
        assert analysis.links["a->b"].bytes == pytest.approx(100.0)
        assert analysis.hottest_link() == "a->b"
        assert analysis.registry_wait["a"] == pytest.approx(
            {"total_s": 0.5, "count": 2, "max_s": 0.3}
        )

    def test_dropped_events_flagged_incomplete(self):
        analysis = analyze_tracer(FakeTracer(dropped=3))
        assert not analysis.complete
        assert analysis.to_dict()["complete"] is False

    def test_to_dict_is_json_ready(self):
        import json

        t1 = task("one", 0.0, 2.0)
        doc = analyze_tracer(FakeTracer([t1])).to_dict()
        again = json.loads(json.dumps(doc))
        assert again["buckets"].keys() == set(ATTRIBUTION_BUCKETS)
        assert again["workflows"][0]["n_tasks"] == 1


def traced(name, **over):
    spec = get_scenario(name).replace(
        observability=ObservabilitySpec(enabled=True), **over
    )
    return spec.run(quick=True)


class TestIntegration:
    def test_workflow_buckets_sum_to_observed_makespan(self):
        result = traced("fanout_bandwidth_aware")
        analysis = result.analysis
        assert analysis is not None and analysis.complete
        (wf,) = analysis.workflows
        # The acceptance bar is 1%; the partition is exact by design.
        assert sum(wf.buckets.values()) == pytest.approx(
            wf.makespan, rel=1e-6
        )
        assert wf.makespan == pytest.approx(result.makespan, rel=1e-6)
        assert wf.path, "critical path must be non-empty"

    def test_multi_tenant_buckets_sum_per_workflow(self):
        result = traced("multi_tenant_8")
        analysis = result.analysis
        assert len(analysis.workflows) == 8
        for wf in analysis.workflows:
            assert sum(wf.buckets.values()) == pytest.approx(
                wf.makespan, rel=1e-6
            )
        # Tenants queue behind max_in_flight=4: admission must show up.
        assert analysis.buckets["admission_wait"] > 0

    def test_analysis_is_a_pure_consumer(self):
        """Traced+analyzed and untraced runs agree bit-for-bit."""
        spec = get_scenario("fanout_bandwidth_aware")
        plain = spec.run(quick=True)
        analyzed = traced("fanout_bandwidth_aware")
        assert plain.analysis is None and analyzed.analysis is not None
        assert result_metrics(plain) == result_metrics(analyzed)

    def test_analysis_deterministic_across_runs(self):
        a = traced("fanout_bandwidth_aware").analysis.to_dict()
        b = traced("fanout_bandwidth_aware").analysis.to_dict()
        assert a == b

    def test_analysis_persists_through_artifact(self, tmp_path):
        from repro.results import ResultStore

        store = ResultStore(tmp_path)
        path = store.save(traced("fanout_bandwidth_aware"))
        doc = store.load(path)
        assert doc["analysis"]["hottest_site"]
        assert doc["analysis"]["workflows"][0]["path"]
        assert sum(doc["analysis"]["buckets"].values()) == pytest.approx(
            doc["metrics"]["makespan_s"], rel=1e-6
        )
