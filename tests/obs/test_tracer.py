"""Unit tests for the tracer core: events, spans, the null fast path,
and the flat event log behind ``events``/``events_of``."""

import pytest

from repro.obs import NULL_TRACER, TRACE_CATEGORIES, Tracer
from repro.obs.trace import NULL_SPAN
from repro.scenario import get_scenario
from repro.sim import Environment, Timeout


def make_env(now=0.0):
    env = Environment()
    if now:
        env.run(until=now)
    return env


class TestNullTracer:
    def test_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert all(not NULL_TRACER.wants(c) for c in TRACE_CATEGORIES)
        NULL_TRACER.emit("kernel", "pop", t=1.0)  # no-op, no error
        assert NULL_TRACER.export() == {}

    def test_null_span_chain(self):
        sp = NULL_TRACER.span("task", vm="vm-0")
        assert sp is NULL_SPAN
        assert sp.child("stage") is NULL_SPAN
        with sp:
            sp.finish(extra=1)  # all no-ops

    def test_fresh_environment_has_no_tracer(self):
        env = Environment()
        assert env.tracer is None
        assert env._trace_kernel is False


class TestTracer:
    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            Tracer(make_env(), categories=("kernel", "nope"))

    def test_category_filtering(self):
        tracer = Tracer(make_env(), categories=("network",))
        assert tracer.wants("network")
        assert not tracer.wants("kernel")
        tracer.emit("kernel", "pop")
        tracer.emit("network", "transfer_open", src="a", dst="b")
        assert tracer.counts == {"network": 1}
        assert len(tracer.events) == 1
        assert tracer.span("task") is NULL_SPAN  # "span" not enabled

    def test_events_stamped_with_sim_time(self):
        env = make_env()
        tracer = Tracer(env)
        env.attach_tracer(tracer)
        tracer.emit("workload", "submit", tenant="t0")
        Timeout(env, 2.5)
        env.run()
        tracer.emit("workload", "complete", tenant="t0")
        workload = [
            (t, name)
            for t, cat, name, _ in tracer.events
            if cat == "workload"
        ]
        assert workload == [(0.0, "submit"), (2.5, "complete")]

    def test_span_parentage_and_finish(self):
        env = make_env()
        tracer = Tracer(env)
        root = tracer.span("task", task="t1")
        child = root.child("stage", inputs=2)
        by_id = tracer.span("rpc", parent=root.id)
        assert child.parent == root.id
        assert by_id.parent == root.id
        assert root.parent is None
        Timeout(env, 1.0)
        env.run()
        child.finish(transferred=3)
        assert child.end == 1.0
        assert child.args["transferred"] == 3
        Timeout(env, 1.0)
        env.run()
        child.finish()  # idempotent: end does not move
        assert child.end == 1.0
        with tracer.span("ctx") as sp:
            pass
        assert sp.end == 2.0

    def test_max_events_budget_counts_drops(self):
        tracer = Tracer(make_env(), max_events=3)
        for i in range(5):
            tracer.emit("kernel", "pop", t=float(i))
        assert len(tracer.events) == 3
        assert tracer.dropped == 2
        assert tracer.counts["kernel"] == 5  # counts are never capped

    def test_attach_tracer_caches_kernel_flag(self):
        env = Environment()
        tracer = Tracer(env, categories=("kernel",))
        env.attach_tracer(tracer)
        assert env.tracer is tracer
        assert env._trace_kernel is True
        env2 = Environment()
        env2.attach_tracer(Tracer(env2, categories=("network",)))
        assert env2._trace_kernel is False

    def test_kernel_events_from_instrumented_run(self):
        env = Environment()
        env.attach_tracer(Tracer(env))
        Timeout(env, 1.0)
        Timeout(env, 2.0)
        env.run()
        names = {name for _, _, name, _ in env.tracer.events}
        assert "schedule" in names
        assert "pop" in names
        assert env.events_processed == 2

    def test_kernel_trace_records_reschedule_and_cancel(self):
        env = Environment()
        env.attach_tracer(Tracer(env, categories=("kernel",)))
        moved = Timeout(env, 1.0)
        dropped = Timeout(env, 2.0)
        env.reschedule(moved, 3.0)
        env.cancel(dropped)
        env.run()
        kernel = [(name, args) for _, _, name, args in env.tracer.events]
        assert kernel == [
            ("schedule", {"t": 1.0, "prio": 1, "kind": "Timeout", "depth": 1}),
            ("schedule", {"t": 2.0, "prio": 1, "kind": "Timeout", "depth": 2}),
            ("schedule", {"t": 3.0, "prio": 1, "kind": "Timeout", "depth": 3}),
            ("reschedule", {"old_t": 1.0, "t": 3.0, "depth": 3}),
            ("cancel", {"t": 2.0, "depth": 3}),
            ("pop", {"t": 3.0, "prio": 1, "depth": 0}),
        ]
        assert env.events_processed == 1

    def test_export_summary(self):
        env = make_env()
        tracer = Tracer(env)
        tracer.emit("kernel", "pop")
        tracer.span("task").finish()
        tracer.metrics.counter("c").inc()
        doc = tracer.export()
        assert doc["events"] == {"kernel": 1, "span": 1}
        assert doc["n_events"] == 1
        assert doc["n_spans"] == 1
        assert doc["dropped"] == 0
        assert doc["metrics"]["counters"] == {"c": 1.0}

    def test_tracer_never_schedules_events(self):
        env = Environment()
        env.attach_tracer(Tracer(env))
        env.tracer.emit("workload", "submit")
        env.tracer.span("task")
        assert env.queued == 0


class TestEventLog:
    """Point events live in one flat log; ``events`` is built on read."""

    def traced_env(self, **kwargs):
        env = Environment()
        tracer = Tracer(env, **kwargs)
        env.attach_tracer(tracer)
        return env, tracer

    def test_a_later_read_extends_an_earlier_one(self):
        env, tracer = self.traced_env()
        Timeout(env, 1.0)
        tracer.emit("workload", "submit", tenant="t0")
        first = list(tracer.events)
        assert first == [
            (0.0, "kernel", "schedule",
             {"t": 1.0, "prio": 1, "kind": "Timeout", "depth": 1}),
            (0.0, "workload", "submit", {"tenant": "t0"}),
        ]
        assert list(first[0][3]) == ["t", "prio", "kind", "depth"]
        env.run()
        tracer.emit("workload", "complete")
        second = tracer.events
        assert all(a is b for a, b in zip(first, second))
        assert second[len(first):] == [
            (1.0, "kernel", "pop", {"t": 1.0, "prio": 1, "depth": 0}),
            (1.0, "workload", "complete", None),
        ]
        assert tracer.events is second

    def test_budget_cut_keeps_the_first_rows_in_emission_order(self):
        env, tracer = self.traced_env(max_events=3)
        Timeout(env, 1.0)
        tracer.emit("workload", "submit", tenant="t0")
        tracer.emit("kernel", "pop", t=0.5)
        Timeout(env, 2.0)  # past the budget from here on
        tracer.emit("workload", "submit", tenant="t1")
        env.run()
        assert tracer.events == [
            (0.0, "kernel", "schedule",
             {"t": 1.0, "prio": 1, "kind": "Timeout", "depth": 1}),
            (0.0, "workload", "submit", {"tenant": "t0"}),
            (0.0, "kernel", "pop", {"t": 0.5}),
        ]
        assert tracer.dropped == 4
        assert tracer.counts == {"kernel": 5, "workload": 2}

    def test_generic_kernel_emit_keeps_its_kwargs(self):
        env, tracer = self.traced_env()
        args = {"t": 2.0, "note": "by hand"}
        tracer.emit("kernel", "pop", **args)
        tracer.emit("kernel", "schedule")
        assert tracer.events == [
            (0.0, "kernel", "pop", args),
            (0.0, "kernel", "schedule", None),
        ]
        assert list(tracer.events_of("kernel")) == tracer.events

    def test_export_counts_rows_without_reading_events(self):
        env, tracer = self.traced_env()
        Timeout(env, 1.0)
        env.reschedule(Timeout(env, 2.0), 3.0)
        tracer.emit("network", "transfer_retry", size=1.0)
        env.run()
        n_events = tracer.export()["n_events"]
        assert tracer._events == []  # nothing was turned into tuples
        assert n_events == len(tracer.events) == 7

    def test_a_traced_run_never_reads_events(self, monkeypatch):
        """Finalize (analysis, SLO) and export read the log by category
        or by count only, so a run never builds every event tuple."""

        def refuse(self):
            raise AssertionError("the run path read tracer.events")

        monkeypatch.setattr(Tracer, "events", property(refuse))
        result = get_scenario("autoscale_ramp").run(quick=True)
        assert result.analysis is not None and result.analysis.workflows
        assert result.obs["n_events"] > 0
