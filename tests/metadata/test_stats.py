"""Tests for operation statistics and derived figure metrics."""

from contextlib import contextmanager

import pytest

from repro.metadata.stats import OpKind, OpRecord, OpStats


def rec(kind=OpKind.READ, key="k", site="s", start=0.0, end=1.0, **kw):
    return OpRecord(
        kind=kind,
        key=key,
        site=site,
        started_at=start,
        finished_at=end,
        local=kw.pop("local", True),
        **kw,
    )


class TestOpRecord:
    def test_latency(self):
        assert rec(start=1.0, end=3.5).latency == 2.5

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            rec(start=5.0, end=1.0)


class TestOpStats:
    def test_counts_by_kind(self):
        s = OpStats()
        s.add(rec(kind=OpKind.READ))
        s.add(rec(kind=OpKind.WRITE))
        s.add(rec(kind=OpKind.WRITE))
        assert s.count == 3
        assert s.count_by_kind(OpKind.WRITE) == 2
        assert s.count_by_kind(OpKind.DELETE) == 0

    def test_local_fraction(self):
        s = OpStats()
        s.add(rec(local=True))
        s.add(rec(local=False))
        assert s.local_fraction == 0.5
        assert OpStats().local_fraction == 0.0

    def test_latency_stats(self):
        s = OpStats()
        s.add(rec(start=0, end=1))
        s.add(rec(start=0, end=3))
        assert s.mean_latency() == 2.0
        assert s.latency_percentile(50) == 2.0

    def test_makespan_and_throughput(self):
        s = OpStats()
        s.add(rec(start=1.0, end=2.0))
        s.add(rec(start=2.0, end=5.0))
        assert s.makespan() == 4.0
        assert s.throughput() == pytest.approx(0.5)

    def test_progress_curve(self):
        s = OpStats()
        for i in range(10):
            s.add(rec(start=0.0, end=float(i + 1)))
        curve = dict(s.progress_curve([10, 50, 100]))
        assert curve[10] == 1.0
        assert curve[50] == 5.0
        assert curve[100] == 10.0

    def test_progress_curve_validates_percent(self):
        s = OpStats()
        s.add(rec())
        with pytest.raises(ValueError):
            s.progress_curve([0])
        with pytest.raises(ValueError):
            s.progress_curve([150])

    def test_per_site_mean_completion(self):
        s = OpStats()
        s.add(rec(site="a", start=0, end=2))
        s.add(rec(site="a", start=0, end=4))
        s.add(rec(site="b", start=0, end=10))
        means = s.per_site_mean_completion()
        assert means["a"] == 3.0
        assert means["b"] == 10.0

    def test_merge(self):
        a, b = OpStats(), OpStats()
        a.add(rec())
        b.add(rec())
        assert a.merge(b).count == 2
        assert a.count == 1  # originals untouched

    def test_total_retries(self):
        s = OpStats()
        s.add(rec(retries=3))
        s.add(rec(retries=1))
        assert s.total_retries == 4


class TestColumnarLaziness:
    """Columnar operations must not materialize record objects."""

    @contextmanager
    def no_materialize(self):
        """Fail the test if any OpStats materializes records inside."""

        def boom(_self):
            raise AssertionError("columnar path materialized records")

        original = OpStats._materialize
        OpStats._materialize = boom
        try:
            yield
        finally:
            OpStats._materialize = original

    def _filled(self, n=20):
        s = OpStats()
        for i in range(n):
            s.record(
                OpKind.READ if i % 2 else OpKind.WRITE,
                f"k{i}",
                f"site-{i % 3}",
                float(i),
                float(i) + 0.5,
                bool(i % 2),
                run=f"run-{i % 2}",
            )
        return s

    def test_merge_stays_lazy_and_matches_record_view(self):
        a, b = self._filled(10), self._filled(7)
        expected = a.records + b.records  # materialize copies up front
        with self.no_materialize():
            merged = a.merge(b)
            assert merged.count == 17
            assert merged.mean_latency() == pytest.approx(0.5)
        # The object view of the merged stats still equals the old
        # record-concatenation result, value for value.
        assert merged.records == expected

    def test_record_append_stays_lazy(self):
        with self.no_materialize():
            s = OpStats()
            s.record(OpKind.READ, "k", "s", 0.0, 1.0, True)
            assert s.count == 1
            assert s.mean_latency() == 1.0

    def test_for_run_and_tail_stay_lazy(self):
        s = self._filled(12)
        with self.no_materialize():
            sub = s.for_run("run-1")
            tail = s.tail_for_run(6, "run-1")
            assert sub.count == 6
            assert tail.count == 3
        assert all(r.run == "run-1" for r in tail.records)

    def test_tail_for_run_equals_old_slice_filter(self):
        s = self._filled(12)
        old = [r for r in s.records[4:] if r.run == "run-0"]
        assert s.tail_for_run(4, "run-0").records == old


class TestOpStatsEdgeCases:
    def test_latency_percentile_extremes(self):
        s = OpStats()
        for end in (1.0, 2.0, 4.0):
            s.add(rec(start=0.0, end=end))
        assert s.latency_percentile(0) == 1.0
        assert s.latency_percentile(100) == 4.0

    def test_latency_percentile_empty(self):
        assert OpStats().latency_percentile(50) == 0.0
        assert OpStats().latency_percentile(0) == 0.0
        assert OpStats().latency_percentile(100) == 0.0

    def test_latency_percentile_kind_filtered(self):
        s = OpStats()
        s.add(rec(kind=OpKind.READ, start=0.0, end=1.0))
        s.add(rec(kind=OpKind.WRITE, start=0.0, end=9.0))
        assert s.latency_percentile(100, kind=OpKind.READ) == 1.0
        assert s.latency_percentile(0, kind=OpKind.WRITE) == 9.0
        # No DELETE ops recorded: empty filtered view, not an error.
        assert s.latency_percentile(50, kind=OpKind.DELETE) == 0.0

    def test_progress_curve_zero_ops(self):
        assert OpStats().progress_curve([10, 100]) == [
            (10, 0.0),
            (100, 0.0),
        ]

    def test_for_run_unknown_tag(self):
        s = OpStats()
        s.add(rec(run="real"))
        ghost = s.for_run("no-such-run")
        assert ghost.count == 0
        assert ghost.records == []
        assert ghost.makespan() == 0.0
        assert s.tail_for_run(0, "no-such-run").count == 0
