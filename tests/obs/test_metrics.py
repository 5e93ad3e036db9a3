"""Unit tests for the metrics plane: counters, gauges, sketches."""

import numpy as np
import pytest

from repro.obs import MetricsRegistry, ReservoirHistogram


class TestCounterGauge:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("ops")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert reg.counter("ops") is c  # get-or-create

    def test_gauge_direct_and_callback(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(7.0)
        assert g.value() == 7.0
        backing = [3]
        via_fn = reg.gauge("queue", fn=lambda: backing[0])
        assert via_fn.value() == 3.0
        backing[0] = 9
        assert via_fn.value() == 9.0


class TestReservoirHistogram:
    def test_exact_while_stream_fits(self):
        """Quantiles match numpy.percentile exactly when n <= capacity."""
        h = ReservoirHistogram("t", capacity=256)
        values = [((i * 37) % 101) / 7.0 for i in range(200)]
        for v in values:
            h.add(v)
        for q in (0, 1, 25, 50, 75, 90, 99, 100):
            assert h.quantile(q) == pytest.approx(
                float(np.percentile(values, q)), abs=1e-12
            )
        assert h.mean() == pytest.approx(float(np.mean(values)))
        assert h.min == min(values)
        assert h.max == max(values)

    def test_memory_bounded_beyond_capacity(self):
        h = ReservoirHistogram("t", capacity=64)
        for i in range(10_000):
            h.add(float(i))
        assert len(h._samples) == 64
        assert h.n == 10_000
        # min/max/mean stay exact regardless of sampling.
        assert h.min == 0.0
        assert h.max == 9999.0
        assert h.mean() == pytest.approx(4999.5)

    def test_rank_error_within_documented_bound(self):
        """Median of a uniform stream lands within ~4 sigma of rank error."""
        cap = 512
        h = ReservoirHistogram("uniform", capacity=cap)
        n = 20_000
        for i in range(n):
            h.add(((i * 48271) % n) / n)  # uniform-ish permutation
        # documented: rank error ~ sqrt(q(1-q)/capacity); 4x at q=0.5
        tolerance = 4 * (0.25 / cap) ** 0.5
        assert abs(h.quantile(50) - 0.5) < tolerance
        assert abs(h.quantile(90) - 0.9) < tolerance

    def test_deterministic_and_name_seeded(self):
        a1 = ReservoirHistogram("same", capacity=32)
        a2 = ReservoirHistogram("same", capacity=32)
        b = ReservoirHistogram("other", capacity=32)
        for i in range(1000):
            for h in (a1, a2, b):
                h.add(float(i))
        assert a1._samples == a2._samples  # replayable
        assert a1._samples != b._samples  # decorrelated by name

    def test_empty_and_validation(self):
        h = ReservoirHistogram("t")
        assert h.quantile(50) == 0.0
        assert h.mean() == 0.0
        assert h.export()["count"] == 0.0
        with pytest.raises(ValueError):
            h.quantile(101)
        with pytest.raises(ValueError):
            h.quantile(-1)
        with pytest.raises(ValueError):
            ReservoirHistogram("t", capacity=0)

    def test_export_keys(self):
        h = ReservoirHistogram("t")
        h.add(1.0)
        h.add(3.0)
        doc = h.export()
        assert set(doc) == {
            "count", "mean", "min", "max", "p50", "p90", "p99",
        }
        assert doc["count"] == 2.0
        assert doc["p50"] == 2.0


class TestMetricsRegistry:
    def test_interval_gated_sampling(self):
        reg = MetricsRegistry(sample_interval=1.0)
        reg.counter("ops").inc()
        reg.maybe_sample(0.0)
        reg.maybe_sample(0.5)  # inside the interval: no new sample
        reg.counter("ops").inc()
        reg.maybe_sample(1.5)
        assert [(t, v["ops"]) for t, v in reg.series] == [
            (0.0, 1.0),
            (1.5, 2.0),
        ]

    def test_force_sample_ignores_gate(self):
        reg = MetricsRegistry(sample_interval=100.0)
        reg.maybe_sample(0.0)
        reg.sample(1.0, force=True)
        assert len(reg.series) == 2

    def test_series_capped(self):
        reg = MetricsRegistry(sample_interval=1.0)
        reg._MAX_SAMPLES = 5
        for i in range(10):
            reg.maybe_sample(float(i))
        assert len(reg.series) == 5

    def test_export_structure(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(4.0)
        reg.histogram("h").add(1.0)
        reg.sample(0.0, force=True)
        doc = reg.export()
        assert doc["counters"] == {"c": 2.0}
        assert doc["gauges"] == {"g": 4.0}
        assert doc["histograms"]["h"]["count"] == 1.0
        assert doc["series"] == [{"t": 0.0, "values": {"c": 2.0, "g": 4.0}}]

    def test_histogram_capacity_passthrough(self):
        reg = MetricsRegistry(histogram_capacity=8)
        assert reg.histogram("h").capacity == 8
        assert reg.histogram("big", capacity=32).capacity == 32

    def test_sample_interval_validated(self):
        with pytest.raises(ValueError):
            MetricsRegistry(sample_interval=0.0)
        with pytest.raises(ValueError):
            MetricsRegistry(sample_interval=float("nan"))


class TestDegenerateInputSentinels:
    """Empty sketches and zero-length series answer with documented
    sentinels, never exceptions -- analysis code paths that run before
    any sample lands must not crash a finished run."""

    def test_empty_histogram_quantiles_are_zero(self):
        h = ReservoirHistogram("empty")
        for q in (0, 50, 100):
            assert h.quantile(q) == 0.0
        assert h.mean() == 0.0

    def test_empty_histogram_still_validates_q(self):
        # The sentinel covers emptiness, not malformed queries.
        with pytest.raises(ValueError):
            ReservoirHistogram("empty").quantile(101)

    def test_series_stats_empty_sentinel(self):
        reg = MetricsRegistry()
        zero = {
            "count": 0.0, "t0": 0.0, "t1": 0.0,
            "min": 0.0, "max": 0.0, "last": 0.0,
        }
        assert reg.series_stats("never-sampled") == zero
        # Known counter, but nothing sampled yet: same sentinel.
        reg.counter("ops").inc()
        assert reg.series_stats("ops") == zero

    def test_series_stats_summarizes_samples(self):
        reg = MetricsRegistry(sample_interval=1.0)
        c = reg.counter("ops")
        c.inc(2)
        reg.maybe_sample(0.0)
        c.inc(3)
        reg.maybe_sample(2.0)
        assert reg.series_stats("ops") == {
            "count": 2.0, "t0": 0.0, "t1": 2.0,
            "min": 2.0, "max": 5.0, "last": 5.0,
        }
