"""Tests for the terminal chart helpers."""

from repro.experiments.charts import bar_chart, sparkline


class TestBarChart:
    def test_scales_to_peak(self):
        out = bar_chart([("a", 10.0), ("b", 5.0)], width=10)
        lines = out.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_labels_aligned(self):
        out = bar_chart([("short", 1.0), ("a-longer-label", 2.0)])
        lines = out.splitlines()
        assert lines[0].index("│") == lines[1].index("│")

    def test_title_and_unit(self):
        out = bar_chart([("x", 3.0)], title="T", unit="s")
        assert out.startswith("T\n")
        assert "3s" in out

    def test_empty(self):
        assert bar_chart([], title="empty") == "empty"

    def test_zero_values(self):
        out = bar_chart([("z", 0.0)])
        assert "z" in out


class TestSparkline:
    def test_shape(self):
        s = sparkline([1, 2, 3, 4])
        assert len(s) == 4
        assert s[0] < s[-1]  # block characters are ordered

    def test_flat_series(self):
        assert len(set(sparkline([5, 5, 5]))) == 1

    def test_empty(self):
        assert sparkline([]) == ""

