"""Tests for the text reporting helpers."""

from repro.experiments.reporting import check, render_table


class TestRenderTable:
    def test_alignment_and_title(self):
        out = render_table(
            ["name", "value"],
            [["alpha", 1.234], ["b", 10.0]],
            title="My Table",
        )
        lines = out.splitlines()
        assert lines[0] == "My Table"
        assert "name" in lines[1] and "value" in lines[1]
        # All rows share the separator width.
        assert len(set(len(l) for l in lines[1:])) <= 2

    def test_float_formatting(self):
        out = render_table(["x"], [[1.23456]], float_fmt="{:.2f}")
        assert "1.23" in out

    def test_non_float_cells_passthrough(self):
        out = render_table(["a", "b"], [["txt", 7]])
        assert "txt" in out and "7" in out

    def test_empty_rows(self):
        out = render_table(["col"], [])
        assert "col" in out


class TestCheck:
    def test_ok_and_miss(self):
        assert check("prop", True).startswith("[ok")
        assert check("prop", False).startswith("[MISS")

    def test_detail_appended(self):
        assert "(42x)" in check("prop", True, "42x")

