"""Tests for the Fig. 3 local-replication micro-experiment."""

from repro.experiments.fig3_replication import run_fig3


class TestFig3:
    def test_read_speedup_significant(self):
        r = run_fig3()
        assert r.read_speedup >= 5

    def test_key_is_geo_distant(self):
        r = run_fig3()
        assert r.home_site != r.writer_site

    def test_replicated_read_is_local_fast(self):
        r = run_fig3()
        # A local read: two LAN legs + service, well under 20 ms.
        assert r.replicated[1] < 0.02
        # The non-replicated read pays the geo-distant round trip.
        assert r.non_replicated[1] > 0.08

    def test_render(self):
        out = run_fig3().render()
        assert "Fig. 3" in out
        assert "non-replicated" in out

    def test_other_writer_site(self):
        r = run_fig3(writer_site="east-us")
        assert r.writer_site == "east-us"
        assert r.read_speedup > 1
