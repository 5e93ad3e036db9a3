"""Tests for datacenters, regions and the distance taxonomy."""

import math

import pytest

from repro.cloud.presets import AZURE_4DC, azure_4dc_topology, make_topology
from repro.cloud.topology import (
    CloudTopology,
    Datacenter,
    Distance,
    Region,
    SiteSpec,
)


class TestDistance:
    def test_local(self):
        eu = Region("eu")
        a = Datacenter("a", eu)
        assert a.distance_to(a) is Distance.LOCAL
        assert not Distance.LOCAL.is_remote

    def test_same_region(self):
        eu = Region("eu")
        a, b = Datacenter("a", eu), Datacenter("b", eu)
        assert a.distance_to(b) is Distance.SAME_REGION
        assert Distance.SAME_REGION.is_remote

    def test_geo_distant(self):
        a = Datacenter("a", Region("eu"))
        b = Datacenter("b", Region("us"))
        assert a.distance_to(b) is Distance.GEO_DISTANT


class TestTopology:
    def test_duplicate_names_rejected(self):
        eu = Region("eu")
        with pytest.raises(ValueError):
            CloudTopology([Datacenter("a", eu), Datacenter("a", eu)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CloudTopology([])

    def test_unknown_site_lookup(self, topo):
        with pytest.raises(KeyError):
            topo.get("mars-central")

    def test_link_symmetry(self, topo):
        for a in AZURE_4DC:
            for b in AZURE_4DC:
                if a != b:
                    assert topo.latency(a, b) == topo.latency(b, a)

    def test_local_link_is_fastest(self, topo):
        local = topo.latency("west-europe", "west-europe")
        for other in AZURE_4DC[1:]:
            assert topo.latency("west-europe", other) > local

    def test_missing_link_raises(self):
        eu = Region("eu")
        topo = CloudTopology([Datacenter("a", eu), Datacenter("b", eu)])
        with pytest.raises(KeyError):
            topo.latency("a", "b")
        with pytest.raises(ValueError):
            topo.validate()

    def test_self_link_rejected(self, topo):
        with pytest.raises(ValueError):
            topo.set_link("west-europe", "west-europe", latency=0.001)

    def test_nan_site_cap_rejected(self, topo):
        """NaN passes a ``<= 0`` check, so it must be refused explicitly;
        ``inf`` stays valid and means uncapped."""
        with pytest.raises(ValueError, match="positive"):
            SiteSpec(egress_bw=math.nan).validate()
        with pytest.raises(ValueError, match="positive"):
            SiteSpec(ingress_bw=math.nan).validate()
        SiteSpec(egress_bw=math.inf, ingress_bw=math.inf).validate()
        topo.set_site_caps("west-europe", egress_bw=5.0)
        for caps in ({"egress_bw": math.nan}, {"ingress_bw": math.nan}):
            with pytest.raises(ValueError, match="positive"):
                topo.set_site_caps("west-europe", **caps)
            assert topo.site_caps("west-europe") == (5.0, math.inf)


class TestAzurePreset:
    def test_four_sites(self, topo):
        assert len(topo) == 4
        assert set(dc.name for dc in topo) == set(AZURE_4DC)

    def test_distance_classes(self, topo):
        assert topo.distance("west-europe", "north-europe") is Distance.SAME_REGION
        assert topo.distance("east-us", "south-central-us") is Distance.SAME_REGION
        assert topo.distance("west-europe", "east-us") is Distance.GEO_DISTANT

    def test_latency_hierarchy(self, topo):
        """local << same-region << geo-distant (the Fig. 1 ordering)."""
        local = topo.latency("west-europe", "west-europe")
        same_region = topo.latency("west-europe", "north-europe")
        distant = topo.latency("west-europe", "east-us")
        assert local * 5 < same_region < distant
        assert distant / local >= 50  # the paper's "up to 50x" remote cost

    def test_centrality_matches_paper(self, topo):
        """Section VI-B: East US most central, South Central US least."""
        assert topo.most_central().name == "east-us"
        assert topo.least_central().name == "south-central-us"

    def test_validates(self, topo):
        topo.validate()


class TestMakeTopology:
    def test_regions_grouping(self):
        topo = make_topology(
            ["a", "b", "c"],
            regions={"a": "eu", "b": "eu", "c": "us"},
            same_region_latency=0.01,
            geo_distant_latency=0.05,
        )
        assert topo.distance("a", "b") is Distance.SAME_REGION
        assert topo.latency("a", "b") == 0.01
        assert topo.latency("a", "c") == 0.05

    def test_default_singleton_regions(self):
        topo = make_topology(["a", "b"])
        assert topo.distance("a", "b") is Distance.GEO_DISTANT

    def test_empty_sites_rejected(self):
        with pytest.raises(ValueError):
            make_topology([])


class TestTopologyCopy:
    def test_copy_is_equal_but_independent(self):
        topo = azure_4dc_topology()
        clone = topo.copy()
        assert [dc.name for dc in clone] == [dc.name for dc in topo]
        assert clone.latency("west-europe", "east-us") == topo.latency(
            "west-europe", "east-us"
        )
        clone.validate()

    def test_latency_edits_do_not_leak_to_the_original(self):
        """The fault injectors' in-place latency edits stay contained."""
        topo = azure_4dc_topology()
        clone = topo.copy()
        before = topo.link("west-europe", "east-us").latency
        clone.link("west-europe", "east-us").latency *= 10
        assert topo.link("west-europe", "east-us").latency == before

    def test_site_cap_edits_do_not_leak_to_the_original(self):
        """The Deployment site-cap footgun: capping the copy leaves the
        caller-supplied original uncapped."""
        import math

        topo = azure_4dc_topology()
        clone = topo.copy()
        clone.set_site_caps("east-us", egress_bw=1.0, ingress_bw=2.0)
        assert topo.site_caps("east-us") == (math.inf, math.inf)
        assert clone.site_caps("east-us") == (1.0, 2.0)
        # And the reverse direction: original edits stay out of the copy.
        topo.set_site_caps("west-europe", egress_bw=5.0)
        assert clone.site_caps("west-europe")[0] == math.inf

    def test_local_link_is_independent(self):
        topo = azure_4dc_topology()
        clone = topo.copy()
        clone.local_link.latency *= 100
        assert topo.local_link.latency != clone.local_link.latency

    def test_copied_topology_drives_a_deployment(self):
        from repro.cloud.deployment import Deployment

        topo = azure_4dc_topology()
        dep = Deployment(
            topology=topo.copy(),
            n_nodes=4,
            site_egress_bw=10.0,
        )
        # Deployment mutated its own copy, not the caller's topology.
        import math

        assert topo.site_caps("east-us") == (math.inf, math.inf)
        assert dep.topology.site_caps("east-us")[0] == 10.0
