"""Tests for RNG streams, unit helpers and the NaN-safe and bool checks."""

import math

import numpy as np
import pytest

from repro.util.checks import check_bool, check_number
from repro.util.rng import RngStreams, derive_seed
from repro.util.units import GB, KB, MB, fmt_bytes, fmt_duration


class TestRngStreams:
    def test_same_name_same_stream(self):
        s = RngStreams(seed=1)
        assert s.get("a") is s.get("a")

    def test_independent_streams(self):
        # Drawing from stream 'b' must not disturb stream 'a': the
        # first draw of 'a' is identical whether or not 'b' was used.
        s1 = RngStreams(seed=1)
        a_only = s1.get("a").integers(10**9)
        s2 = RngStreams(seed=1)
        s2.get("b").integers(10**9)  # interleaved draw on another stream
        assert s2.get("a").integers(10**9) == a_only

    def test_reproducible_across_instances(self):
        assert (
            RngStreams(seed=5).get("x").random()
            == RngStreams(seed=5).get("x").random()
        )

    def test_different_seeds_differ(self):
        assert (
            RngStreams(seed=1).get("x").random()
            != RngStreams(seed=2).get("x").random()
        )

    def test_reset(self):
        s = RngStreams(seed=3)
        first = s.get("x").random()
        s.reset()
        assert s.get("x").random() == first

    def test_contains(self):
        s = RngStreams()
        assert "x" not in s
        s.get("x")
        assert "x" in s

    def test_derive_seed_stable(self):
        assert derive_seed(42, "network") == derive_seed(42, "network")
        assert derive_seed(42, "a") != derive_seed(42, "b")


class TestUnits:
    def test_byte_constants(self):
        assert MB == 1024 * KB
        assert GB == 1024 * MB

    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(3 * MB) == "3.0 MB"
        assert fmt_bytes(2 * GB) == "2.0 GB"

    def test_fmt_duration(self):
        assert fmt_duration(0.5) == "500.0ms"
        assert fmt_duration(12.3) == "12.3s"
        assert fmt_duration(90) == "1m30.0s"
        assert fmt_duration(3725) == "1h02m05.0s"
        assert fmt_duration(-5).startswith("-")


class TestCheckNumber:
    @pytest.mark.parametrize(
        "value,kwargs",
        [
            (1e-9, {}),
            (0, {"minimum": 0}),
            (3, {"integer": True}),
            (1, {"minimum": 1, "integer": True}),
        ],
    )
    def test_in_range_values_pass(self, value, kwargs):
        check_number("knob", value, **kwargs)

    @pytest.mark.parametrize(
        "value,kwargs,message",
        [
            (math.nan, {}, "a positive finite number"),
            (math.inf, {}, "a positive finite number"),
            (0.0, {}, "a positive finite number"),
            (math.nan, {"minimum": 0}, "a finite number >= 0"),
            (-0.5, {"minimum": 0}, "a finite number >= 0"),
            (2.5, {"integer": True}, "a positive integer"),
            (True, {"integer": True}, "a positive integer"),
            (math.nan, {"integer": True}, "a positive integer"),
            (0, {"minimum": 1, "integer": True}, "an integer >= 1"),
        ],
    )
    def test_out_of_range_values_named_in_the_error(
        self, value, kwargs, message
    ):
        with pytest.raises(ValueError, match=f"knob must be {message}, got"):
            check_number("knob", value, **kwargs)


class TestCheckBool:
    @pytest.mark.parametrize("value", [True, False])
    def test_bools_pass(self, value):
        check_bool("switch", value)

    @pytest.mark.parametrize(
        "value", [1, 0, "yes", "false", math.nan, None, np.bool_(True)]
    )
    def test_other_values_named_in_the_error(self, value):
        with pytest.raises(ValueError, match="switch must be true or false"):
            check_bool("switch", value)
