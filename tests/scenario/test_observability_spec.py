"""ObservabilitySpec: validation, round-trip, and hash exemption."""

import json

import pytest

from repro.scenario import ObservabilitySpec, ScenarioSpec


def spec_with(obs):
    return ScenarioSpec(name="obs-spec-test", observability=obs)


class TestValidation:
    def test_defaults_valid(self):
        ObservabilitySpec().validate()
        spec_with(ObservabilitySpec()).validate()

    def test_enabled_with_categories(self):
        ObservabilitySpec(
            enabled=True, categories=("kernel", "span")
        ).validate()

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ObservabilitySpec(
                enabled=True, categories=("kernel", "bogus")
            ).validate()

    def test_empty_categories_rejected(self):
        with pytest.raises(ValueError):
            ObservabilitySpec(enabled=True, categories=()).validate()

    def test_knob_bounds(self):
        with pytest.raises(ValueError):
            ObservabilitySpec(enabled=True, sample_interval=0.0).validate()
        with pytest.raises(ValueError):
            ObservabilitySpec(enabled=True, max_events=0).validate()
        with pytest.raises(ValueError):
            ObservabilitySpec(
                enabled=True, histogram_capacity=4
            ).validate()

    # NaN passes every "<= 0" style check, and ``sweep --set`` values go
    # through json.loads, which accepts NaN: each knob must refuse it.
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-1.0"])
    def test_sample_interval_must_be_positive_and_finite(self, value):
        spec = spec_with(ObservabilitySpec(enabled=True)).replace(
            **{"observability.sample_interval": json.loads(value)}
        )
        with pytest.raises(ValueError, match="sample_interval"):
            spec.validate()

    @pytest.mark.parametrize("value", ["NaN", "2.5", "1e6", "true"])
    def test_max_events_must_be_a_positive_integer(self, value):
        spec = spec_with(ObservabilitySpec(enabled=True)).replace(
            **{"observability.max_events": json.loads(value)}
        )
        with pytest.raises(ValueError, match="max_events"):
            spec.validate()

    @pytest.mark.parametrize("value", ["NaN", "2048.0", "16.5", "true"])
    def test_histogram_capacity_must_be_an_integer(self, value):
        spec = spec_with(ObservabilitySpec(enabled=True)).replace(
            **{"observability.histogram_capacity": json.loads(value)}
        )
        with pytest.raises(ValueError, match="histogram_capacity"):
            spec.validate()

    def test_masquerade_guard(self):
        """Non-default knobs without enabled=True are a config mistake."""
        with pytest.raises(ValueError, match="enabled"):
            ObservabilitySpec(sample_interval=0.5).validate()
        with pytest.raises(ValueError, match="enabled"):
            ObservabilitySpec(categories=("kernel",)).validate()

    def test_categories_coerced_to_tuple(self):
        obs = ObservabilitySpec(enabled=True, categories=["kernel"])
        assert obs.categories == ("kernel",)


class TestSerialization:
    def test_round_trip(self):
        spec = spec_with(
            ObservabilitySpec(
                enabled=True,
                categories=("network", "span"),
                sample_interval=0.25,
                max_events=5000,
                histogram_capacity=128,
            )
        )
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.observability.categories == ("network", "span")

    def test_replace_reaches_nested_fields(self):
        spec = spec_with(ObservabilitySpec(enabled=True))
        off = spec.replace(**{"observability.enabled": False})
        assert off.observability.enabled is False
        assert spec.observability.enabled is True  # original untouched


class TestHashExemption:
    def test_spec_hash_ignores_observability(self):
        """Tracing is a lens, not an experiment input: artifacts keyed
        by spec hash must collide across traced/untraced runs."""
        plain = spec_with(ObservabilitySpec())
        traced = spec_with(
            ObservabilitySpec(enabled=True, sample_interval=0.1)
        )
        assert plain.spec_hash() == traced.spec_hash()
        assert '"observability"' not in plain.canonical_json()

    def test_to_dict_still_carries_observability(self):
        doc = spec_with(ObservabilitySpec(enabled=True)).to_dict()
        assert doc["observability"]["enabled"] is True
