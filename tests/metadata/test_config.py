"""Validation tests for MetadataConfig."""

import json

import pytest

from repro.metadata.config import MetadataConfig

#: ``sweep --set`` parses values with json.loads, which accepts these.
NAN = json.loads("NaN")
INF = json.loads("Infinity")


class TestDefaultsAreValid:
    def test_default_config_validates(self):
        MetadataConfig().validate()

    def test_defaults_reflect_calibration(self):
        cfg = MetadataConfig()
        assert cfg.service_time == pytest.approx(0.003)
        assert cfg.client_overhead == pytest.approx(0.050)
        assert cfg.sync_period == 2.0
        assert cfg.hybrid_sync_replication is False
        assert cfg.write_lookup is False


@pytest.mark.parametrize(
    "field,value",
    [
        ("service_time", 0),
        ("service_time", -1),
        ("service_concurrency", 0),
        ("client_overhead", -0.1),
        ("merge_entry_time", -1),
        ("sync_period", 0),
        ("replication_flush_interval", 0),
        ("replication_batch_size", 0),
        ("read_max_retries", -1),
        ("read_retry_backoff", 0.5),
        ("virtual_nodes", 0),
        # NaN passes every "<= 0" style check, so each bound is written
        # to fail it; infinite values are refused too.
        ("service_time", NAN),
        ("service_concurrency", NAN),
        ("client_overhead", NAN),
        ("merge_entry_time", NAN),
        ("sync_period", NAN),
        ("sync_period", INF),
        ("replication_flush_interval", NAN),
        ("replication_batch_size", NAN),
        ("read_max_retries", NAN),
        ("read_retry_backoff", NAN),
        ("read_retry_interval", NAN),
        ("read_retry_max_delay", NAN),
        ("read_retry_max_delay", INF),
        ("virtual_nodes", NAN),
        # Switches must be real bools: truthiness would take these as on.
        ("hybrid_sync_replication", 1),
        ("hybrid_sync_replication", NAN),
        ("write_lookup", "yes"),
        ("write_lookup", 0),
    ],
)
def test_invalid_values_rejected(field, value):
    cfg = MetadataConfig(**{field: value})
    with pytest.raises(ValueError):
        cfg.validate()


def test_retry_cap_must_cover_interval():
    cfg = MetadataConfig(read_retry_interval=1.0, read_retry_max_delay=0.5)
    with pytest.raises(ValueError):
        cfg.validate()


def test_config_is_plain_dataclass():
    """Configs clone via the ``__dict__`` idiom used by the harness."""
    cfg = MetadataConfig(home_site="east-us")
    clone = MetadataConfig(**{**cfg.__dict__, "sync_period": 9.0})
    assert clone.home_site == "east-us"
    assert clone.sync_period == 9.0
    assert cfg.sync_period == 2.0
