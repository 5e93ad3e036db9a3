"""Validation tests for MetadataConfig."""

import pytest

from repro.metadata.config import MetadataConfig
from repro.scenario import SchedulerSpec, config_from_specs


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
        ("scheduler", "annealing"),
        ("hybrid_locality_weight", -1.0),
        ("hybrid_load_weight", -0.5),
        ("hybrid_transfer_weight", -2.0),
        ("bw_pending_penalty", -0.1),
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


class TestSchedulerFolding:
    """``config_from_specs`` folds a validated SchedulerSpec."""

    def test_none_without_knobs_keeps_base(self):
        assert config_from_specs(scheduler=SchedulerSpec()) is None
        base = MetadataConfig(sync_period=9.0)
        assert config_from_specs(scheduler=SchedulerSpec(), base=base) is base

    def test_scheduler_pinned_on_top_of_base(self):
        base = MetadataConfig(sync_period=9.0, home_site="east-us")
        cfg = config_from_specs(
            scheduler=SchedulerSpec(
                name="bandwidth_aware", bw_pending_penalty=0.5
            ),
            base=base,
        )
        assert cfg.scheduler == "bandwidth_aware"
        assert cfg.bw_pending_penalty == 0.5
        assert cfg.sync_period == 9.0
        assert cfg.home_site == "east-us"

    def test_valid_schedulers_accepted(self):
        from repro.scheduling import SCHEDULER_NAMES

        for name in SCHEDULER_NAMES:
            cfg = config_from_specs(scheduler=SchedulerSpec(name=name))
            assert cfg.scheduler == name

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name=None, hybrid_locality_weight=2.0),
            dict(name="locality", hybrid_load_weight=0.5),
            dict(name="bandwidth_aware", hybrid_transfer_weight=2.0),
            dict(name="round_robin", bw_pending_penalty=0.0),
            dict(name=None, bw_pending_penalty=2.0),
        ],
    )
    def test_mismatched_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            config_from_specs(scheduler=SchedulerSpec(**kwargs))

    def test_pending_penalty_allowed_for_hybrid(self):
        cfg = config_from_specs(
            scheduler=SchedulerSpec(
                name="hybrid",
                bw_pending_penalty=0.0,
                hybrid_locality_weight=3.0,
            )
        )
        assert cfg.bw_pending_penalty == 0.0
        assert cfg.hybrid_locality_weight == 3.0


def test_config_is_plain_dataclass():
    """Configs clone via the ``__dict__`` idiom used by the harness."""
    cfg = MetadataConfig(home_site="east-us")
    clone = MetadataConfig(**{**cfg.__dict__, "sync_period": 9.0})
    assert clone.home_site == "east-us"
    assert clone.sync_period == 9.0
    assert cfg.sync_period == 2.0
