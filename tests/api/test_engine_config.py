"""Tests for the typed engine configuration."""

from __future__ import annotations

import os
from dataclasses import fields

import pytest

from repro.api import EngineConfig, FourCycleEngine
from repro.exceptions import ConfigurationError


class TestValidation:
    def test_defaults_are_valid(self):
        config = EngineConfig()
        assert config.counter == "assadi-shah"
        assert config.batch_size == 1

    def test_unknown_counter_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown counter"):
            EngineConfig(counter="does-not-exist")

    def test_unknown_option_rejected_at_boundary(self):
        with pytest.raises(ConfigurationError, match=r"'bogus'.*'wedge'"):
            EngineConfig(counter="wedge", options={"bogus": 1})

    def test_reserved_options_must_use_fields(self):
        with pytest.raises(ConfigurationError, match="workers"):
            EngineConfig(counter="wedge", options={"workers": 2})
        with pytest.raises(ConfigurationError, match="wal_path.*EngineConfig field"):
            EngineConfig(counter="wedge", options={"wal_path": "run.wal"})

    @pytest.mark.parametrize("batch_size", [0, -3, 1.5, True])
    def test_bad_batch_size_rejected(self, batch_size):
        with pytest.raises(ConfigurationError, match="batch_size"):
            EngineConfig(counter="wedge", batch_size=batch_size)

    def test_bytes_wal_path_is_decoded(self, tmp_path):
        path = tmp_path / "run.wal"
        config = EngineConfig(counter="wedge", wal_path=os.fsencode(path))
        assert config == EngineConfig(counter="wedge", wal_path=str(path))
        with FourCycleEngine(config) as engine:
            engine.insert(0, 1)
        assert engine.config.wal_path == str(path)
        assert path.stat().st_size > 0

    def test_counter_specific_options_accepted(self):
        config = EngineConfig(counter="phase-fmm", options={"phase_length": 9})
        assert config.counter_kwargs()["phase_length"] == 9

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"counter": ["wedge"]}, "counter"),
            ({"counter": 7}, "counter"),
            ({"counter": "wedge", "record_metrics": "false"}, "record_metrics"),
            ({"counter": "wedge", "record_metrics": 1}, "record_metrics"),
            ({"counter": "wedge", "track_costs": "false"}, "track_costs"),
            ({"counter": "wedge", "track_costs": None}, "track_costs"),
        ],
    )
    def test_outside_input_types_are_checked(self, payload, field):
        with pytest.raises(ConfigurationError, match=field):
            EngineConfig.from_dict(payload)


class TestRoundTrips:
    def test_to_from_dict_round_trip(self):
        config = EngineConfig(
            counter="assadi-shah",
            options={"phase_length": 32},
            batch_size=64,
            workers=2,
            track_costs=False,
        )
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown engine-config key"):
            EngineConfig.from_dict({"counter": "wedge", "bogus": 1})

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(ConfigurationError):
            EngineConfig.from_dict([("counter", "wedge")])
        with pytest.raises(ConfigurationError):
            EngineConfig.from_dict({"counter": "wedge", "options": ["phase_length"]})

    def test_from_counter_kwargs_lifts_common_options(self):
        config = EngineConfig.from_counter_kwargs(
            "phase-fmm",
            {"phase_length": 5, "workers": 2},
            batch_size=8,
        )
        assert config.workers == 2
        assert config.options == {"phase_length": 5}
        assert config.batch_size == 8

    def test_legacy_interned_true_is_accepted_and_dropped(self):
        """Snapshots and WAL meta files from before the label-only graph mode
        was removed carry ``"interned": true``."""
        legacy = dict(EngineConfig(counter="wedge", batch_size=4).to_dict(), interned=True)
        config = EngineConfig.from_dict(legacy)
        assert config == EngineConfig(counter="wedge", batch_size=4)
        assert "interned" not in config.to_dict()

    @pytest.mark.parametrize("value", [False, "true", 1, None])
    def test_legacy_interned_other_values_are_refused(self, value):
        with pytest.raises(ConfigurationError, match="label-only"):
            EngineConfig.from_dict({"counter": "wedge", "interned": value})

    def test_interned_is_no_longer_an_option(self):
        with pytest.raises(ConfigurationError, match="'interned'"):
            EngineConfig(counter="wedge", options={"interned": True})
        with pytest.raises(ConfigurationError, match="'interned'"):
            EngineConfig.from_counter_kwargs("wedge", {"interned": True})

    def test_fields_are_the_engine_settings_only(self):
        assert [item.name for item in fields(EngineConfig)] == [
            "counter", "options", "batch_size", "track_costs",
            "workers", "wal_path", "snapshot_every", "fsync_policy",
        ]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("backend", "auto"), ("backend", "dense"), ("backend", "csr"),
            ("shard_policy", "auto"), ("shard_policy", "serial"),
            ("shard_policy", "thread"), ("shard_policy", "process"),
            ("block_entries", None), ("block_entries", 1), ("block_entries", 4096),
        ],
    )
    def test_legacy_kernel_keys_are_accepted_and_dropped(self, key, value):
        """Snapshots and WAL meta files written while the kernel settings
        existed carry all three keys, with any value that version accepted."""
        legacy = dict(EngineConfig(counter="wedge", batch_size=4).to_dict(), **{key: value})
        config = EngineConfig.from_dict(legacy)
        assert config == EngineConfig(counter="wedge", batch_size=4)
        assert key not in config.to_dict()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("backend", "quantum"), ("backend", None), ("backend", ["csr"]),
            ("shard_policy", "gpu"), ("shard_policy", None),
            ("block_entries", 0), ("block_entries", -3), ("block_entries", True),
            ("block_entries", "4096"), ("block_entries", 1.5),
        ],
    )
    def test_legacy_kernel_keys_other_values_are_refused(self, key, value):
        with pytest.raises(ConfigurationError, match=f"{key}=.*setting was removed"):
            EngineConfig.from_dict({"counter": "wedge", key: value})

    @pytest.mark.parametrize("key", ["backend", "shard_policy", "block_entries"])
    def test_removed_kernel_settings_are_refused_outside_persisted_configs(self, key):
        value = {"backend": "csr", "shard_policy": "thread", "block_entries": 4096}[key]
        with pytest.raises(TypeError, match=key):
            EngineConfig(counter="wedge", **{key: value})
        with pytest.raises(TypeError, match=key):
            EngineConfig(counter="wedge").with_updates(**{key: value})
        with pytest.raises(TypeError, match=key):
            FourCycleEngine(EngineConfig(counter="wedge"), **{key: value})
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            EngineConfig(counter="wedge", options={key: value})
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            EngineConfig.from_counter_kwargs("wedge", {key: value})

    @pytest.mark.parametrize("value", [True, False])
    def test_legacy_record_metrics_is_accepted_and_dropped(self, value):
        """Snapshots and WAL meta files written while the counters carried
        their own per-update recorder hold ``record_metrics``."""
        legacy = dict(EngineConfig(counter="wedge", batch_size=4).to_dict(), record_metrics=value)
        config = EngineConfig.from_dict(legacy)
        assert config == EngineConfig(counter="wedge", batch_size=4)
        assert "record_metrics" not in config.to_dict()

    @pytest.mark.parametrize("value", ["yes", "true", 1, None])
    def test_legacy_record_metrics_other_values_are_refused(self, value):
        with pytest.raises(ConfigurationError, match="record_metrics=.*recorder was removed"):
            EngineConfig.from_dict({"counter": "wedge", "record_metrics": value})

    def test_record_metrics_is_refused_outside_persisted_configs(self):
        with pytest.raises(TypeError, match="record_metrics"):
            EngineConfig(counter="wedge", record_metrics=True)
        with pytest.raises(TypeError, match="record_metrics"):
            EngineConfig(counter="wedge").with_updates(record_metrics=True)
        with pytest.raises(TypeError, match="record_metrics"):
            FourCycleEngine(EngineConfig(counter="wedge"), record_metrics=True)
        with pytest.raises(TypeError, match="record_metrics"):
            FourCycleEngine("wedge", record_metrics=True)
        with pytest.raises(ConfigurationError, match="'record_metrics'"):
            EngineConfig(counter="wedge", options={"record_metrics": True})
        with pytest.raises(ConfigurationError, match="'record_metrics'"):
            EngineConfig.from_counter_kwargs("wedge", {"record_metrics": True})

    def test_with_updates(self):
        config = EngineConfig(counter="wedge")
        updated = config.with_updates(batch_size=16)
        assert updated.batch_size == 16
        assert updated.counter == "wedge"
        assert config.batch_size == 1  # original unchanged
