"""Tests for the capability-aware counter registry."""

from __future__ import annotations

import pytest

from repro.api import (
    CounterSpec,
    OptionSpec,
    available_counter_names,
    available_specs,
    counter_spec,
    register_spec,
)
from repro.core.base import DynamicFourCycleCounter
from repro.core.brute_force import BruteForceCounter
from repro.core.wedge_counter import WedgeCounter
from repro.exceptions import ConfigurationError

BUILTINS = ("assadi-shah", "brute-force", "hhh22", "phase-fmm", "wedge")


class TestSpecs:
    def test_builtin_specs_present_and_sorted(self):
        names = [spec.name for spec in available_specs()]
        assert set(BUILTINS).issubset(set(names))
        assert names == sorted(names)

    def test_available_counter_names_lists_every_spec(self):
        names = available_counter_names()
        assert names == [spec.name for spec in available_specs()]
        assert set(BUILTINS).issubset(names)

    def test_every_builtin_supports_batch_hook(self):
        for name in BUILTINS:
            assert counter_spec(name).supports_batch_hook

    def test_oracle_capability(self):
        assert counter_spec("assadi-shah").needs_oracle
        assert counter_spec("phase-fmm").needs_oracle
        assert not counter_spec("wedge").needs_oracle
        assert not counter_spec("brute-force").needs_oracle

    def test_common_options_listed_everywhere(self):
        for name in BUILTINS:
            names = counter_spec(name).option_names()
            assert "workers" in names and "record_metrics" in names
            for removed in ("interned", "backend", "shard_policy", "block_entries"):
                assert removed not in names

    def test_unknown_counter(self):
        with pytest.raises(ConfigurationError, match="available"):
            counter_spec("nope")


class TestValidationAndCreate:
    def test_create_builds_counter(self):
        counter = counter_spec("wedge").create()
        assert isinstance(counter, DynamicFourCycleCounter)
        assert counter.name == "wedge"

    def test_unknown_option_names_option_and_counter(self):
        with pytest.raises(ConfigurationError) as excinfo:
            counter_spec("wedge").create(bogus=1)
        message = str(excinfo.value)
        assert "'bogus'" in message and "'wedge'" in message
        assert "workers" in message  # the valid options are listed

    def test_multiple_unknown_options_all_named(self):
        with pytest.raises(ConfigurationError, match="'alpha'.*'beta'"):
            counter_spec("hhh22").validate_options({"alpha": 1, "beta": 2})

    def test_phase_options_accepted(self):
        counter = counter_spec("phase-fmm").create(phase_length=11)
        assert counter.phase_length == 11
        counter_spec("assadi-shah").validate_options({"phase_length": 11, "eps": 0.01})


class TestRegistration:
    @pytest.mark.usefixtures("scoped_counter_specs")
    def test_register_spec_overwrite_protection(self):
        spec = CounterSpec(
            name="api-test-counter",
            factory=WedgeCounter,
            description="test spec",
            asymptotic="O(n)",
            supports_batch_hook=True,
            options=(OptionSpec("workers", 1), OptionSpec("record_metrics", False)),
        )
        register_spec(spec, overwrite=True)
        assert counter_spec("api-test-counter") is spec
        with pytest.raises(ConfigurationError):
            register_spec(spec)
        register_spec(spec, overwrite=True)

    @pytest.mark.usefixtures("scoped_counter_specs")
    def test_registered_spec_is_listed_by_name(self):
        assert "api-listed-counter" not in available_counter_names()
        register_spec(CounterSpec(name="api-listed-counter", factory=BruteForceCounter))
        assert "api-listed-counter" in available_counter_names()

    @pytest.mark.usefixtures("scoped_counter_specs")
    def test_spec_without_options_skips_validation(self):
        """A factory whose signature the registry cannot know: its kwargs
        pass through unvalidated."""
        spec = CounterSpec(name="api-test-factory", factory=BruteForceCounter)
        assert spec.options is None
        spec.validate_options({"anything": "goes"})  # no-op, must not raise
        assert spec.option_names() == ()
        register_spec(spec, overwrite=True)
        counter = counter_spec("api-test-factory").create(record_metrics=True)
        assert isinstance(counter, BruteForceCounter)
        assert counter.metrics is not None


class TestImportLayering:
    def test_spec_store_lives_below_the_api_package(self):
        """Regression: the registry must not force core modules to import
        repro.api — repro.api.registry is a re-export of repro.core.specs."""
        import repro.api.registry
        import repro.core.specs

        assert repro.api.registry.counter_spec is repro.core.specs.counter_spec

    def test_api_package_imports_standalone(self):
        """Importing repro.api in a fresh interpreter (without repro.core
        having been imported first) must not hit a partial-init cycle."""
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-c", "import repro.api; print(repro.api.available_counter_names())"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "assadi-shah" in result.stdout
