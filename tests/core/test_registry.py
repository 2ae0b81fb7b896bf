"""Tests for the legacy counter-registry shims (see tests/api for the specs)."""

from __future__ import annotations

import pytest

from repro.core.base import DynamicFourCycleCounter
from repro.core.brute_force import BruteForceCounter
from repro.core.registry import available_counters, create_counter, register_counter
from repro.exceptions import ConfigurationError


EXPECTED_BUILTINS = {"brute-force", "wedge", "hhh22", "phase-fmm", "assadi-shah"}


class TestRegistry:
    def test_builtins_registered(self):
        assert EXPECTED_BUILTINS.issubset(set(available_counters()))

    def test_create_counter_warns_but_works(self):
        with pytest.warns(DeprecationWarning, match="create_counter"):
            counter = create_counter("wedge")
        assert isinstance(counter, DynamicFourCycleCounter)
        assert counter.name == "wedge"

    def test_create_with_kwargs(self):
        with pytest.warns(DeprecationWarning):
            counter = create_counter("phase-fmm", phase_length=7)
        assert counter.phase_length == 7

    def test_unknown_name(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ConfigurationError):
                create_counter("does-not-exist")

    def test_unknown_option_raises_configuration_error(self):
        """Regression: a bad kwarg must raise ConfigurationError naming the
        option and the counter, not a bare TypeError from the constructor."""
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ConfigurationError, match=r"'bogus'.*'wedge'"):
                create_counter("wedge", bogus=1)

    @pytest.mark.usefixtures("scoped_counter_specs")
    def test_register_and_overwrite_protection(self):
        register_counter("custom-test-counter", BruteForceCounter, overwrite=True)
        assert "custom-test-counter" in available_counters()
        with pytest.raises(ConfigurationError):
            register_counter("custom-test-counter", BruteForceCounter)
        register_counter("custom-test-counter", BruteForceCounter, overwrite=True)

    @pytest.mark.usefixtures("scoped_counter_specs")
    def test_legacy_registration_skips_option_validation(self):
        """Bare factories have unknown signatures; their kwargs pass through."""
        register_counter("custom-test-counter", BruteForceCounter, overwrite=True)
        with pytest.warns(DeprecationWarning):
            counter = create_counter("custom-test-counter", interned=False)
        assert isinstance(counter, BruteForceCounter)

    def test_available_counters_sorted(self):
        names = available_counters()
        assert names == sorted(names)
