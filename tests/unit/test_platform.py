"""Tests for the platform descriptors (paper Table 1 fidelity)."""

import dataclasses

import pytest

from repro.errors import ConfigError, PlatformError
from repro.hw.platform import (
    PLATFORM_REGISTRY,
    get_platform,
    ryzen_1700x,
    skylake_xeon_4114,
)


class TestSkylakeSpec:
    """The Xeon SP 4114 facts from paper Table 1."""

    def test_core_count(self, skylake):
        assert skylake.n_cores == 10
        assert skylake.n_threads == 20

    def test_frequency_range(self, skylake):
        assert skylake.min_frequency_mhz == 800.0
        assert skylake.max_nominal_frequency_mhz == 2200.0
        assert skylake.max_frequency_mhz == 3000.0

    def test_step_100mhz(self, skylake):
        assert skylake.step_mhz == 100.0

    def test_rapl_range(self, skylake):
        assert skylake.has_rapl_limit
        assert skylake.rapl_limit_range_w == (20.0, 85.0)

    def test_no_per_core_energy(self, skylake):
        """Power shares are impossible on Skylake (paper section 4.2)."""
        assert not skylake.has_per_core_energy

    def test_unrestricted_simultaneous_pstates(self, skylake):
        assert skylake.simultaneous_pstates == skylake.n_cores

    def test_reference_frequency(self, skylake):
        assert skylake.reference_frequency_mhz == 2200.0

    def test_avx_cap_below_nominal_max(self, skylake):
        assert skylake.avx_max_frequency_mhz < skylake.max_nominal_frequency_mhz


class TestRyzenSpec:
    """The Ryzen 1700X facts from paper Table 1."""

    def test_core_count(self, ryzen):
        assert ryzen.n_cores == 8
        assert ryzen.n_threads == 16

    def test_frequency_range(self, ryzen):
        assert ryzen.min_frequency_mhz == 400.0
        assert ryzen.max_frequency_mhz == 3800.0

    def test_step_25mhz(self, ryzen):
        assert ryzen.step_mhz == 25.0

    def test_three_simultaneous_pstates(self, ryzen):
        assert ryzen.simultaneous_pstates == 3

    def test_no_rapl_limit(self, ryzen):
        assert not ryzen.has_rapl_limit

    def test_per_core_energy(self, ryzen):
        assert ryzen.has_per_core_energy

    def test_reference_frequency(self, ryzen):
        assert ryzen.reference_frequency_mhz == 3000.0

    def test_policy_floor_is_800(self, ryzen):
        """The paper's P-state remapping floors Ryzen at 800 MHz."""
        assert ryzen.policy_floor_mhz == 800.0


class TestCommonBehaviour:
    def test_core_ids(self, platform):
        assert list(platform.core_ids()) == list(range(platform.n_cores))

    def test_validate_core_ok(self, platform):
        platform.validate_core(0)
        platform.validate_core(platform.n_cores - 1)

    def test_validate_core_out_of_range(self, platform):
        with pytest.raises(PlatformError):
            platform.validate_core(platform.n_cores)
        with pytest.raises(PlatformError):
            platform.validate_core(-1)

    def test_avx_effective_max(self, platform):
        assert (
            platform.effective_max_frequency_mhz(True)
            == platform.avx_max_frequency_mhz
        )
        assert (
            platform.effective_max_frequency_mhz(False)
            == platform.max_frequency_mhz
        )

    def test_turbo_bins_sorted(self, platform):
        keys = [k for k, _ in platform.turbo_bins]
        assert keys == sorted(keys)

    def test_policy_floor_at_least_hw_min(self, platform):
        assert platform.policy_floor_mhz >= platform.min_frequency_mhz

    def test_dynamic_range_frequency(self, platform):
        """Paper section 5.2: frequency varies by a factor of 3-4 within
        the nominal range, more including boost."""
        ratio = platform.max_frequency_mhz / platform.min_frequency_mhz
        assert ratio >= 2.7


class TestRegistry:
    def test_lookup_by_alias(self):
        assert get_platform("skylake").name == "skylake-xeon-4114"
        assert get_platform("ryzen").name == "ryzen-1700x"

    def test_lookup_case_insensitive(self):
        assert get_platform("SKYLAKE").name == "skylake-xeon-4114"

    def test_lookup_full_name(self):
        assert get_platform("ryzen-1700x").n_cores == 8

    def test_unknown_platform_raises(self):
        with pytest.raises(ConfigError, match="unknown platform"):
            get_platform("epyc")

    def test_registry_shares_one_frozen_spec(self):
        spec = get_platform("skylake")
        assert get_platform("SKYLAKE") is spec
        assert get_platform("skylake-xeon-4114") is spec
        assert get_platform("ryzen") is not spec
        # a factory still builds a spec of its own, equal by value
        assert skylake_xeon_4114() is not spec
        assert skylake_xeon_4114() == spec
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.n_cores = 4

    def test_registry_contents(self):
        assert set(PLATFORM_REGISTRY) >= {"skylake", "ryzen"}

    def test_factories_match_registry(self):
        assert skylake_xeon_4114().vendor == "intel"
        assert ryzen_1700x().vendor == "amd"
