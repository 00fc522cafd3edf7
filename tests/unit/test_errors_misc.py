"""Edge-path tests: the exception hierarchy and small remaining guards."""

import pytest

from repro import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        leaves = [
            errors.ConfigError,
            errors.PlatformError,
            errors.UnsupportedFeatureError,
            errors.MSRError,
            errors.MSRAddressError,
            errors.MSRPermissionError,
            errors.FrequencyError,
            errors.SchedulerError,
            errors.PolicyError,
            errors.ShareError,
            errors.SimulationError,
        ]
        for exc in leaves:
            assert issubclass(exc, errors.ReproError)

    def test_unsupported_feature_is_platform_error(self):
        assert issubclass(
            errors.UnsupportedFeatureError, errors.PlatformError
        )

    def test_msr_subtypes(self):
        assert issubclass(errors.MSRAddressError, errors.MSRError)
        assert issubclass(errors.MSRPermissionError, errors.MSRError)

    def test_share_error_is_policy_error(self):
        assert issubclass(errors.ShareError, errors.PolicyError)

    def test_catchable_at_api_boundary(self):
        from repro.hw.platform import get_platform

        with pytest.raises(errors.ReproError):
            get_platform("nonexistent")


class TestRaplDomain:
    def test_domains_named(self):
        from repro.hw.rapl import RaplDomain

        assert RaplDomain.PACKAGE.value == "package"
        assert RaplDomain.CORE.value == "core"
