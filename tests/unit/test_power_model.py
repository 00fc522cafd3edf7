"""Tests for the analytic power model."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.power_model import (
    core_power_breakdown,
    core_power_watts,
    package_power_watts,
)


class TestCorePower:
    def test_idle_core_draws_floor(self, platform):
        power = core_power_watts(platform, 0.0, 0.0, 0.0, active=False)
        assert power == platform.power.idle_core_watts

    def test_zero_busy_active_draws_floor(self, platform):
        power = core_power_watts(platform, 2000.0, 1.0, 0.0, active=True)
        assert power == platform.power.idle_core_watts

    def test_power_increases_with_frequency(self, platform):
        lo = core_power_watts(platform, platform.min_frequency_mhz, 1.0, 1.0)
        hi = core_power_watts(platform, platform.max_frequency_mhz, 1.0, 1.0)
        assert hi > lo

    def test_power_superlinear_in_frequency(self, platform):
        """V rises with f, so P grows faster than linearly (P ∝ V²f)."""
        f1 = platform.min_frequency_mhz
        f2 = platform.max_nominal_frequency_mhz
        p1 = core_power_watts(platform, f1, 1.0, 1.0)
        p2 = core_power_watts(platform, f2, 1.0, 1.0)
        assert p2 / p1 > f2 / f1

    def test_power_scales_with_c_eff(self, platform):
        ld = core_power_watts(platform, 2000.0, 0.8, 1.0)
        hd = core_power_watts(platform, 2000.0, 1.3, 1.0)
        assert hd > ld

    def test_busy_fraction_scales_dynamic_only(self, platform):
        full = core_power_breakdown(platform, 2000.0, 1.0, 1.0)
        half = core_power_breakdown(platform, 2000.0, 1.0, 0.5)
        assert half.dynamic_w == pytest.approx(full.dynamic_w / 2)
        assert half.leakage_w == full.leakage_w

    def test_breakdown_sums_to_total(self, platform):
        breakdown = core_power_breakdown(platform, 1800.0, 1.1, 0.8)
        assert breakdown.total_w == pytest.approx(
            breakdown.dynamic_w + breakdown.leakage_w + breakdown.idle_w
        )

    def test_active_zero_frequency_rejected(self, platform):
        with pytest.raises(SimulationError):
            core_power_watts(platform, 0.0, 1.0, 1.0, active=True)

    def test_bad_busy_fraction_rejected(self, platform):
        with pytest.raises(SimulationError):
            core_power_watts(platform, 2000.0, 1.0, 1.5)

    def test_turbo_voltage_step_produces_power_jump(self, skylake):
        """Entering the turbo bins costs a discrete power step — the ~5 W
        package jump of paper Fig 2."""
        nominal = core_power_watts(skylake, 2200.0, 1.0, 1.0)
        turbo = core_power_watts(skylake, 2300.0, 1.0, 1.0)
        # far more than the 100 MHz alone would explain (~5%)
        assert turbo > nominal * 1.15


class TestDynamicRange:
    def test_ryzen_core_power_range(self, ryzen):
        """Paper section 5.2: core power varies by a factor of 12-14
        (measured on Ryzen, the platform with per-core counters).  With
        a real app the activity factor compresses the constant-c_eff
        ratio toward that band."""
        from repro.workloads.spec import spec_app

        app = spec_app("omnetpp")
        powers = []
        for freq in (ryzen.min_frequency_mhz, ryzen.max_frequency_mhz):
            c_eff = app.c_eff * app.activity_power_factor(
                freq, ryzen.reference_frequency_mhz
            )
            powers.append(core_power_watts(ryzen, freq, c_eff, 1.0))
        assert 10.0 <= powers[1] / powers[0] <= 16.0


class TestPackagePower:
    def test_adds_uncore(self, platform):
        cores = [1.0] * platform.n_cores
        assert package_power_watts(platform, cores) == pytest.approx(
            platform.n_cores + platform.power.uncore_watts
        )

    def test_empty_core_list(self, platform):
        assert package_power_watts(platform, []) == (
            platform.power.uncore_watts
        )

    def test_cores_fold_left_whatever_sum_does(self, platform, monkeypatch):
        """The cores are a plain left fold, as ``kernel.package_rows``
        folds them; ``sum`` of floats is compensated from Python 3.12 on
        (there these powers sum to 3.5999999999999996, left-folded to
        3.5), so the module must not call it.  Shadowing ``sum`` with
        ``math.fsum`` makes any Python behave like 3.12 here."""
        from repro.sim import power_model

        monkeypatch.setattr(power_model, "sum", math.fsum, raising=False)
        powers = [0.1, 1e16, -1e16, 0.2, 3.3]
        expected = 0.0
        for power in powers:
            expected += power
        expected += platform.power.uncore_watts
        assert package_power_watts(platform, powers).hex() == expected.hex()

    def test_skylake_tdp_anchor(self, skylake):
        """Ten cactusBSSN-class cores at nominal max should land near the
        85 W TDP (the calibration anchor)."""
        per_core = core_power_watts(skylake, 2200.0, 1.25 * 0.85, 1.0)
        pkg = package_power_watts(skylake, [per_core] * 10)
        assert 70.0 <= pkg <= 90.0
