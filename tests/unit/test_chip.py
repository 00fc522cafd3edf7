"""Tests for the chip model: frequency resolution, counters, enforcement."""

import pytest

from repro.errors import FrequencyError, MSRPermissionError, PlatformError
from repro.hw import msr as msrdef
from repro.sim.core import BatchCoreLoad
from repro.workloads.app import RunningApp
from repro.workloads.spec import spec_app


def load_app(chip, core_id, name="gcc"):
    app = RunningApp(spec_app(name, steady=True))
    chip.assign_load(
        core_id, BatchCoreLoad(app, chip.platform.reference_frequency_mhz)
    )
    return app


class TestFrequencyControl:
    def test_request_on_grid(self, sky_chip):
        sky_chip.set_requested_frequency(0, 1500.0)
        assert sky_chip.requested_frequency(0) == 1500.0

    def test_off_grid_rejected(self, sky_chip):
        with pytest.raises(FrequencyError):
            sky_chip.set_requested_frequency(0, 1550.0)

    def test_bad_core_rejected(self, sky_chip):
        with pytest.raises(PlatformError):
            sky_chip.set_requested_frequency(99, 800.0)

    def test_effective_tracks_request_when_unconstrained(self, sky_chip):
        load_app(sky_chip, 0)
        sky_chip.set_requested_frequency(0, 1500.0)
        sky_chip.run_ticks(2)
        assert sky_chip.effective_frequency(0) == 1500.0

    def test_avx_cap_applies(self, sky_chip):
        load_app(sky_chip, 0, "cam4")
        sky_chip.set_requested_frequency(0, 2200.0)
        sky_chip.run_ticks(2)
        assert (
            sky_chip.effective_frequency(0)
            == sky_chip.platform.avx_max_frequency_mhz
        )

    def test_avx_cap_applies_to_a_newly_placed_load(self, sky_chip):
        """Placing a load re-resolves the cached P-state view: a core
        already running at 3 GHz drops to the AVX cap once an AVX load
        lands on it, with no new request."""
        load_app(sky_chip, 0)
        sky_chip.set_requested_frequency(0, 3000.0)
        sky_chip.run_ticks(2)
        assert sky_chip.effective_frequency(0) == 3000.0
        load_app(sky_chip, 0, "cam4")
        sky_chip.run_ticks(1)
        assert (
            sky_chip.effective_frequency(0)
            <= sky_chip.platform.avx_max_frequency_mhz
        )

    def test_turbo_ceiling_depends_on_active_cores(self, sky_chip):
        for core_id in range(10):
            load_app(sky_chip, core_id)
            sky_chip.set_requested_frequency(core_id, 3000.0)
        sky_chip.run_ticks(2)
        # 10 active cores: all-core turbo, not full 3.0 GHz
        assert sky_chip.effective_frequency(0) == 2500.0

    def test_single_core_full_turbo(self, sky_chip):
        load_app(sky_chip, 0)
        sky_chip.set_requested_frequency(0, 3000.0)
        sky_chip.run_ticks(2)
        assert sky_chip.effective_frequency(0) == 3000.0

    def test_parked_core_freq_zero(self, sky_chip):
        load_app(sky_chip, 0)
        sky_chip.park(0)
        sky_chip.run_ticks(1)
        assert sky_chip.effective_frequency(0) == 0.0

    def test_unpark_restores(self, sky_chip):
        load_app(sky_chip, 0)
        sky_chip.set_requested_frequency(0, 1200.0)
        sky_chip.park(0)
        sky_chip.run_ticks(1)
        sky_chip.park(0, False)
        sky_chip.run_ticks(1)
        assert sky_chip.effective_frequency(0) == 1200.0


class TestRaplIntegration:
    def test_limit_via_msr(self, sky_chip):
        sky_chip.set_rapl_limit(50.0)
        assert sky_chip.rapl.limit_w == 50.0

    def test_limit_msr_encoding(self, sky_chip):
        sky_chip.msr.write(0, msrdef.MSR_PKG_POWER_LIMIT, (1 << 15) | 400)
        assert sky_chip.rapl.limit_w == 50.0

    def test_disable_via_msr(self, sky_chip):
        sky_chip.set_rapl_limit(50.0)
        sky_chip.set_rapl_limit(None)
        assert sky_chip.rapl.limit_w is None

    def test_ryzen_has_no_rapl(self, ryzen_chip):
        with pytest.raises(PlatformError):
            ryzen_chip.set_rapl_limit(50.0)

    def test_rapl_throttles_under_load(self, sky_chip):
        for core_id in range(10):
            load_app(sky_chip, core_id, "cactusBSSN")
            sky_chip.set_requested_frequency(core_id, 2200.0)
        sky_chip.set_rapl_limit(40.0)
        sky_chip.run_ticks(3000)
        assert sky_chip.last_package_power_w < 45.0
        assert sky_chip.effective_frequency(0) < 2200.0


class TestSimultaneousPstates:
    def test_ryzen_limit_enforced(self, ryzen_chip):
        for core_id in range(4):
            load_app(ryzen_chip, core_id)
        freqs = [800.0, 1600.0, 2400.0, 3200.0]
        for core_id, freq in enumerate(freqs):
            ryzen_chip.set_requested_frequency(core_id, freq)
        with pytest.raises(PlatformError, match="simultaneous"):
            ryzen_chip.tick()

    def test_three_levels_allowed(self, ryzen_chip):
        for core_id in range(4):
            load_app(ryzen_chip, core_id)
        for core_id, freq in enumerate([800.0, 1600.0, 2400.0, 2400.0]):
            ryzen_chip.set_requested_frequency(core_id, freq)
        ryzen_chip.run_ticks(2)  # no error

    def test_idle_cores_dont_count(self, ryzen_chip):
        load_app(ryzen_chip, 0)
        for core_id, freq in enumerate(
            [800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0, 2000.0, 2200.0]
        ):
            ryzen_chip.set_requested_frequency(core_id, freq)
        ryzen_chip.run_ticks(2)  # only core 0 active

    def test_skylake_unrestricted(self, sky_chip):
        for core_id in range(10):
            load_app(sky_chip, core_id)
            sky_chip.set_requested_frequency(core_id, 800.0 + 100 * core_id)
        sky_chip.run_ticks(2)


class TestCounters:
    def test_energy_counter_advances(self, sky_chip):
        load_app(sky_chip, 0)
        sky_chip.run_ticks(100)
        assert sky_chip.msr.read(0, msrdef.MSR_PKG_ENERGY_STATUS) > 0

    def test_instruction_counter(self, sky_chip):
        load_app(sky_chip, 0)
        sky_chip.set_requested_frequency(0, 2200.0)
        sky_chip.run_ticks(1000)
        instr = sky_chip.msr.read(0, msrdef.IA32_FIXED_CTR0)
        assert instr == pytest.approx(
            sky_chip.cores[0].total_instructions, rel=0.01
        )

    def test_aperf_mperf_ratio_reflects_frequency(self, sky_chip):
        load_app(sky_chip, 0)
        sky_chip.set_requested_frequency(0, 1100.0)
        sky_chip.run_ticks(500)
        aperf = sky_chip.msr.read(0, msrdef.IA32_APERF)
        mperf = sky_chip.msr.read(0, msrdef.IA32_MPERF)
        tsc = sky_chip.platform.max_nominal_frequency_mhz
        assert tsc * aperf / mperf == pytest.approx(1100.0, rel=0.01)

    def test_idle_core_counters_static(self, sky_chip):
        load_app(sky_chip, 0)
        sky_chip.run_ticks(100)
        assert sky_chip.msr.read(5, msrdef.IA32_MPERF) == 0

    def test_ryzen_core_energy_published(self, ryzen_chip):
        load_app(ryzen_chip, 2)
        ryzen_chip.set_requested_frequency(2, 3000.0)
        ryzen_chip.run_ticks(200)
        assert ryzen_chip.msr.read(2, msrdef.MSR_AMD_CORE_ENERGY) > 0

    def test_perf_status_readback(self, sky_chip):
        load_app(sky_chip, 0)
        sky_chip.set_requested_frequency(0, 1800.0)
        sky_chip.run_ticks(2)
        status = sky_chip.msr.read(0, msrdef.IA32_PERF_STATUS)
        assert ((status >> 8) & 0xFF) * 100.0 == 1800.0


class TestLifecycle:
    def test_time_advances(self, chip):
        chip.run_ticks(100)
        assert chip.time_s == pytest.approx(100 * chip.tick_s)

    def test_finished_app_frees_turbo_headroom(self, sky_chip):
        tiny = spec_app("leela").with_instructions(1e9)
        for core_id in range(10):
            app = RunningApp(tiny, instance=core_id)
            sky_chip.assign_load(
                core_id, BatchCoreLoad(app, 2200.0)
            )
            sky_chip.set_requested_frequency(core_id, 3000.0)
        sky_chip.run_ticks(5)   # all running: all-core turbo 2.5
        assert sky_chip.effective_frequency(0) == 2500.0
        sky_chip.run_ticks(3000)  # most finish quickly
        assert sky_chip.active_core_count() == 0

    def test_negative_ticks_rejected(self, chip):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            chip.run_ticks(-1)

    def test_write_to_readonly_counter_rejected(self, sky_chip):
        with pytest.raises(MSRPermissionError):
            sky_chip.msr.write(0, msrdef.IA32_APERF, 5)
