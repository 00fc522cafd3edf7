"""Tests for counters, turbostat, and traces."""

import pytest

from repro.errors import ConfigError, PlatformError
from repro.sim.chip import Chip
from repro.sim.core import BatchCoreLoad
from repro.telemetry.counters import read_snapshot
from repro.telemetry.trace import Trace, TraceSeries
from repro.telemetry.turbostat import Turbostat
from repro.workloads.app import RunningApp
from repro.workloads.spec import spec_app


def busy_chip(platform, name="gcc", freq=None):
    chip = Chip(platform)
    app = RunningApp(spec_app(name, steady=True))
    chip.assign_load(0, BatchCoreLoad(app, platform.reference_frequency_mhz))
    chip.set_requested_frequency(
        0, freq or platform.reference_frequency_mhz
    )
    return chip


class TestSnapshots:
    def test_delta_derives_power(self, skylake):
        chip = busy_chip(skylake)
        chip.run_ticks(10)
        before = read_snapshot(skylake, chip.msr, chip.time_s)
        chip.run_ticks(1000)
        after = read_snapshot(skylake, chip.msr, chip.time_s)
        delta = before.delta(after)
        assert delta.package_power_w() == pytest.approx(
            chip.last_package_power_w, rel=0.05
        )

    def test_delta_derives_frequency(self, skylake):
        chip = busy_chip(skylake, freq=1400.0)
        chip.run_ticks(500)
        before = read_snapshot(skylake, chip.msr, chip.time_s)
        chip.run_ticks(500)
        after = read_snapshot(skylake, chip.msr, chip.time_s)
        delta = before.delta(after)
        assert delta.active_frequency_mhz(0, 2200.0) == pytest.approx(
            1400.0, rel=0.02
        )

    def test_idle_core_frequency_zero(self, skylake):
        chip = busy_chip(skylake)
        chip.run_ticks(100)
        before = read_snapshot(skylake, chip.msr, chip.time_s)
        chip.run_ticks(100)
        after = read_snapshot(skylake, chip.msr, chip.time_s)
        assert before.delta(after).active_frequency_mhz(4, 2200.0) == 0.0

    def test_core_power_needs_feature(self, skylake):
        chip = busy_chip(skylake)
        chip.run_ticks(20)
        snap = read_snapshot(skylake, chip.msr, chip.time_s)
        chip.run_ticks(20)
        delta = snap.delta(read_snapshot(skylake, chip.msr, chip.time_s))
        with pytest.raises(PlatformError):
            delta.core_power_w(0)

    def test_ryzen_core_power(self, ryzen):
        chip = busy_chip(ryzen, freq=3000.0)
        chip.run_ticks(100)
        before = read_snapshot(ryzen, chip.msr, chip.time_s)
        chip.run_ticks(1000)
        after = read_snapshot(ryzen, chip.msr, chip.time_s)
        delta = before.delta(after)
        assert delta.core_power_w(0) == pytest.approx(
            chip.last_core_powers_w[0], rel=0.05
        )

    def test_out_of_order_snapshots_rejected(self, skylake):
        chip = busy_chip(skylake)
        chip.run_ticks(10)
        later = read_snapshot(skylake, chip.msr, chip.time_s)
        earlier = later.__class__(
            timestamp_s=later.timestamp_s + 1,
            aperf=later.aperf,
            mperf=later.mperf,
            instructions=later.instructions,
            pkg_energy_uj=later.pkg_energy_uj,
            core_energy_uj=later.core_energy_uj,
        )
        with pytest.raises(PlatformError):
            earlier.delta(later)

    def test_busy_fraction(self, skylake):
        chip = busy_chip(skylake)
        chip.run_ticks(100)
        before = read_snapshot(skylake, chip.msr, chip.time_s)
        chip.run_ticks(100)
        delta = before.delta(read_snapshot(skylake, chip.msr, chip.time_s))
        assert delta.busy_fraction(0, 2200.0) == pytest.approx(1.0, abs=0.02)
        assert delta.busy_fraction(5, 2200.0) == 0.0


class TestTurbostat:
    def test_sample_reports_power_and_freq(self, skylake):
        chip = busy_chip(skylake, freq=1800.0)
        stat = Turbostat(skylake, chip.msr)
        chip.run_ticks(10)
        stat.prime(chip.time_s)
        chip.run_ticks(1000)
        sample = stat.sample(chip.time_s)
        assert sample.package_power_w == pytest.approx(
            chip.last_package_power_w, rel=0.05
        )
        assert sample.core(0).active_frequency_mhz == pytest.approx(
            1800.0, rel=0.02
        )

    def test_unprimed_sample_raises(self, skylake):
        chip = busy_chip(skylake)
        stat = Turbostat(skylake, chip.msr)
        chip.run_ticks(10)
        assert not stat.primed
        with pytest.raises(PlatformError):
            stat.sample(chip.time_s)
        stat.prime(chip.time_s)
        assert stat.primed

    def test_every_emitted_sample_lands_in_history(self, skylake):
        chip = busy_chip(skylake)
        stat = Turbostat(skylake, chip.msr)
        stat.prime(chip.time_s)
        chip.run_ticks(100)
        first = stat.sample(chip.time_s)
        assert first.interval_s > 0.0

    def test_core_power_none_on_skylake(self, skylake):
        chip = busy_chip(skylake)
        stat = Turbostat(skylake, chip.msr)
        stat.prime(chip.time_s)
        chip.run_ticks(100)
        assert stat.sample(chip.time_s).core(0).power_w is None

    def test_core_power_present_on_ryzen(self, ryzen):
        chip = busy_chip(ryzen, freq=3000.0)
        stat = Turbostat(ryzen, chip.msr)
        stat.prime(chip.time_s)
        chip.run_ticks(500)
        assert stat.sample(chip.time_s).core(0).power_w > 0

    def test_unknown_core_in_sample(self, skylake):
        chip = busy_chip(skylake)
        stat = Turbostat(skylake, chip.msr)
        stat.prime(chip.time_s)
        chip.run_ticks(10)
        with pytest.raises(PlatformError):
            stat.sample(chip.time_s).core(77)

    def test_total_ips(self, skylake):
        chip = busy_chip(skylake)
        stat = Turbostat(skylake, chip.msr)
        stat.prime(chip.time_s)
        chip.run_ticks(500)
        sample = stat.sample(chip.time_s)
        assert sample.total_ips() == pytest.approx(
            sample.core(0).ips, rel=1e-6
        )


class TestTrace:
    def test_record_and_stats(self):
        trace = Trace()
        for i in range(10):
            trace.record("power", float(i), float(i))
        series = trace.series("power")
        assert series.mean() == pytest.approx(4.5)
        assert series.median() == pytest.approx(4.5)
        assert series.last() == 9.0

    def test_boxplot_summary_ordering(self):
        series = TraceSeries("x")
        for i in range(100):
            series.append(float(i), float(i))
        box = series.boxplot_summary()
        assert box["p1"] <= box["q1"] <= box["median"] <= box["q3"] <= box["p99"]

    def test_window(self):
        series = TraceSeries("x")
        for i in range(10):
            series.append(float(i), float(i))
        windowed = series.window(3.0, 6.0)
        assert windowed.values == [3.0, 4.0, 5.0, 6.0]

    def test_time_ordering_enforced(self):
        series = TraceSeries("x")
        series.append(1.0, 0.0)
        with pytest.raises(ConfigError):
            series.append(0.5, 0.0)

    def test_empty_series_stats_raise(self):
        with pytest.raises(ConfigError):
            TraceSeries("x").mean()

    def test_unknown_series_raises(self):
        with pytest.raises(ConfigError):
            Trace().series("nope")

    def test_contains(self):
        trace = Trace()
        trace.record("a", 0.0, 1.0)
        assert "a" in trace
        assert "b" not in trace
        assert trace.names() == ("a",)
