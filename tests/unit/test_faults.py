"""Tests for the fault-injection substrate (scenarios, MSR proxy, ticks)."""

import pytest

from repro.errors import FaultConfigError, MSRIOError
from repro.faults import (
    CRASH_SCENARIOS,
    SCENARIOS,
    AppCrash,
    CrashScenario,
    FaultScenario,
    FaultyMSRFile,
    NodeRestart,
    TickFaultGate,
    get_crash_scenario,
    get_scenario,
)
from repro.hw import msr as msrdef
from repro.sim.chip import Chip


def busy_read_loop(msr, platform, n=200):
    """Issue a deterministic stream of telemetry reads."""
    values = []
    for _ in range(n):
        for cpu in platform.core_ids():
            values.append(msr.read(cpu, msrdef.IA32_APERF))
    return values


class TestScenario:
    def test_known_scenarios_valid(self):
        for name in SCENARIOS:
            assert get_scenario(name).name == name

    def test_unknown_scenario_rejected(self):
        with pytest.raises(FaultConfigError):
            get_scenario("does-not-exist")

    def test_reseed(self):
        scenario = get_scenario("flaky-msr", seed=99)
        assert scenario.seed == 99
        assert SCENARIOS["flaky-msr"].seed == 0  # original untouched

    def test_bad_rate_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultScenario(msr_read_fail_rate=1.5)

    def test_jitter_needs_bound(self):
        with pytest.raises(FaultConfigError):
            FaultScenario(tick_jitter_rate=0.5)

    def test_bad_window_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultScenario(window_s=(10.0, 10.0))

    def test_window_activity(self):
        scenario = FaultScenario(window_s=(5.0, 10.0))
        assert not scenario.active_at(4.9)
        assert scenario.active_at(5.0)
        assert not scenario.active_at(10.0)

    def test_crash_validation(self):
        with pytest.raises(FaultConfigError):
            AppCrash(time_s=-1.0, app_index=0)


class TestCrashScenario:
    def test_known_scenarios_valid_and_described(self):
        for name, scenario in CRASH_SCENARIOS.items():
            assert get_crash_scenario(name) is scenario
            assert scenario.description  # the faults listing shows it

    def test_unknown_scenario_rejected(self):
        with pytest.raises(FaultConfigError):
            get_crash_scenario("does-not-exist")

    def test_restart_needs_a_node_name(self):
        with pytest.raises(FaultConfigError):
            NodeRestart("", 2, 4)

    def test_restart_epoch_must_follow_crash(self):
        with pytest.raises(FaultConfigError):
            NodeRestart("node0", 4, 4)
        with pytest.raises(FaultConfigError):
            NodeRestart("node0", -1, 4)

    def test_restart_down_window_is_half_open(self):
        restart = NodeRestart("node0", 4, 7)
        assert not restart.down_in(3)
        assert restart.down_in(4)
        assert restart.down_in(6)
        assert not restart.down_in(7)  # the reboot epoch is up

    def test_duplicate_arbiter_crash_epochs_rejected(self):
        with pytest.raises(FaultConfigError, match="duplicate"):
            CrashScenario(name="x", arbiter_crash_epochs=(5, 5))

    def test_overlapping_restart_windows_rejected(self):
        with pytest.raises(FaultConfigError, match="overlapping"):
            CrashScenario(
                name="x",
                node_restarts=(
                    NodeRestart("node0", 2, 6),
                    NodeRestart("node0", 4, 8),
                ),
            )

    def test_back_to_back_restarts_allowed(self):
        # reboot at 4 and crash again at 4: adjacent, not overlapping
        scenario = CrashScenario(
            name="x",
            node_restarts=(
                NodeRestart("node0", 2, 4),
                NodeRestart("node0", 4, 6),
            ),
        )
        assert scenario.node_names() == ("node0",)

    def test_different_nodes_may_overlap(self):
        CrashScenario(
            name="x",
            node_restarts=(
                NodeRestart("node0", 2, 6),
                NodeRestart("node1", 4, 8),
            ),
        )

    def test_companion_transport_validated_early(self):
        with pytest.raises(FaultConfigError):
            CrashScenario(name="x", transport="no-such-links")

    def test_quiet(self):
        assert CRASH_SCENARIOS["none"].quiet
        assert not CRASH_SCENARIOS["node-restart"].quiet
        assert not CRASH_SCENARIOS["arbiter-crash"].quiet


class TestFaultyMSRFile:
    def test_zero_rates_pass_through(self, skylake):
        chip = Chip(skylake)
        chip.run_ticks(50)
        faulty = FaultyMSRFile(chip.msr, get_scenario("none"))
        for cpu in skylake.core_ids():
            assert faulty.read(cpu, msrdef.IA32_APERF) == chip.msr.read(
                cpu, msrdef.IA32_APERF
            )
        assert faulty.stats.total() == 0

    def test_read_failures_injected_and_counted(self, skylake):
        chip = Chip(skylake)
        chip.run_ticks(10)
        scenario = FaultScenario(msr_read_fail_rate=1.0)
        faulty = FaultyMSRFile(chip.msr, scenario)
        with pytest.raises(MSRIOError):
            faulty.read(0, msrdef.IA32_APERF)
        assert faulty.stats.read_failures == 1

    def test_write_failures_do_not_reach_hardware(self, skylake):
        chip = Chip(skylake)
        before = chip.requested_frequency(0)
        scenario = FaultScenario(msr_write_fail_rate=1.0)
        faulty = FaultyMSRFile(chip.msr, scenario)
        with pytest.raises(MSRIOError):
            faulty.write(0, msrdef.IA32_PERF_CTL, 22 << 8)
        assert chip.requested_frequency(0) == before

    def test_stuck_counter_repeats_last_read(self, skylake):
        chip = Chip(skylake)
        faulty = FaultyMSRFile(chip.msr, get_scenario("none"))
        chip.msr.poke(0, msrdef.IA32_APERF, 111)
        assert faulty.read(0, msrdef.IA32_APERF) == 111
        chip.msr.poke(0, msrdef.IA32_APERF, 222)
        stuck = FaultyMSRFile(chip.msr, FaultScenario(stuck_counter_rate=1.0))
        # no prior read through the stuck proxy: falls back to truth
        assert stuck.read(0, msrdef.IA32_APERF) == 222

    def test_deterministic_for_seed(self, skylake):
        def collect(seed):
            chip = Chip(skylake)
            chip.run_ticks(20)
            scenario = FaultScenario(
                msr_read_fail_rate=0.2,
                stuck_counter_rate=0.2,
                garbage_counter_rate=0.2,
                seed=seed,
            )
            faulty = FaultyMSRFile(chip.msr, scenario)
            stream = []
            for _ in range(300):
                try:
                    stream.append(faulty.read(0, msrdef.IA32_APERF))
                except MSRIOError:
                    stream.append("EIO")
            return stream, faulty.stats

        s1, st1 = collect(42)
        s2, st2 = collect(42)
        s3, _ = collect(43)
        assert s1 == s2
        assert st1 == st2
        assert s1 != s3

    def test_window_suppresses_faults(self, skylake):
        chip = Chip(skylake)
        chip.run_ticks(10)
        clock = {"t": 0.0}
        scenario = FaultScenario(
            msr_read_fail_rate=1.0, window_s=(100.0, 200.0)
        )
        faulty = FaultyMSRFile(
            chip.msr, scenario, clock=lambda: clock["t"]
        )
        faulty.read(0, msrdef.IA32_APERF)  # outside window: clean
        clock["t"] = 150.0
        with pytest.raises(MSRIOError):
            faulty.read(0, msrdef.IA32_APERF)

    def test_simulator_side_accessors_never_faulted(self, skylake):
        chip = Chip(skylake)
        scenario = FaultScenario(
            msr_read_fail_rate=1.0, msr_write_fail_rate=1.0
        )
        faulty = FaultyMSRFile(chip.msr, scenario)
        faulty.poke(0, msrdef.IA32_APERF, 12345)  # must not raise
        assert chip.msr.read(0, msrdef.IA32_APERF) == 12345


class TestTickFaultGate:
    def test_all_drop(self):
        gate = TickFaultGate(FaultScenario(tick_drop_rate=1.0))
        assert gate(1.0) == "drop"
        assert gate.stats.dropped == 1

    def test_all_jitter_bounded(self):
        gate = TickFaultGate(
            FaultScenario(tick_jitter_rate=1.0, tick_max_jitter_s=0.25)
        )
        for _ in range(50):
            delay = gate(1.0)
            assert isinstance(delay, float)
            assert 0.0 <= delay <= 0.25
        assert gate.stats.jittered == 50

    def test_clean_gate_fires(self):
        gate = TickFaultGate(FaultScenario())
        assert gate(1.0) == "fire"
        assert gate.stats.fired == 1

    def test_window_respected(self):
        gate = TickFaultGate(
            FaultScenario(tick_drop_rate=1.0, window_s=(5.0, 6.0))
        )
        assert gate(1.0) == "fire"
        assert gate(5.5) == "drop"
        assert gate(7.0) == "fire"

    def test_deterministic_for_seed(self):
        def run(seed):
            gate = TickFaultGate(
                FaultScenario(
                    tick_drop_rate=0.3,
                    tick_jitter_rate=0.3,
                    tick_max_jitter_s=0.5,
                    seed=seed,
                )
            )
            return [gate(float(i)) for i in range(100)]

        assert run(7) == run(7)
        assert run(7) != run(8)
