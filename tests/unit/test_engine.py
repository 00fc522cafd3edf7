"""Tests for the simulation engine and periodic callbacks."""

import pytest

from repro.errors import SimulationError
from repro.sim.chip import Chip
from repro.sim.engine import SimEngine


@pytest.fixture
def engine(skylake):
    return SimEngine(Chip(skylake))


class TestRun:
    def test_run_advances_time(self, engine):
        engine.run(0.05)
        assert engine.time_s == pytest.approx(0.05)

    def test_run_ticks(self, engine):
        engine.run_ticks(7)
        assert engine.time_s == pytest.approx(7e-3)

    def test_negative_duration_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.run(-1.0)


class TestPeriodics:
    def test_callback_cadence(self, engine):
        calls = []
        engine.every(0.010, calls.append)
        engine.run(0.1)
        assert len(calls) == 10

    def test_callback_sees_sim_time(self, engine):
        times = []
        engine.every(0.010, times.append)
        engine.run(0.03)
        assert times == pytest.approx([0.01, 0.02, 0.03])

    def test_first_fire_after_one_period(self, engine):
        calls = []
        engine.every(0.02, calls.append)
        engine.run(0.019)
        assert calls == []
        engine.run(0.002)
        assert len(calls) == 1

    def test_phase_delays_first_call(self, engine):
        calls = []
        engine.every(0.01, calls.append, phase_s=0.05)
        engine.run(0.04)
        assert calls == []
        engine.run(0.02)
        assert len(calls) >= 1

    def test_multiple_periodics_independent(self, engine):
        fast, slow = [], []
        engine.every(0.01, fast.append)
        engine.every(0.05, slow.append)
        engine.run(0.1)
        assert len(fast) == 10
        assert len(slow) == 2

    def test_subtick_period_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.every(1e-6, lambda t: None)

    def test_phase_zero_fires_at_next_tick(self, engine):
        calls = []
        engine.every(0.02, calls.append, phase_s=0.0)
        engine.run_ticks(1)
        assert len(calls) == 1
        assert calls[0] == pytest.approx(engine.chip.tick_s)

    def test_subtick_nonzero_phase_rejected(self, engine):
        # a phase below one tick cannot be honoured; it must not be
        # silently rewritten to something else
        with pytest.raises(SimulationError):
            engine.every(0.02, lambda t: None, phase_s=1e-6)

    def test_negative_phase_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.every(0.02, lambda t: None, phase_s=-0.01)


class TestGates:
    def test_none_gate_result_fires(self, engine):
        calls = []
        engine.every(0.01, calls.append, gate=lambda now: None)
        engine.run(0.05)
        assert len(calls) == 5

    def test_drop_skips_a_full_period(self, engine):
        verdicts = iter(["drop", "fire", "fire"])
        calls = []
        engine.every(0.01, calls.append, gate=lambda now: next(verdicts))
        engine.run(0.03)
        # deadline 1 dropped; next due a full period later at 0.02
        assert calls == pytest.approx([0.02, 0.03])

    def test_delay_defers_by_seconds(self, engine):
        verdicts = iter([0.005, "fire"])
        calls = []
        engine.every(0.01, calls.append, gate=lambda now: next(verdicts))
        engine.run(0.016)
        assert calls == pytest.approx([0.015])

    def test_zero_delay_defers_one_tick(self, engine):
        verdicts = iter([0.0, "fire"])
        calls = []
        engine.every(0.01, calls.append, gate=lambda now: next(verdicts))
        engine.run(0.02)
        assert calls[0] == pytest.approx(0.01 + engine.chip.tick_s)

    def test_negative_delay_rejected(self, engine):
        engine.every(0.01, lambda t: None, gate=lambda now: -1.0)
        with pytest.raises(SimulationError):
            engine.run(0.01)

    def test_gate_consulted_per_deadline_not_per_tick(self, engine):
        consulted = []

        def gate(now):
            consulted.append(now)
            return "fire"

        engine.every(0.01, lambda t: None, gate=gate)
        engine.run(0.03)
        assert len(consulted) == 3


class TestOneShots:
    def test_fires_once_at_time(self, engine):
        calls = []
        engine.at(0.02, calls.append)
        engine.run(0.05)
        assert calls == pytest.approx([0.02])

    def test_past_time_rejected(self, engine):
        engine.run(0.05)
        with pytest.raises(SimulationError):
            engine.at(0.01, lambda t: None)

    def test_fires_alongside_periodic(self, engine):
        order = []
        engine.every(0.02, lambda t: order.append("periodic"))
        engine.at(0.02, lambda t: order.append("oneshot"))
        engine.run(0.02)
        assert order == ["periodic", "oneshot"]

    def test_oneshot_can_schedule_another(self, engine):
        calls = []

        def first(now):
            calls.append(now)
            engine.at(now + 0.01, calls.append)

        engine.at(0.01, first)
        engine.run(0.03)
        assert calls == pytest.approx([0.01, 0.02])

    def test_counters_flushed_before_callback(self, skylake):
        """A periodic reading the MSR file must see fresh counters."""
        from repro.hw import msr as msrdef
        from repro.sim.core import BatchCoreLoad
        from repro.workloads.app import RunningApp
        from repro.workloads.spec import spec_app

        chip = Chip(skylake)
        engine = SimEngine(chip)
        chip.assign_load(
            0, BatchCoreLoad(RunningApp(spec_app("gcc", steady=True)), 2200.0)
        )
        chip.set_requested_frequency(0, 2200.0)
        seen = []
        engine.every(
            0.05,
            lambda t: seen.append(chip.msr.read(0, msrdef.IA32_FIXED_CTR0)),
        )
        engine.run(0.15)
        assert all(b > a for a, b in zip(seen, seen[1:]))
