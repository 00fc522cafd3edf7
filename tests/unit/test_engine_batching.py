"""Tests for the engine's deadline-to-deadline stepping.

Stepping a whole gap at a time must be invisible: callbacks fire at the
same simulated times, with the same chip state, as under
:func:`run_per_tick`, a tick-by-tick reference driver, and a fault gate
is consulted at the same deadlines with its verdicts applied the same
way.
"""

import pytest

from repro.sim.chip import Chip
from repro.sim.engine import SimEngine


def run_per_tick(engine, n_ticks):
    """The tick-by-tick reference: tick once, then fire whatever is due."""
    for _ in range(n_ticks):
        engine.chip.tick()
        engine._ticks_run += 1
        engine._process_due_callbacks()
    engine.chip.flush_counters()


def make_engine(skylake):
    return SimEngine(Chip(skylake))


class TestBatchingEquivalence:
    def test_callback_times_match_slow_path(self, skylake):
        traces = []
        for run in (SimEngine.run_ticks, run_per_tick):
            engine = make_engine(skylake)
            calls = []
            engine.every(0.01, calls.append)
            engine.every(0.025, calls.append)
            run(engine, 200)
            traces.append(calls)
        assert traces[0] == traces[1]

    def test_oneshot_fires_once_at_its_tick(self, skylake):
        engine = make_engine(skylake)
        calls = []
        engine.at(0.037, calls.append)
        engine.run(0.1)
        assert calls == pytest.approx([0.037])
        assert engine.batched_segments > 0

    def test_chip_state_matches_slow_path(self, skylake):
        chips = []
        for run in (SimEngine.run_ticks, run_per_tick):
            engine = make_engine(skylake)
            # a callback that mutates the chip, like the daemon does
            freqs = skylake.pstates.frequencies_mhz

            def retune(now, chip=engine.chip):
                index = int(now * 100) % len(freqs)
                chip.set_requested_frequency(0, freqs[index])
                chip.park(1, int(now * 100) % 2 == 0)

            engine.every(0.01, retune)
            run(engine, 300)
            chips.append(engine.chip)
        fast, slow = chips
        assert fast.time_s == slow.time_s
        assert [c.effective_mhz for c in fast.cores] == [
            c.effective_mhz for c in slow.cores
        ]
        assert (
            fast.energy.package_energy_uj == slow.energy.package_energy_uj
        )

    def test_callbackless_run_is_one_segment(self, skylake):
        engine = make_engine(skylake)
        engine.run_ticks(500)
        assert engine.batched_segments == 1


class TestSlowPathForcing:
    """Nothing forces tick-by-tick stepping: every run takes one segment
    per stop, a gated one included."""

    def test_ungated_engine_batches(self, skylake):
        engine = make_engine(skylake)
        engine.every(0.05, lambda now: None)
        engine.run(0.2)
        # one segment per 0.05 s deadline at a 1 ms tick
        assert engine.batched_segments == 4

    @pytest.mark.parametrize("mode", ["scalar", "array"])
    def test_gated_engine_steps_deadline_to_deadline(self, skylake, mode):
        """A gate that fires, drops and defers is consulted at the
        per-tick driver's times, the callback fires at them too, and the
        stepping takes one segment per stop."""
        verdicts = ["fire", "drop", 0.013, "fire", 0.0002, "drop", 0.05]
        seen, engines = [], []
        for run in (SimEngine.run_ticks, run_per_tick):
            engine = SimEngine(Chip(skylake), engine=mode)
            consulted, fired = [], []

            def gate(now, engine=engine, consulted=consulted):
                consulted.append((engine._ticks_run, now))
                return verdicts[(len(consulted) - 1) % len(verdicts)]

            engine.every(0.02, fired.append, gate=gate)
            run(engine, 400)
            seen.append((consulted, fired, engine.chip.time_s))
            engines.append(engine)
        assert seen[0] == seen[1]
        consulted, fired, _ = seen[0]
        assert len(consulted) > len(fired) > 0
        stops = {tick for tick, _ in consulted} | {400}
        assert engines[0].batched_segments == len(stops)
