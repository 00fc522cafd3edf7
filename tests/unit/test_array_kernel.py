"""Unit tests for the batched array engine: kernels, gathering, fallback.

The array path has exactly one contract: **bit-identical to the scalar
reference**.  These tests pin it down at every layer — the numpy
kernels against hand-rolled scalar chains, the RAPL replay against the
live limiter, the gather/commit round trip against ``advance_ticks``
on a cloned chip — plus the support gates that send a chip to the fused
fallback, the engine selector's validation, and the cache's deliberate
blindness to the engine field.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from repro.config import AppSpec, ExperimentConfig, build_stack, default_engine
from repro.errors import ConfigError, SimulationError
from repro.hw.platform import get_platform
from repro.hw.rapl import RaplLimiter
from repro.sim import fused, kernel, soa
from repro.sim.chip import Chip
from repro.sim.core import BatchCoreLoad, LoadSample
from repro.sim.engine import ENGINES, SimEngine, run_lockstep
from repro.workloads.app import RunningApp
from repro.workloads.spec import spec_app


def chip_fingerprint(chip) -> list[str]:
    """Every float observable of a chip, in exact-hex form.

    ``float.hex`` round-trips the full 64-bit pattern, so equal
    fingerprints mean equal bits — the equivalence the array engine
    promises, not approximate closeness.
    """
    parts = [chip.time_s.hex(), chip.last_package_power_w.hex()]
    parts.extend(p.hex() for p in chip.last_core_powers_w)
    parts.append(chip.energy.package_energy_joules.hex())
    for core in chip.cores:
        cpu = core.core_id
        parts.append(core.effective_mhz.hex())
        parts.append(core.total_instructions.hex())
        parts.append(core.total_energy_j.hex())
        parts.append(core.total_busy_s.hex())
        parts.append(core.total_time_s.hex())
        parts.append(str(core.parked))
        sample = core.last_sample
        parts.append(
            "none" if sample is None else
            f"{sample.instructions.hex()}|{sample.busy_fraction.hex()}|"
            f"{sample.c_eff.hex()}|{sample.done}"
        )
        parts.append(chip._aperf_cycles[cpu].hex())
        parts.append(chip._mperf_cycles[cpu].hex())
        parts.append(chip._instr_total[cpu].hex())
        parts.append(chip.energy.core_energy_joules(cpu).hex())
        parts.append(str(chip._prev_sample_done[cpu]))
        res = chip.cstates._cores[cpu]
        parts.append(res.c0_s.hex())
        parts.append(res.c1_s.hex())
        parts.append(res.c6_s.hex())
        parts.append(str(res.current))
        parts.append(str(res.transitions))
        load = core.load
        if isinstance(load, BatchCoreLoad):
            parts.append(load.app.retired_instructions.hex())
            parts.append(load.app.elapsed_s.hex())
            parts.append(str(load.app.finished))
    if chip.rapl is not None:
        parts.append(chip.rapl.average_power_w.hex())
        parts.append(chip.rapl.cap_mhz.hex())
        parts.append(str(chip.rapl.limit_w))
    for cluster in chip.clusters:
        parts.extend(cluster_fingerprint(cluster))
    return parts


def _request_hex(request) -> str:
    if request is None:
        return "none"
    return (
        f"{request.submitted_at.hex()}|{request.cpu_work_s.hex()}|"
        f"{request.mem_work_s.hex()}"
    )


def cluster_fingerprint(cluster) -> list[str]:
    """Every observable of an attached websearch cluster, exactly: the
    clock, completions and latencies, the queue, each serving core's
    request in service and counters, the thinking users, the RNG."""
    parts = [
        cluster.now.hex(),
        str(cluster.completed_requests),
        "lat:" + ",".join(x.hex() for x in cluster.latencies()),
        "queue:" + ",".join(_request_hex(r) for r in cluster._queue),
    ]
    for core_id in cluster.core_ids:
        state = cluster._cores[core_id]
        parts.append(
            f"{core_id}:{_request_hex(state.current)}|"
            f"{state.busy_time_s.hex()}|{state.instructions.hex()}|"
            f"{state.total_busy_s.hex()}"
        )
    parts.append(
        "think:" + ",".join(
            f"{wake.hex()}/{seq}" for wake, seq in cluster._thinkers
        )
    )
    parts.append(str(cluster._think_seq))
    parts.append(repr(cluster._rng.getstate()))
    return parts


def batch_chip(platform_name="skylake", *, finite_budget=None) -> Chip:
    """A chip the array path supports: SPEC apps on the first cores."""
    platform = get_platform(platform_name)
    chip = Chip(platform, tick_s=5e-3)
    ref = platform.reference_frequency_mhz
    for i, name in enumerate(["leela", "cactusBSSN", "omnetpp"]):
        model = spec_app(name, steady=True)
        chip.assign_load(
            i, BatchCoreLoad(RunningApp(model, instance=i), ref)
        )
    if finite_budget is not None:
        model = spec_app("leela").with_instructions(finite_budget)
        chip.assign_load(
            3, BatchCoreLoad(RunningApp(model, instance=9), ref)
        )
    return chip


class TestKernels:
    def test_seeded_accumulate_is_columnwise_sequential(self):
        rows = np.asarray([[0.1, 1e8], [0.2, -3.0], [0.4, 0.7]])
        out = kernel.seeded_accumulate(np.asarray([1.0, 2.0]), rows)
        for col in range(2):
            acc = [1.0, 2.0][col]
            for k, row in enumerate([[0.1, 1e8], [0.2, -3.0], [0.4, 0.7]]):
                acc += row[col]
                assert out[k + 1, col].hex() == acc.hex()

    def test_fold_matches_scalar_chain_along_either_axis(self):
        """The commit fold stacks narrow groups and folds wide gangs
        tick by tick; both ways must equal one chained ``x += inc`` per
        sum, in the layout ``_fold`` documents — with one instruction
        row for both seed sides or one per side, and with the fixed sums
        taking one row every tick or per-tick rows."""
        rng = random.Random(5)
        chips = 2

        def draw(n):
            return [rng.choice([1e8, 1e-9, -3.0]) * rng.random()
                    for _ in range(n)]

        # a stacked group, then the narrowest gang folded in place
        for lanes in (3, soa.STACKED_FOLD_MAX_LANES):
            cand = [draw(lanes) for _ in range(5)]
            energy = [draw(lanes) for _ in range(5)]
            pkg_energy = [draw(chips) for _ in range(5)]
            seeds = draw(13 * lanes + chips)
            for ticks, sides, per_tick_fixed in (
                (5, 1, False), (2, 2, True), (5, 2, False), (2, 1, True),
            ):
                inst = [draw(sides * lanes) for _ in range(ticks)]
                fixed = [draw(8 * lanes) for _ in range(ticks)]
                if not per_tick_fixed:
                    fixed = [fixed[0]] * ticks
                # one row serves both instruction blocks; two are the
                # MSR-side then the Core-side block
                per_tick = [
                    (inst[k] + inst[k] if sides == 1 else inst[k])
                    + energy[k] + energy[k] + cand[k] + fixed[k]
                    + pkg_energy[k]
                    for k in range(ticks)
                ]
                out = soa._fold(
                    np.asarray(seeds),
                    np.asarray(inst),
                    np.asarray(energy[:ticks]),
                    np.asarray(cand),
                    np.asarray(fixed if per_tick_fixed else fixed[0]),
                    np.asarray(pkg_energy[:ticks]),
                )
                for col, acc in enumerate(seeds):
                    for row in per_tick:
                        acc += row[col]
                    assert out[col].hex() == acc.hex(), (lanes, ticks, col)

    def test_package_rows_match_python_sum(self):
        """A gang's package powers come from one zero-padded fold; each
        chip's must equal the scalar ``sum(core_powers) + uncore``,
        whatever its core count (mixed widths pad, equal widths don't)."""
        rows = [
            [3.1, 0.2, 7.9, 1e-8, 0.0, 5.5, 2.2, 9.1, 0.3],
            [0.1, 0.7, 1e8, 0.3, 4.4, 1e-9, 0.0, 0.0, 6.5],
        ]
        uncore = [1.5, 2.5, 0.25]
        for sizes in ([4, 2, 3], [3, 3, 3]):
            width = max(sizes)
            # column -> chip * width + core within the chip
            slots = [
                c * width + k for c, n in enumerate(sizes) for k in range(n)
            ]
            out = kernel.package_rows(
                np.asarray(rows), np.asarray(slots), len(sizes), width,
                np.asarray(uncore),
            )
            for t, row in enumerate(rows):
                start = 0
                for c, n in enumerate(sizes):
                    expected = sum(row[start : start + n]) + uncore[c]
                    assert out[t, c].hex() == expected.hex(), sizes
                    start += n

    def test_power_rows_match_core_power_watts(self):
        """Busy fractions (a websearch lane's) and boolean busy masks (a
        batch lane's) both reproduce ``core_power_watts`` bit for bit."""
        from repro.sim.power_model import core_power_watts

        platform = get_platform("skylake")
        power = platform.power
        freqs = [800.0, 1433.7, 2200.0, 3000.0]
        busy = [[0.0, 0.25, 1.0, 0.999], [1.0, 0.0, 1e-9, 0.5]]
        ceff = [[0.62, 1.1, 2.8, 0.3], [0.9, 0.62, 1.7, 2.2]]
        volt = np.asarray(
            [platform.pstates.voltage_for_frequency(f) for f in freqs]
        )
        f_ghz = np.asarray(freqs) / 1000.0
        args = (power.c_eff_scale, power.leak_coeff_w_per_v,
                power.idle_core_watts)
        rows = kernel.power_rows(
            np.asarray(ceff), volt, f_ghz, *args, np.asarray(busy)
        )
        masked = kernel.power_rows(
            np.asarray(ceff), volt, f_ghz, *args, np.asarray(busy) >= 1.0
        )
        for t in range(2):
            for i, freq in enumerate(freqs):
                b = busy[t][i]
                expected = core_power_watts(
                    platform, freq if b > 0 else 0.0, ceff[t][i], b,
                    active=b > 0,
                )
                assert rows[t, i].hex() == expected.hex()
                if b >= 1.0:
                    assert masked[t, i].hex() == expected.hex()
                else:
                    assert masked[t, i] == power.idle_core_watts

    def test_phase_factors_match_scalar_formula(self):
        times = np.asarray([[0.0, 0.5], [1.25, 3.0]])
        ipc, pw = kernel.phase_factors(times, 10.0, 0.3, 0.05, 0.02)
        for (i, j), t in np.ndenumerate(times):
            angle = (2.0 * math.pi * t) / 10.0 + 0.3
            assert ipc[i, j].hex() == (
                1.0 + 0.05 * math.sin(angle)
            ).hex()
            assert pw[i, j].hex() == (
                1.0 + 0.02 * math.sin(angle * 0.5)
            ).hex()

    def test_voltage_rows_match_pstate_table(self, skylake):
        table = skylake.pstates
        grid_f = np.asarray(table.frequencies_mhz)
        grid_v = np.asarray(
            [table.voltage_for_frequency(f) for f in table.frequencies_mhz]
        )
        freqs = np.linspace(grid_f[0] - 100.0, grid_f[-1] + 100.0, 173)
        out = kernel.voltage_rows(freqs, grid_f, grid_v)
        for f, v in zip(freqs.tolist(), out.tolist()):
            assert v.hex() == table.voltage_for_frequency(f).hex()

    def test_first_hit_rows_sentinel(self):
        hits = np.asarray(
            [[False, True], [False, False], [True, True]]
        )
        out = kernel.first_hit_rows(hits, 3)
        assert out.tolist() == [2, 0]
        none = kernel.first_hit_rows(np.zeros((3, 2), dtype=bool), 3)
        assert none.tolist() == [3, 3]


def replay_scalar(limiter, powers, dt, base_max, n_ticks):
    """The replay from the limiter's own control state."""
    return soa._replay_rapl(
        limiter, limiter.control_state(), powers, dt, base_max, n_ticks
    )


def replay_gang(limiter, powers, dt, base_max, n_ticks):
    """The gang-wide replay run on a gang of one, returning what
    :func:`soa._replay_rapl` returns: ticks observed, state after them."""
    avg0, cap0, primed0 = limiter.control_state()
    observed, avg, cap = soa._replay_rapl_gang(
        [limiter],
        (np.asarray([avg0]), np.asarray([cap0]), np.asarray([primed0])),
        np.asarray(powers, dtype=np.float64).reshape(-1, 1),
        dt,
        np.asarray([base_max]),
        n_ticks,
    )
    if observed == 0:
        return 0, limiter.control_state()
    return observed, (avg[observed, 0].item(), cap[observed, 0].item(), True)


#: both limiter replays; every test below holds for each.
REPLAYS = (replay_scalar, replay_gang)


class TestRaplReplay:
    def _limiter(self, skylake, limit_w):
        limiter = RaplLimiter(skylake)
        limiter.set_limit(limit_w)
        return limiter

    def _assert_matches_live(self, replay, limiter, live, powers, base_max):
        dt = 5e-3
        observed, state = replay(limiter, powers, dt, base_max, len(powers))
        # the live limiter defines where the batch must stop: before the
        # first tick whose pre-observe cap is below base_max
        expected = 0
        for pkg in powers:
            if live.cap_mhz < base_max:
                break
            live.observe(pkg, dt)
            expected += 1
        assert observed == expected, replay.__name__
        limiter.restore_control_state(state)
        assert limiter.average_power_w.hex() == (
            live.average_power_w.hex()
        ), replay.__name__
        assert limiter.cap_mhz.hex() == live.cap_mhz.hex(), replay.__name__
        assert limiter._primed == live._primed, replay.__name__
        return observed

    @pytest.mark.parametrize("limit_w", [None, 60.0, 40.0])
    def test_replay_matches_live_observe(self, skylake, limit_w):
        powers = [42.0, 55.0, 61.0, 58.0, 70.0, 30.0, 30.0, 65.0]
        top = skylake.max_frequency_mhz
        for replay in REPLAYS:
            # unprimed (fresh) and primed limiters take different first
            # ticks: the average is seeded, not blended; a base maximum
            # below the top frequency lets a lowered cap climb back
            # (the hysteresis branch) before anything binds
            for primed in (False, True):
                for base_max in (top, top - 300.0):
                    live = self._limiter(skylake, limit_w)
                    replayed = self._limiter(skylake, limit_w)
                    if primed:
                        live.observe(35.0, 5e-3)
                        replayed.observe(35.0, 5e-3)
                    self._assert_matches_live(
                        replay, replayed, live, powers, base_max
                    )

    def test_replay_stops_when_cap_binds(self, skylake):
        for replay in REPLAYS:
            limiter = self._limiter(skylake, 40.0)
            # a huge overshoot drags the cap below max on the first
            # observe, so only that single tick is batchable
            observed, state = replay(
                limiter, [500.0, 500.0, 500.0], 5e-3,
                skylake.max_frequency_mhz, 3,
            )
            assert observed == 1, replay.__name__
            assert state[1] < skylake.max_frequency_mhz, replay.__name__
            # a sustained small overshoot walks the cap down a few MHz
            # per tick, so it crosses a base frequency below max several
            # ticks in
            observed = self._assert_matches_live(
                replay,
                self._limiter(skylake, 40.0),
                self._limiter(skylake, 40.0),
                [60.0] * 40,
                skylake.max_frequency_mhz - 300.0,
            )
            assert 1 < observed < 40, replay.__name__

    def test_replay_refuses_already_bound_cap(self, skylake):
        for replay in REPLAYS:
            limiter = self._limiter(skylake, 40.0)
            limiter.observe(500.0, 5e-3)
            assert limiter.cap_mhz < skylake.max_frequency_mhz
            before = limiter.control_state()
            observed, state = replay(
                limiter, [10.0], 5e-3, skylake.max_frequency_mhz, 1
            )
            assert observed == 0, replay.__name__
            assert state == before, replay.__name__
            assert limiter.control_state() == before, replay.__name__

    def test_replay_mutates_nothing_until_restore(self, skylake):
        for replay in REPLAYS:
            limiter = self._limiter(skylake, 40.0)
            before = limiter.control_state()
            replay(
                limiter, [90.0, 90.0], 5e-3, skylake.max_frequency_mhz, 2
            )
            assert limiter.control_state() == before, replay.__name__


class WeirdLoad:
    """A load type the batch does not model."""

    name = "weird"
    uses_avx = False

    def advance(self, dt_s, frequency_mhz, sim_time_s):
        return LoadSample(0.0, 0.0, 0.0, done=True)


class TestSupportGates:
    def test_batch_chip_is_supported(self):
        assert soa.chip_supports_array(batch_chip())

    def test_foreign_load_forces_scalar(self):
        chip = batch_chip()
        chip.assign_load(5, WeirdLoad())
        assert not soa.chip_supports_array(chip)

    def test_unsupported_chip_still_advances_exactly(self):
        chips = []
        for _ in range(2):
            chip = batch_chip()
            chip.assign_load(5, WeirdLoad())
            chips.append(chip)
        assert not soa.chip_supports_array(chips[1])
        chips[0].advance_ticks(100)
        soa.advance_chip(chips[1], 100)  # silently takes the fused loop
        assert chip_fingerprint(chips[0]) == chip_fingerprint(chips[1])

    def test_tiny_gaps_take_the_batch(self, monkeypatch):
        """A fused stretch costs more than a batch at every length, so
        gaps down to one tick take the batch when the chip supports it."""

        def refuse(*args, **kwargs):
            raise AssertionError("a tiny gap took the fused fallback")

        a, b = batch_chip(), batch_chip()
        monkeypatch.setattr(fused, "advance_fused", refuse)
        for n in (1, 2, 7):
            a.advance_ticks(n)
            soa.advance_chip(b, n)
            assert chip_fingerprint(a) == chip_fingerprint(b)

    def test_fused_loop_refuses_reference_mode(self):
        """A negative tick count is refused before the chip moves."""
        chip = batch_chip()
        with pytest.raises(SimulationError):
            fused.advance_fused(chip, -1)
        assert chip.time_s == 0.0


class TestArrayAdvance:
    @pytest.mark.parametrize("platform_name", ["skylake", "ryzen"])
    def test_plain_advance_bit_identical(self, platform_name):
        a = batch_chip(platform_name, finite_budget=2.0e9)
        b = batch_chip(platform_name, finite_budget=2.0e9)
        a.advance_ticks(600)
        soa.advance_chip(b, 600)
        assert chip_fingerprint(a) == chip_fingerprint(b)

    def test_mutation_schedule_bit_identical(self):
        chips = [
            batch_chip(finite_budget=1.5e9),
            batch_chip(finite_budget=1.5e9),
        ]
        grid = chips[0].platform.pstates.nominal_frequencies_mhz()
        for seg in range(8):
            for chip in chips:
                if seg == 2:
                    chip.park(6, True)
                if seg == 5:
                    chip.park(6, False)
                for i in range(len(chip.cores)):
                    chip.set_requested_frequency(
                        i, grid[(seg + i) % len(grid)]
                    )
            chips[0].advance_ticks(150)
            soa.advance_chip(chips[1], 150)
            assert chip_fingerprint(chips[0]) == chip_fingerprint(chips[1])

    def test_rapl_window_boundaries_bit_identical(self):
        chips = [batch_chip(), batch_chip()]
        for seg in range(10):
            for chip in chips:
                if seg == 2:
                    chip.set_rapl_limit(38.0)
                if seg == 7:
                    chip.set_rapl_limit(None)
            chips[0].advance_ticks(130)
            soa.advance_chip(chips[1], 130)
            assert chip_fingerprint(chips[0]) == chip_fingerprint(chips[1])

    def test_scalar_refresh_invalidates_cached_static_rows(self):
        """A scalar tick that consumes the dirty flag must not leave the
        array path holding frequency rows gathered from the older
        P-state view (found by the equivalence property suite)."""
        chips = [batch_chip(), batch_chip()]
        for chip in chips:
            chip.set_requested_frequency(0, 800.0)
        chips[0].advance_ticks(8)
        soa.advance_chip(chips[1], 8)  # caches static rows at 800 MHz
        for chip in chips:
            chip.set_requested_frequency(0, 900.0)
        # a sub-batch run takes the scalar loop, refreshing the view and
        # clearing the dirty flag without touching the cached rows
        chips[0].advance_ticks(1)
        soa.advance_chip(chips[1], 1)
        chips[0].advance_ticks(8)
        soa.advance_chip(chips[1], 8)
        assert chip_fingerprint(chips[0]) == chip_fingerprint(chips[1])

    def test_stacked_chips_match_individual_stepping(self):
        stacked = [batch_chip(), batch_chip("ryzen"), batch_chip()]
        solo = [batch_chip(), batch_chip("ryzen"), batch_chip()]
        soa.advance_chips(stacked, 400)
        for chip in solo:
            chip.advance_ticks(400)
        for a, b in zip(solo, stacked):
            assert chip_fingerprint(a) == chip_fingerprint(b)


class TestPlacementRows:
    """Placement rows are rebuilt when a chip's placement changes and
    only then: the daemon's P-state retargets refresh the gang's
    frequency rows without touching them."""

    PERIOD_TICKS = 60

    def _count_builds(self, monkeypatch) -> list[Chip]:
        built: list[Chip] = []

        class Counting(soa._Placement):
            def __init__(self, chip):
                built.append(chip)
                super().__init__(chip)

        monkeypatch.setattr(soa, "_Placement", Counting)
        return built

    def _period(self, gang, solo, level):
        for chips in (gang, solo):
            for chip in chips:
                top = chip.platform.pstates.frequencies_mhz[-1 - level]
                for core in range(len(chip.cores)):
                    chip.set_requested_frequency(core, top)
        soa.advance_chips(gang, self.PERIOD_TICKS)
        for chip in solo:
            chip.advance_ticks(self.PERIOD_TICKS)
        for alone, stacked in zip(solo, gang):
            assert chip_fingerprint(alone) == chip_fingerprint(stacked)

    def test_builds_follow_placement_not_pstates(self, monkeypatch):
        built = self._count_builds(monkeypatch)
        gang = [batch_chip(), batch_chip("ryzen"), batch_chip()]
        solo = [batch_chip(), batch_chip("ryzen"), batch_chip()]
        for level in (2, 5, 3, 8):
            self._period(gang, solo, level)
        assert sorted(map(id, built)) == sorted(map(id, gang))

        # one reassignment rebuilds that chip's rows and no other's
        built.clear()
        for chip in (gang[1], solo[1]):
            model = spec_app("gcc", steady=True)
            chip.assign_load(
                5,
                BatchCoreLoad(
                    RunningApp(model, instance=5),
                    chip.platform.reference_frequency_mhz,
                ),
            )
        self._period(gang, solo, 4)
        assert built == [gang[1]]

        # so does one park toggle; a park that changes nothing does not
        built.clear()
        for chip in (gang[2], solo[2]):
            chip.park(0)
            chip.park(1, False)
        self._period(gang, solo, 6)
        assert built == [gang[2]]

        built.clear()
        for level in (1, 7):
            self._period(gang, solo, level)
        assert built == []


class TestDistinctKeys:
    """Lanes are classed by the bytes of their keys, never as floats."""

    @staticmethod
    def _check(key):
        member, inverse = soa._distinct(key)
        cols = [key[:, j].tobytes() for j in range(key.shape[1])]
        for j, col in enumerate(cols):
            assert cols[member[inverse[j]]] == col
        assert len(member) == len(set(cols))
        return member

    def test_signed_zeros_and_nan_payloads_stay_apart(self):
        # +0.0, -0.0, +0.0, NaN, NaN with payload 1, NaN
        words = [0, 1 << 63, 0, 0x7FF8 << 48, (0x7FF8 << 48) | 1, 0x7FF8 << 48]
        key = np.array(
            [words, [0x3FF0 << 48] * len(words)], dtype=np.uint64
        ).view(np.float64)
        assert len(self._check(key)) == 4


class TestDistinctLanes:
    """A gang of identical nodes computes each distinct lane once: the
    power matrix has one column per distinct lane column and the fold
    one lane per distinct lane state, never one per lane."""

    NODES = 64

    def _fleet_node(self):
        from repro.experiments.fleet_exp import fleet_config

        apps = fleet_config(1, 1, 1, schedule=None).nodes[0].apps
        return build_stack(ExperimentConfig(
            platform="skylake", policy="frequency-shares", limit_w=40.0,
            apps=apps, tick_s=5e-3, engine="array",
        )).chip

    def test_identical_nodes_step_once_per_distinct_lane(self, monkeypatch):
        widths: dict[str, list[int]] = {"power_rows": [], "fold": []}
        power_rows = kernel.power_rows
        fold = soa._fold

        def recording_power_rows(ceff_t, *args):
            widths["power_rows"].append(ceff_t.shape[1])
            return power_rows(ceff_t, *args)

        def recording_fold(acc, instr, energy, *args):
            widths["fold"].append(energy.shape[1])
            return fold(acc, instr, energy, *args)

        monkeypatch.setattr(kernel, "power_rows", recording_power_rows)
        monkeypatch.setattr(soa, "_fold", recording_fold)
        gang = [self._fleet_node() for _ in range(self.NODES)]
        lanes = sum(len(chip.cores) for chip in gang)
        assert lanes == 10 * self.NODES
        soa.advance_chips(gang, 300)
        # the first tick flips the idle cores' done flags: a one-tick
        # batch, then the rest
        assert len(widths["power_rows"]) == len(widths["fold"]) >= 2
        # four apps, two of them copies, and the idle cores: a handful
        assert max(widths["power_rows"]) <= 4
        assert max(widths["fold"]) <= 4

        solo = self._fleet_node()
        solo.advance_ticks(300)
        for chip in gang:
            assert chip_fingerprint(chip) == chip_fingerprint(solo)


class TestLockstepWindow:
    """A lockstep window gathers and writes back each chip once; only a
    per-node consumer adds a round trip, and only for its own chip."""

    PERIOD_TICKS = 200  # one 1 s daemon period at 5 ms ticks
    WINDOW_PERIODS = 5

    def _gang(self):
        from repro.core import gang

        configs = [
            ExperimentConfig(
                platform="skylake", policy="frequency-shares",
                limit_w=40.0 + i,
                apps=(AppSpec("leela", shares=25.0 * (1 + i % 4)),
                      AppSpec("cactusBSSN", shares=50.0)),
                tick_s=5e-3, engine="array",
            )
            for i in range(gang.DAEMON_GANG_MIN + 2)
        ]
        return [build_stack(config) for config in configs]

    def _count(self, monkeypatch):
        flushes: dict[int, int] = {}
        gathers: dict[int, int] = {}
        flush = Chip.flush_counters
        gather = soa._Gang._gather

        def counting_flush(chip):
            flushes[id(chip)] = flushes.get(id(chip), 0) + 1
            flush(chip)

        def counting_gather(self, idx):
            for i in idx:
                key = id(self.chips[i])
                gathers[key] = gathers.get(key, 0) + 1
            gather(self, idx)

        monkeypatch.setattr(Chip, "flush_counters", counting_flush)
        monkeypatch.setattr(soa._Gang, "_gather", counting_gather)
        return flushes, gathers

    def _window(self, stacks):
        run_lockstep(
            [stack.engine for stack in stacks],
            self.WINDOW_PERIODS * self.PERIOD_TICKS,
        )

    def test_one_gather_and_one_write_back_per_chip(self, monkeypatch):
        stacks = self._gang()
        self._window(stacks)  # first ticks flip idle cores' done flags
        flushes, gathers = self._count(monkeypatch)
        self._window(stacks)
        chips = [id(stack.chip) for stack in stacks]
        assert flushes == dict.fromkeys(chips, 1)
        assert gathers == dict.fromkeys(chips, 1)

    def test_fallback_adds_one_round_trip_for_its_chip(self, monkeypatch):
        from repro.core import gang

        stacks = self._gang()
        self._window(stacks)
        flushes, gathers = self._count(monkeypatch)
        # the third deadline leaves one daemon to its own iteration
        outsider = stacks[3].daemon
        joins = gang._joins
        calls = [0]

        def joins_except_once(daemon):
            if daemon is outsider:
                calls[0] += 1
                if calls[0] == 3:
                    return False
            return joins(daemon)

        monkeypatch.setattr(gang, "_joins", joins_except_once)
        released: list[int] = []
        release = soa.Window.release

        def recording_release(window, chip):
            released.append(id(chip))
            release(window, chip)

        monkeypatch.setattr(soa.Window, "release", recording_release)
        self._window(stacks)
        assert released == [id(outsider.chip)]
        chips = [id(stack.chip) for stack in stacks]
        want = dict.fromkeys(chips, 1)
        want[id(outsider.chip)] = 2
        assert flushes == want
        assert gathers == want

    def test_one_shot_chip_is_gathered_again(self):
        """A one-shot that switches the RAPL limit off mid-window resets
        the limiter's cap, which the window holds: the chip is written
        back before it fires and gathered again after."""
        caps: list[float] = []

        def lift(chip):
            caps.append(chip.rapl.cap_mhz)
            chip.set_rapl_limit(None)

        engines = []
        for mode in ("array", "scalar"):
            chip = batch_chip()
            for core in range(len(chip.cores)):
                chip.set_requested_frequency(core, 2000.0)
            # just below the ~22 W the chip draws at 2000 MHz: the cap
            # walks down from the top without reaching 2000 MHz by the
            # one-shot
            chip.set_rapl_limit(20.0)
            engine = SimEngine(chip, engine=mode)
            engine.at(40 * chip.tick_s, lambda now, c=chip: lift(c))
            engines.append(engine)
        run_lockstep(engines[:1], 80)
        engines[1].run_ticks(80)
        held, solo = (engine.chip for engine in engines)
        assert caps[0] == caps[1]
        assert 2000.0 < caps[0] < held.platform.max_frequency_mhz
        assert chip_fingerprint(held) == chip_fingerprint(solo)

    def test_load_assigned_to_a_held_chip_counts_as_active(self):
        """An app assigned to an idle core of a chip the window holds
        clears that core's last sample, as on the scalar path; the
        write-back before the next batch must leave it cleared, or the
        refreshed P-state view counts the core idle and the next tick
        runs its chip under the wrong turbo ceiling."""
        platform = get_platform("skylake")

        def app(core, name):
            return BatchCoreLoad(
                RunningApp(spec_app(name, steady=True), instance=core),
                platform.reference_frequency_mhz,
            )

        def build():
            chip = Chip(platform, tick_s=5e-3)
            for core in range(4):
                chip.assign_load(core, app(core, "leela"))
            for core in range(platform.n_cores):
                chip.set_requested_frequency(
                    core, platform.pstates.frequencies_mhz[-1]
                )
            return chip

        held = [build() for _ in range(3)]
        solo = [build() for _ in range(3)]
        window = soa.Window(held)
        for n_ticks, assign in ((20, False), (8, True)):
            if assign:
                for chip in (held[0], solo[0]):
                    chip.assign_load(5, app(5, "imagick"))
            soa.advance_chips(held, n_ticks, window)
            for chip in solo:
                chip.advance_ticks(n_ticks)
        window.close()
        for alone, resident in zip(solo, held):
            assert chip_fingerprint(alone) == chip_fingerprint(resident)


class TestPassProgramsTheWindow:
    """Inside a lockstep window the daemon pass steers the chips through
    the window's request row and keeps its samples as rows: no register
    write, no P-state view refresh between batches and no
    :class:`DaemonSample` until something reads the history."""

    PERIOD_TICKS = 200  # one 1 s daemon period at 5 ms ticks

    def _count(self, monkeypatch):
        from repro.core.daemon import DaemonSample
        from repro.hw.msr import MSRFile

        counts = {"writes": 0, "refreshes": 0, "samples": 0, "batches": 0}
        write = MSRFile.write
        refresh = Chip._refresh_pstate_view
        init = DaemonSample.__init__
        advance_batch = soa._advance_batch

        def counting_write(msr, cpu, address, value):
            counts["writes"] += 1
            write(msr, cpu, address, value)

        def counting_refresh(chip):
            # a refresh before the window's first batch resolves the view
            # the boot left; one after it would be the pass's
            if counts["batches"]:
                counts["refreshes"] += 1
            refresh(chip)

        def counting_init(sample, *args, **kwargs):
            counts["samples"] += 1
            init(sample, *args, **kwargs)

        def counting_batch(gang, n_ticks):
            counts["batches"] += 1
            return advance_batch(gang, n_ticks)

        monkeypatch.setattr(MSRFile, "write", counting_write)
        monkeypatch.setattr(Chip, "_refresh_pstate_view", counting_refresh)
        monkeypatch.setattr(DaemonSample, "__init__", counting_init)
        monkeypatch.setattr(soa, "_advance_batch", counting_batch)
        return counts

    def test_window_writes_no_register_and_builds_no_sample(
        self, monkeypatch
    ):
        from repro.core import gang

        lockstep = TestLockstepWindow()._gang()
        per_node = TestLockstepWindow()._gang()
        assert len(lockstep) >= gang.DAEMON_GANG_MIN
        engines = [stack.engine for stack in lockstep]
        # past the boot: every idle core's first tick flips `done`
        run_lockstep(engines, self.PERIOD_TICKS)
        counts = self._count(monkeypatch)
        run_lockstep(engines, 5 * self.PERIOD_TICKS)
        assert counts["batches"] >= 5
        assert counts["writes"] == 0
        assert counts["refreshes"] == 0
        assert counts["samples"] == 0
        assert all(len(stack.daemon.history) == 6 for stack in lockstep)
        for stack in per_node:
            stack.engine.run_ticks(6 * self.PERIOD_TICKS)
        for a, b in zip(lockstep, per_node):
            assert repr(a.daemon.history) == repr(b.daemon.history)
            assert a.chip.msr._values == b.chip.msr._values
            assert [c.requested_mhz for c in a.chip.cores] == [
                c.requested_mhz for c in b.chip.cores
            ]
            assert a.chip._dirty == b.chip._dirty
            assert a.chip._view_generation == b.chip._view_generation
            assert a.chip._base_effective_mhz == b.chip._base_effective_mhz

    def test_fleet_epochs_build_no_sample(self, monkeypatch):
        from repro.cluster import ClusterSim
        from repro.experiments.fleet_exp import fleet_config

        config = fleet_config(1, 2, 6, seed=5, schedule=None, engine="array")
        assert len(config.nodes) == 12
        counts = self._count(monkeypatch)
        sim = ClusterSim(config)
        result = sim.run(3 * config.epoch_s)
        assert counts["samples"] == 0
        assert result.journal.to_jsonl()


class TestEngineSelector:
    def test_engine_modes(self):
        assert SimEngine(batch_chip(), engine="array").engine_mode == "array"
        assert SimEngine(batch_chip(), engine="scalar").engine_mode == (
            "scalar"
        )

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            SimEngine(batch_chip(), engine="simd")

    def test_config_validates_engine(self):
        apps = (AppSpec("leela"),)
        assert ExperimentConfig(
            platform="skylake", policy="frequency-shares",
            limit_w=50.0, apps=apps, engine="scalar",
        ).engine == "scalar"
        with pytest.raises(ConfigError):
            ExperimentConfig(
                platform="skylake", policy="frequency-shares",
                limit_w=50.0, apps=apps, engine="vector",
            )

    def test_default_engine_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        assert default_engine() == "array"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "scalar")
        assert default_engine() == "scalar"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "cuda")
        with pytest.raises(ConfigError):
            default_engine()

    def test_engines_tuple_is_the_contract(self):
        assert ENGINES == ("scalar", "array")


class TestCacheEngineBlindness:
    def _config(self, engine):
        return ExperimentConfig(
            platform="skylake", policy="frequency-shares", limit_w=50.0,
            apps=(AppSpec("leela"), AppSpec("cactusBSSN")), engine=engine,
        )

    def test_single_socket_keys_ignore_engine(self):
        from repro.experiments.cache import cache_key, config_to_jsonable

        scalar, array = self._config("scalar"), self._config("array")
        assert cache_key(scalar, 60.0, 20.0) == cache_key(array, 60.0, 20.0)
        assert "engine" not in json.dumps(config_to_jsonable(scalar))

    def test_cluster_keys_ignore_engine(self):
        import dataclasses

        from repro.experiments.cache import cluster_cache_key
        from repro.experiments.cluster_exp import default_cluster_config

        base = default_cluster_config()
        assert cluster_cache_key(
            dataclasses.replace(base, engine="scalar"), 120.0, 40.0
        ) == cluster_cache_key(
            dataclasses.replace(base, engine="array"), 120.0, 40.0
        )

    def test_config_roundtrip_tolerates_missing_engine(self):
        from repro.experiments.cache import (
            config_from_jsonable,
            config_to_jsonable,
        )

        data = config_to_jsonable(self._config("scalar"))
        restored = config_from_jsonable(data)
        assert restored.engine in ENGINES

    def test_standalone_reference_cache_clear_hook(self):
        from repro.experiments.runner import (
            _standalone_reference_ips,
            clear_standalone_reference_cache,
        )

        _standalone_reference_ips("skylake", "leela")
        assert _standalone_reference_ips.cache_info().currsize > 0
        clear_standalone_reference_cache()
        assert _standalone_reference_ips.cache_info().currsize == 0
