"""Struct-of-arrays batched chip stepping: the ``array`` engine.

The scalar hot loop (:meth:`repro.sim.chip.Chip.tick`) walks Python
``Core`` objects once per tick.  This module replaces whole *batches* of
ticks with numpy matrix transforms over a ``(ticks, cores)`` layout —
and, for a cluster stepped in lockstep, over all chips stacked along the
core axis into one ``(ticks, nodes x cores)`` batch — while keeping the
``Chip``/``Core`` object graph the single source of truth: state is
*gathered* into arrays at the start of a batch and *committed* back at
the end, so every consumer (daemon, telemetry, policies, tests) sees
exactly the objects it always did.

Equivalence contract (DESIGN.md section 13): results are bit-identical
to the scalar reference.  That holds because

* every elementwise formula replicates the scalar association order
  (:mod:`repro.sim.kernel`);
* order-sensitive accumulators are strictly sequential: seeded with
  the live running value, then folded tick by tick (``acc += row``) or
  with ``np.add.accumulate``, never a pairwise reduce;
* batches are *optimistically* sized and cut at the first tick whose
  behaviour diverges from the batch's invariants: a load finishing (the
  turbo ceiling changes next tick), a ``done`` flip re-marking the chip
  dirty, or the RAPL frequency cap dropping below the fastest unparked
  core's base frequency (the cap would start clipping, which the
  candidate matrices did not model);
* the RAPL limiter's EWMA control loop is a sequential recurrence with
  no closed form, so it is replayed tick-by-tick in the limiter's exact
  operation order — on local floats per chip, or for wide gangs once
  per tick across every limited chip — and written back only for the
  committed prefix;
* ticks the batch cannot take — chips with websearch clusters or
  non-batch loads (time-shared cores, cluster serving cores) or a grid
  with fewer than two points, gaps shorter than :data:`MIN_BATCH_TICKS`,
  and :data:`RAPL_SCALAR_TICKS` stretches while a cap clips — run the
  fused per-tick loop (:func:`repro.sim.fused.advance_fused`), which is
  ``Chip.tick`` on local floats.  Only ``dirty_caching=False`` reference
  chips step through ``Chip.advance_ticks`` itself.

Gathering is two-tier.  Rows derived from the resolved P-state view and
the load placement (:class:`_ChipStatic`) are cached on the chip and
rebuilt only when the chip is dirty — every mutation that can change
them (``set_requested_frequency``, ``park``, ``assign_load``, a ``done``
flip) marks the chip dirty.  The one mutation that does *not* is an app
externally marked finished (crash faults); that is why the ``running``
mask is re-read every batch.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.hw.cstates import EXIT_LATENCY_S, CState
from repro.sim import kernel
from repro.sim.core import BatchCoreLoad, IdleLoad, LoadSample
from repro.sim.fused import advance_fused
from repro.units import clamp

if TYPE_CHECKING:
    from repro.hw.pstate import PStateTable
    from repro.hw.rapl import RaplLimiter
    from repro.sim.chip import Chip

#: below this many ticks the fixed numpy call overhead outweighs the
#: vector win; the fused loop takes the gap (1-tick cadences like the
#: thermal daemon land here automatically).
MIN_BATCH_TICKS = 8
#: candidate-batch ceiling: bounds the work discarded when an event
#: (finish / RAPL bind) cuts a batch short.
MAX_BATCH_TICKS = 512
#: fused-loop ticks taken after a batch commits nothing (the RAPL cap
#: is actively clipping): the cap moves every tick there, so immediately
#: retrying the vector path would compute and discard full candidate
#: batches one committed tick at a time.
RAPL_SCALAR_TICKS = 32
#: gangs with at least this many RAPL-limited chips replay the limiter
#: recurrence once per tick across all of them (:func:`_replay_rapl_gang`);
#: narrower ones replay each chip on plain floats (:func:`_replay_rapl`),
#: which is cheaper while the per-tick numpy call overhead dominates.
#: Set at the measured crossover: the two cost the same at about 28
#: limited chips over a 200-tick batch (2-vCPU Xeon, numpy 2.4).
RAPL_GANG_MIN_CHIPS = 32

#: per-table cached grid arrays for the vectorized V/f interpolation
#: (PStateTable is an immutable value type with content hashing).
_GRID_CACHE: dict["PStateTable", tuple["np.ndarray", "np.ndarray"]] = {}

#: shared idle sample: LoadSample is frozen, so idle/parked lanes can
#: all reference one instance (consumers compare fields, not identity).
_IDLE_SAMPLE = LoadSample(0.0, 0.0, 0.0, done=True)

_STATIC_SERIAL = itertools.count()

#: a column's phase key (chip start time, period, offset, IPC and power
#: amplitudes) as one opaque 40-byte value, so keys dedupe bit for bit.
_PHASE_KEY = np.dtype((np.void, 5 * 8))


def _grid_arrays(table: "PStateTable") -> tuple["np.ndarray", "np.ndarray"]:
    cached = _GRID_CACHE.get(table)
    if cached is None:
        freqs = np.asarray(table.frequencies_mhz, dtype=np.float64)
        volts = np.asarray(
            [p.voltage_v for p in table], dtype=np.float64
        )
        cached = (freqs, volts)
        # repro-lint: disable=shared-state-race — pure memo of a frozen table; every process recomputes identical arrays, nothing reads across processes
        _GRID_CACHE[table] = cached
    return cached


def chip_supports_array(chip: "Chip") -> bool:
    """Whether the batched array path can step this chip exactly.

    Anything outside the batch's modelled invariants — websearch
    clusters (advanced with a global frequency view each tick),
    non-batch loads, or a degenerate V/f grid — takes the fused per-tick
    loop instead (:func:`repro.sim.fused.advance_fused`); the
    ``dirty_caching=False`` reference mode (which re-resolves P-states
    every tick) takes ``Chip.advance_ticks``.
    """
    if not chip.dirty_caching or chip.clusters:
        return False
    if len(chip.platform.pstates.frequencies_mhz) < 2:
        return False
    for core in chip.cores:
        load_type = type(core.load)
        if load_type is not IdleLoad and load_type is not BatchCoreLoad:
            return False
    return True


class _ChipStatic:
    """Gather rows valid until the chip next re-resolves its P-state view.

    Everything here is a pure function of the resolved base frequencies,
    the load placement, and the platform constants.  Rows come in
    *running* and *idle* variants (the scalar loop evaluates the same
    elementwise formulas at ``eff = base`` for busy lanes and
    ``eff = reference`` for idle/parked lanes); the per-batch step
    selects between them with the live ``running`` mask, which keeps the
    precomputation bit-identical to evaluating on the masked frequency
    row directly.
    """

    def __init__(self, chip: "Chip"):
        self.serial = next(_STATIC_SERIAL)
        self.view_generation = chip._view_generation
        platform = chip.platform
        power = platform.power
        dt = chip.tick_s
        self.grid_f, self.grid_v = _grid_arrays(platform.pstates)
        base = list(chip._base_effective_mhz)
        # parked cores carry base 0.0, so this is the fastest *unparked*
        # base frequency: the threshold below which the RAPL cap clips
        self.base_max = max(base) if base else 0.0
        self.base_list = base
        self.n = len(chip.cores)
        self.uncore = power.uncore_watts
        self.wake_eff = max(0.0, 1.0 - EXIT_LATENCY_S[CState.C6] / dt)

        parked: list[bool] = []
        loads: list[BatchCoreLoad | None] = []
        ref: list[float] = []
        mem: list[float] = []
        base_ipc: list[float] = []
        stall: list[float] = []
        ceff: list[float] = []
        ipc_amp: list[float] = []
        pow_amp: list[float] = []
        period: list[float] = []
        offset: list[float] = []
        budget: list[float] = []
        for core in chip.cores:
            load = core.load
            parked.append(core.parked)
            if not core.parked and type(load) is BatchCoreLoad:
                app = load.app
                model = app.model
                loads.append(load)
                ref.append(load.reference_mhz)
                mem.append(model.mem_fraction)
                base_ipc.append(model.base_ipc)
                stall.append(model.stall_power_factor)
                ceff.append(model.c_eff)
                phase = model.phase
                ipc_amp.append(phase.ipc_amplitude)
                pow_amp.append(phase.power_amplitude)
                period.append(phase.period_s)
                offset.append(model._phase_offset())
                work = model.instructions
                budget.append(math.inf if work is None else work)
            else:
                # placeholder lanes: masked out of every result, chosen
                # only to keep the elementwise math finite
                loads.append(None)
                ref.append(1.0)
                mem.append(0.0)
                base_ipc.append(1.0)
                stall.append(1.0)
                ceff.append(0.0)
                ipc_amp.append(0.0)
                pow_amp.append(0.0)
                period.append(1.0)
                offset.append(0.0)
                budget.append(math.inf)
        self.parked = parked
        self.loads = loads
        self.has_budget = any(not math.isinf(b) for b in budget)

        n = self.n
        base_row = np.asarray(base, dtype=np.float64)
        ref_row = np.asarray(ref, dtype=np.float64)
        mem_row = np.asarray(mem, dtype=np.float64)
        ipc_row = np.asarray(base_ipc, dtype=np.float64)
        stall_row = np.asarray(stall, dtype=np.float64)
        # running lanes always have base > 0 (parked lanes are the only
        # zero entries); guard the precomputed running view against the
        # division anyway — those lanes are masked out of every use
        eff_run = np.where(base_row > 0.0, base_row, ref_row)
        rate_run, factor_run = kernel.roofline_rows(
            eff_run, ref_row, mem_row, ipc_row, stall_row
        )
        rate_idle, factor_idle = kernel.roofline_rows(
            ref_row, ref_row, mem_row, ipc_row, stall_row
        )
        tsc_scaled = (chip._tsc_mhz * 1e6) * dt
        self.rows: dict[str, "np.ndarray"] = {
            "base_row": base_row,
            "ref_row": ref_row,
            "rate_run": rate_run,
            "rate_idle": rate_idle,
            "factor_run": factor_run,
            "factor_idle": factor_idle,
            "volt_run": kernel.voltage_rows(eff_run, self.grid_f, self.grid_v),
            "volt_idle": kernel.voltage_rows(ref_row, self.grid_f, self.grid_v),
            "fghz_run": base_row / 1000.0,
            "fghz_idle": ref_row / 1000.0,
            "aperf_run": (base_row * 1e6) * dt,
            "mperf_run": np.full(n, tsc_scaled, dtype=np.float64),
            "ceff_row": np.asarray(ceff, dtype=np.float64),
            "period_row": np.asarray(period, dtype=np.float64),
            "offset_row": np.asarray(offset, dtype=np.float64),
            "ipc_amp_row": np.asarray(ipc_amp, dtype=np.float64),
            "pow_amp_row": np.asarray(pow_amp, dtype=np.float64),
            "budget_row": np.asarray(budget, dtype=np.float64),
            "scale_row": np.full(n, power.c_eff_scale, dtype=np.float64),
            "leak_row": np.full(n, power.leak_coeff_w_per_v, dtype=np.float64),
            "idle_row": np.full(n, power.idle_core_watts, dtype=np.float64),
            "wake_row": np.full(n, self.wake_eff, dtype=np.float64),
            "c1_idle": np.where(np.asarray(parked, dtype=bool), 0.0, dt),
            "c6_inc": np.where(np.asarray(parked, dtype=bool), dt, 0.0),
            # each core's position within its chip (package-sum layout)
            "core_row": np.arange(n),
        }


class ChipArrayState:
    """One chip's per-batch gather: cached static rows + live masks.

    Built at the start of every batch; the constructor performs the same
    lazy P-state refresh the scalar tick would (so a pending dirty flag
    resolves identically, including raising on invalid simultaneous
    P-state requests).  Static rows are keyed on the chip's view
    *generation*, not on who cleared the dirty flag: a refresh run by
    the fused loop in between batches (which consumes ``_dirty``) must
    still invalidate rows gathered from the older view.
    """

    def __init__(self, chip: "Chip"):
        if chip._dirty or not chip.dirty_caching:
            chip._refresh_pstate_view()
        static = chip.__dict__.get("_soa_static")
        if static is None or static.view_generation != chip._view_generation:
            static = _ChipStatic(chip)
            chip._soa_static = static
        self.chip = chip
        self.static = static
        self.dt = chip.tick_s
        self.t0 = chip.time_s

        loads = static.loads
        running: list[bool] = []
        retired0: list[float] = []
        elapsed0: list[float] = []
        prev_c6: list[bool] = []
        residencies = chip.cstates._cores
        for local, core in enumerate(chip.cores):
            load = loads[local]
            if load is not None and not load.app.finished:
                running.append(True)
                retired0.append(load.app.retired_instructions)
                elapsed0.append(load.app.elapsed_s)
            else:
                running.append(False)
                retired0.append(0.0)
                elapsed0.append(0.0)
            prev_c6.append(residencies[core.core_id].current is CState.C6)
        self.running = running
        self.running_arr = np.asarray(running, dtype=bool)
        self.retired0 = retired0
        self.elapsed0 = elapsed0
        self.prev_c6 = prev_c6


def advance_chip(chip: "Chip", n_ticks: int) -> None:
    """Advance one chip ``n_ticks`` via the array path (with fallback)."""
    advance_chips([chip], n_ticks)


def advance_chips(chips: list["Chip"], n_ticks: int) -> None:
    """Advance every chip by ``n_ticks``, batching where possible.

    Chips the array path cannot step exactly take the fused loop (or,
    in ``dirty_caching=False`` reference mode, ``Chip.advance_ticks``);
    the rest are stacked along the core axis (grouped by tick length)
    and stepped as one ``(ticks, total cores)`` batch.
    """
    if n_ticks < 0:
        raise SimulationError("cannot run negative ticks")
    groups: dict[float, list["Chip"]] = {}
    for chip in chips:
        if chip_supports_array(chip):
            groups.setdefault(chip.tick_s, []).append(chip)
        elif chip.dirty_caching:
            advance_fused(chip, n_ticks)
        else:
            chip.advance_ticks(n_ticks)
    for group in groups.values():
        _advance_group(group, n_ticks)


def _advance_group(chips: list["Chip"], n_ticks: int) -> None:
    remaining = n_ticks
    while remaining > 0:
        if remaining < MIN_BATCH_TICKS:
            for chip in chips:
                advance_fused(chip, remaining)
            return
        states = [ChipArrayState(chip) for chip in chips]
        committed = _advance_batch(states, min(remaining, MAX_BATCH_TICKS))
        if committed == 0:
            # the RAPL cap is clipping right now: run the fused loop for
            # a stretch instead of re-deriving candidates one tick at a
            # time while the cap walks
            committed = min(remaining, RAPL_SCALAR_TICKS)
            for chip in chips:
                advance_fused(chip, committed)
        remaining -= committed


#: last stacked static-row set, keyed by the group's static serials, so
#: lockstep cluster batches don't re-concatenate unchanged rows.
_GROUP_KEY: tuple[int, ...] | None = None
_GROUP_ROWS: dict[str, "np.ndarray"] | None = None


def _group_rows(states: list[ChipArrayState]) -> dict[str, "np.ndarray"]:
    global _GROUP_KEY, _GROUP_ROWS
    if len(states) == 1:
        return states[0].static.rows
    key = tuple(st.static.serial for st in states)
    if key != _GROUP_KEY or _GROUP_ROWS is None:
        statics = [st.static for st in states]
        # repro-lint: disable=shared-state-race — per-process memo keyed by static serials; each worker rebuilds identical rows from its own chips
        _GROUP_ROWS = {
            name: np.concatenate([s.rows[name] for s in statics])
            for name in statics[0].rows
        }
        # repro-lint: disable=shared-state-race — cache key for the row memo above; same per-process recomputation argument
        _GROUP_KEY = key
    return _GROUP_ROWS


def _stack_dyn(arrays: list["np.ndarray"]) -> "np.ndarray":
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate(arrays)


def _replay_rapl(
    limiter: "RaplLimiter",
    pkg_list: list[float],
    dt: float,
    base_max: float,
    max_ticks: int,
) -> tuple[int, tuple[float, float, bool]]:
    """Run the limiter recurrence forward on local floats.

    Replicates :meth:`RaplLimiter.observe` operation-for-operation
    (EWMA update, proportional step, cap clamp) without per-tick method
    and attribute dispatch.  Stops before the first tick whose
    pre-observe cap falls below ``base_max`` — from that tick on
    ``clip()`` would alter effective frequencies and invalidate the
    batch's candidate matrices.  Returns the number of valid ticks and
    the control state after them; the caller writes the state back only
    for the globally committed prefix.
    """
    avg, cap, primed = limiter.control_state()
    config = limiter.config
    alpha = clamp(dt / config.averaging_tau_s, 0.0, 1.0)
    if cap < base_max:
        return 0, (avg, cap, primed)
    limit = limiter.limit_w
    if limit is None:
        # the cap never moves without a limit: every tick is valid and
        # only the running average advances
        start = 0
        if not primed and max_ticks > 0:
            avg = pkg_list[0]
            primed = True
            start = 1
        for pkg in pkg_list[start:max_ticks]:
            avg += alpha * (pkg - avg)
        return max_ticks, (avg, cap, primed)
    gain = config.gain_mhz_per_w
    hyst = config.hysteresis_w
    min_f = limiter.platform.min_frequency_mhz
    max_f = limiter.platform.max_frequency_mhz
    observed = 0
    while observed < max_ticks:
        if cap < base_max:
            break
        pkg = pkg_list[observed]
        if primed:
            avg += alpha * (pkg - avg)
        else:
            avg = pkg
            primed = True
        error = avg - limit
        if error > 0.0:
            cap = max(min_f, min(max_f, cap - gain * error))
        elif error < -hyst:
            cap = max(min_f, min(max_f, cap - gain * (error + hyst)))
        observed += 1
    return observed, (avg, cap, primed)


def _replay_rapl_gang(
    limiters: list["RaplLimiter"],
    pkg: "np.ndarray",
    dt: float,
    base_max: "np.ndarray",
    max_ticks: int,
) -> tuple[int, "np.ndarray", "np.ndarray"]:
    """:func:`_replay_rapl` for many limiters at once, one tick per step.

    ``pkg`` is the ``(ticks, limiters)`` package power matrix and
    ``base_max`` each chip's fastest unparked base frequency.  Every
    limiter takes the same elementwise operations as in
    :func:`_replay_rapl`, so each lane is bit-identical to it.  The
    replay stops before the first tick at which *any* cap is below its
    chip's base maximum — the gang commits one common prefix anyway.
    Returns that tick count and the ``(ticks + 1, limiters)`` average
    and cap histories (row ``k`` is the state after ``k`` ticks), so the
    caller can write back whichever prefix commits.  Nothing is mutated
    here.
    """
    states = [limiter.control_state() for limiter in limiters]
    avg = np.asarray([s[0] for s in states], dtype=np.float64)
    cap = np.asarray([s[1] for s in states], dtype=np.float64)
    primed = np.asarray([s[2] for s in states], dtype=bool)
    configs = [limiter.config for limiter in limiters]
    platforms = [limiter.platform for limiter in limiters]
    f64 = np.float64
    alpha = np.asarray(
        [clamp(dt / cfg.averaging_tau_s, 0.0, 1.0) for cfg in configs], f64
    )
    gain = np.asarray([cfg.gain_mhz_per_w for cfg in configs], f64)
    hyst = np.asarray([cfg.hysteresis_w for cfg in configs], f64)
    neg_hyst = -hyst
    min_f = np.asarray([plat.min_frequency_mhz for plat in platforms], f64)
    max_f = np.asarray([plat.max_frequency_mhz for plat in platforms], f64)
    limits = [limiter.limit_w for limiter in limiters]
    has_limit = np.asarray([lim is not None for lim in limits], dtype=bool)
    # unlimited lanes never move their cap (masked by has_limit); the
    # placeholder only keeps their error finite
    limit = np.asarray([0.0 if lim is None else lim for lim in limits], f64)
    all_primed = np.ones(len(limiters), dtype=bool)
    avg_hist = np.empty((max_ticks + 1, len(limiters)), dtype=np.float64)
    cap_hist = np.empty_like(avg_hist)
    avg_hist[0] = avg
    cap_hist[0] = cap
    observed = 0
    while observed < max_ticks and not bool((cap < base_max).any()):
        p = pkg[observed]
        avg = np.where(primed, avg + alpha * (p - avg), p)
        primed = all_primed
        error = avg - limit
        over = error > 0.0
        moved = (over | (error < neg_hyst)) & has_limit
        step = gain * np.where(over, error, error + hyst)
        cap = np.where(
            moved, np.maximum(min_f, np.minimum(max_f, cap - step)), cap
        )
        observed += 1
        avg_hist[observed] = avg
        cap_hist[observed] = cap
    return observed, avg_hist, cap_hist


def _fold(seed: "np.ndarray", incs: "np.ndarray") -> "np.ndarray":
    """``seed`` with every row of ``incs`` added in row (tick) order.

    Each column is one chained ``x += inc``, bit-identical to the scalar
    loop whichever way it is iterated, so the fold runs along the
    shorter axis: a tick-ordered in-place ``acc += row`` when there are
    more columns than ticks (a stacked gang), one sequential
    ``np.add.accumulate`` per column otherwise (a single chip).  Either
    way numpy is entered ``min(ticks, columns)`` times.
    """
    ticks, width = incs.shape
    if width < ticks:
        stacked = np.empty((width, ticks + 1), dtype=np.float64)
        stacked[:, 0] = seed
        stacked[:, 1:] = incs.T
        return np.add.accumulate(stacked, axis=1)[:, -1]
    acc = seed.copy()
    for row in incs:
        acc += row
    return acc


def _advance_batch(states: list[ChipArrayState], n_ticks: int) -> int:
    """Step every gathered chip up to ``n_ticks``; returns ticks committed.

    Returns 0 (committing nothing, building nothing) only when a RAPL
    cap already clips the very first tick — the caller then takes the
    fused loop.
    """
    for state in states:
        limiter = state.chip.rapl
        if limiter is not None and limiter.cap_mhz < state.static.base_max:
            return 0
    dt = states[0].dt
    sizes = [state.static.n for state in states]
    total = sum(sizes)
    n_chips = len(states)
    slices: list[slice] = []
    start = 0
    for size in sizes:
        slices.append(slice(start, start + size))
        start += size
    chip_of = np.repeat(np.arange(n_chips), sizes)
    rows = _group_rows(states)

    running = _stack_dyn([st.running_arr for st in states])
    prev_done = _stack_dyn(
        [
            np.asarray(st.chip._prev_sample_done, dtype=bool)
            for st in states
        ]
    )
    rate0 = np.where(running, rows["rate_run"], rows["rate_idle"])
    factor = np.where(running, rows["factor_run"], rows["factor_idle"])
    any_budget = any(st.static.has_budget for st in states)

    # event split, part 1: without instruction budgets the only split
    # trigger is a `done` flip at tick 0 (fresh assignment, external
    # finish), detectable before any matrix work — a flip commits a
    # single tick so the scalar dirty/refresh cascade replays exactly
    if any_budget:
        window = n_ticks
    else:
        done0 = ~running
        window = 1 if bool((done0 != prev_done).any()) else n_ticks

    # per-chip simulated-time series (column c is chip c)
    t0 = np.asarray([st.t0 for st in states], dtype=np.float64)
    t_series = kernel.seeded_accumulate(
        t0, np.full((window, n_chips), dt, dtype=np.float64)
    )
    # phase factors depend only on the column's (chip start time,
    # period, offset, amplitudes): evaluate them once per distinct key,
    # compared bit for bit, and gather the result back to every column
    period = rows["period_row"]
    offset = rows["offset_row"]
    ipc_amp = rows["ipc_amp_row"]
    pow_amp = rows["pow_amp_row"]
    keys = np.stack((t0[chip_of], period, offset, ipc_amp, pow_amp), axis=1)
    reps: list[int] = []
    key_slot: dict[bytes, int] = {}
    inverse_list: list[int] = []
    for col, key in enumerate(keys.view(_PHASE_KEY).ravel().tolist()):
        if key not in key_slot:
            key_slot[key] = len(reps)
            reps.append(col)
        inverse_list.append(key_slot[key])
    inverse = np.asarray(inverse_list)
    ipc_u, pow_u = kernel.phase_factors(
        t_series[:window, chip_of[reps]],
        period[reps],
        offset[reps],
        ipc_amp[reps],
        pow_amp[reps],
    )
    cand = np.where(
        running, kernel.retired_rows(rate0, ipc_u[:, inverse], dt), 0.0
    )

    # event split, part 2: with budgets in play, scan for the earliest
    # finishing tick; the batch runs through it inclusive (behaviour
    # changes the tick after)
    if any_budget:
        budget_row = rows["budget_row"]
        r0 = _stack_dyn(
            [np.asarray(st.retired0, dtype=np.float64) for st in states]
        )
        r_acc = kernel.seeded_accumulate(r0, cand)
        hits = (cand >= (budget_row - r_acc[:window])) & running
        first_hit = kernel.first_hit_rows(hits, window)
        done0 = np.where(running, first_hit == 0, True)
        if bool((done0 != prev_done).any()):
            length = 1
        else:
            length = min(window, int(first_hit.min()) + 1)
    else:
        first_hit = None
        length = window

    # power matrix over the candidate window, and every chip's package
    # power from one zero-padded sequential fold
    volt = np.where(running, rows["volt_run"], rows["volt_idle"])
    fghz = np.where(running, rows["fghz_run"], rows["fghz_idle"])
    ceff_t = (rows["ceff_row"] * factor) * pow_u[:length, inverse]
    power = kernel.power_rows(
        ceff_t,
        volt,
        fghz,
        rows["scale_row"],
        rows["leak_row"],
        rows["idle_row"],
        running,
    )
    width = max(sizes)
    slots = chip_of * width + rows["core_row"]
    uncore = np.asarray([st.static.uncore for st in states], dtype=np.float64)
    pkg = kernel.package_rows(power, slots, n_chips, width, uncore)

    # RAPL: replay the EWMA/cap recurrence; a tick is only valid while
    # the cap clears the fastest unparked base frequency (otherwise
    # clip() would have altered effective MHz and every candidate
    # matrix after it).  The early return above guarantees tick 0 is.
    limited = [i for i, st in enumerate(states) if st.chip.rapl is not None]
    commit = length
    if len(limited) >= RAPL_GANG_MIN_CHIPS:
        limiters = [states[i].chip.rapl for i in limited]
        base_max = np.asarray(
            [states[i].static.base_max for i in limited], dtype=np.float64
        )
        commit, avg_hist, cap_hist = _replay_rapl_gang(
            limiters, pkg[:, limited], dt, base_max, length
        )
        avg = avg_hist[commit].tolist()
        cap = cap_hist[commit].tolist()
        for lane, limiter in enumerate(limiters):
            # commit >= 1: every limiter has observed a tick, so primed
            limiter.restore_control_state((avg[lane], cap[lane], True))
    elif limited:
        pkg_cols = pkg.T.tolist()
        replays: list[tuple[int, int, tuple[float, float, bool]]] = []
        for i in limited:
            observed, final = _replay_rapl(
                states[i].chip.rapl, pkg_cols[i], dt,
                states[i].static.base_max, length,
            )
            replays.append((i, observed, final))
            commit = min(commit, observed)
        for i, observed, final in replays:
            limiter = states[i].chip.rapl
            if observed != commit:
                # a shorter global prefix committed: re-derive the
                # control state after exactly the committed ticks
                _, final = _replay_rapl(
                    limiter, pkg_cols[i], dt, states[i].static.base_max,
                    commit,
                )
            limiter.restore_control_state(final)

    # the fold's per-tick increments, one column per accumulator whose
    # increment changes by tick: MSR instructions | RAPL per-core energy
    # | app retired work | package energy | Core instruction totals |
    # Core energy totals (the MSR-side and Core-side blocks take the
    # same increments from different seeds)
    t, c = total, n_chips
    incs = np.empty((commit, 5 * t + c), dtype=np.float64)
    # instruction view the counters see: the finishing tick is clamped
    # to the app's remaining budget, then (order matters) the first tick
    # after a C6 exit is discounted by the wake-up efficiency
    inst = incs[:, 0:t]
    inst[...] = cand[:commit]
    if first_hit is not None:
        finisher = running & (first_hit == commit - 1)
        any_finish = bool(finisher.any())
    else:
        finisher = None
        any_finish = False
    if any_finish:
        clamped = np.maximum(budget_row - r_acc[commit - 1], 0.0)
        inst[commit - 1] = np.where(finisher, clamped, inst[commit - 1])
    wake_needed = any(
        c6 and run
        for st in states
        for c6, run in zip(st.prev_c6, st.running)
    )
    if wake_needed:
        wake = (
            _stack_dyn(
                [np.asarray(st.prev_c6, dtype=bool) for st in states]
            )
            & running
        )
        inst[0] = np.where(
            wake & (inst[0] > 0.0), inst[0] * rows["wake_row"], inst[0]
        )
    np.multiply(power[:commit], dt, out=incs[:, t : 2 * t])
    incs[:, 2 * t : 3 * t] = cand[:commit]
    np.multiply(pkg[:commit], dt, out=incs[:, 3 * t : 3 * t + c])
    incs[:, 3 * t + c : 4 * t + c] = inst
    incs[:, 4 * t + c :] = incs[:, t : 2 * t]

    # seeded running sums: `acc` is seeded like `incs` is laid out, and
    # `fixed` holds the eight accumulators whose increment is the same
    # every tick, folded from one broadcast row
    seeds: list[float] = []
    for st in states:
        seeds.extend(st.chip._instr_total)
    for st in states:
        seeds.extend(st.chip.energy._core_energy_j)
    for st in states:
        seeds.extend(st.retired0)
    seeds.extend(st.chip.energy._pkg_energy_j for st in states)
    for st in states:
        seeds.extend(core.total_instructions for core in st.chip.cores)
    for st in states:
        seeds.extend(core.total_energy_j for core in st.chip.cores)
    acc = np.asarray(seeds, dtype=np.float64)
    fixed_seeds: list[float] = []
    for st in states:
        fixed_seeds.extend(core.total_busy_s for core in st.chip.cores)
    for st in states:
        fixed_seeds.extend(core.total_time_s for core in st.chip.cores)
    for st in states:
        fixed_seeds.extend(st.chip._aperf_cycles)
    for st in states:
        fixed_seeds.extend(st.chip._mperf_cycles)
    for st in states:
        fixed_seeds.extend(r.c0_s for r in st.chip.cstates._cores)
    for st in states:
        fixed_seeds.extend(r.c1_s for r in st.chip.cstates._cores)
    for st in states:
        fixed_seeds.extend(r.c6_s for r in st.chip.cstates._cores)
    for st in states:
        fixed_seeds.extend(st.elapsed0)
    fixed = np.asarray(fixed_seeds, dtype=np.float64)
    dt_running = np.where(running, dt, 0.0)
    fixed_inc = np.concatenate(
        (
            dt_running,                                   # busy seconds
            np.full(t, dt, dtype=np.float64),             # wall seconds
            np.where(running, rows["aperf_run"], 0.0),
            np.where(running, rows["mperf_run"], 0.0),
            dt_running,                                   # C0 residency
            np.where(running, 0.0, rows["c1_idle"]),
            rows["c6_inc"],
            dt_running,                                   # app elapsed_s
        )
    )
    acc = _fold(acc, incs)
    finals = acc.tolist()
    fixed_f = _fold(
        fixed, np.broadcast_to(fixed_inc, (commit, fixed_inc.size))
    ).tolist()
    i_f = finals[0:t]
    e_f = finals[t : 2 * t]
    pkg_e_f = finals[3 * t : 3 * t + c]
    ti_f = finals[3 * t + c : 4 * t + c]
    te_f = finals[4 * t + c :]
    b_f = fixed_f[0:t]
    tt_f = fixed_f[t : 2 * t]
    a_f = fixed_f[2 * t : 3 * t]
    m_f = fixed_f[3 * t : 4 * t]
    c0_f = fixed_f[4 * t : 5 * t]
    c1_f = fixed_f[5 * t : 6 * t]
    c6_f = fixed_f[6 * t : 7 * t]
    el_f = fixed_f[7 * t : 8 * t]
    if any_finish:
        r_f = np.where(
            finisher, r_acc[commit - 1] + clamped, acc[2 * t : 3 * t]
        ).tolist()
    else:
        r_f = finals[2 * t : 3 * t]

    if finisher is not None:
        done_last = np.where(running, finisher, True)
    else:
        done_last = ~running
    done_list = done_last.tolist()
    if commit == 1:
        flip_list = (done_last != prev_done).tolist()
    elif commit == length and finisher is not None:
        flip_list = finisher.tolist()
    else:
        # a RAPL cut strictly precedes every budget hit (the window ran
        # past `commit`), so no lane's done state can have flipped
        flip_list = None
    finisher_list = finisher.tolist() if any_finish else None

    # commit: scatter the final values back into the object graph (the
    # tolist() extractions above yield plain Python floats and bools —
    # np.float64 must never leak into state)
    inst_last = inst[commit - 1].tolist()
    ceff_last = ceff_t[commit - 1].tolist()
    power_last = power[commit - 1].tolist()
    pkg_last = pkg[commit - 1].tolist()
    time_final = t_series[commit].tolist()
    factor_list = factor.tolist()
    for idx, (state, cols) in enumerate(zip(states, slices)):
        chip = state.chip
        static = state.static
        base_list = static.base_list
        loads = static.loads
        parked = static.parked
        is_running = state.running
        aperf = chip._aperf_cycles
        mperf = chip._mperf_cycles
        instr = chip._instr_total
        prev = chip._prev_sample_done
        core_energy = chip.energy._core_energy_j
        residencies = chip.cstates._cores
        start = cols.start
        dirty = False
        for local, core in enumerate(chip.cores):
            g = start + local
            cpu = core.core_id
            if is_running[local]:
                load = loads[local]
                assert load is not None
                app = load.app
                app.retired_instructions = r_f[g]
                app.elapsed_s = el_f[g]
                if finisher_list is not None and finisher_list[g]:
                    app.finished = True
                load._factor = factor_list[g]
                load._factor_freq = base_list[local]
                core.effective_mhz = base_list[local]
                core.last_sample = LoadSample(
                    instructions=inst_last[g],
                    busy_fraction=1.0,
                    c_eff=ceff_last[g],
                    done=done_list[g],
                )
                new_state = CState.C0
            else:
                core.effective_mhz = (
                    0.0 if parked[local] else base_list[local]
                )
                core.last_sample = _IDLE_SAMPLE
                new_state = CState.C6 if parked[local] else CState.C1
            core.total_instructions = ti_f[g]
            core.total_energy_j = te_f[g]
            core.total_busy_s = b_f[g]
            core.total_time_s = tt_f[g]
            aperf[cpu] = a_f[g]
            mperf[cpu] = m_f[g]
            instr[cpu] = i_f[g]
            core_energy[cpu] = e_f[g]
            residency = residencies[cpu]
            residency.c0_s = c0_f[g]
            residency.c1_s = c1_f[g]
            residency.c6_s = c6_f[g]
            if new_state is not residency.current:
                residency.transitions += 1
                residency.current = new_state
            prev[cpu] = done_list[g]
            if flip_list is not None and flip_list[g]:
                dirty = True
        chip.last_core_powers_w = power_last[cols]
        chip.last_package_power_w = pkg_last[idx]
        chip.energy._pkg_energy_j = pkg_e_f[idx]
        chip.time_s = time_final[idx]
        if dirty:
            chip._dirty = True
    return commit
