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

Gathering runs at three cadences:

* **placement rows** (:class:`_Placement`) — load parameters, parked
  masks, the idle-variant roofline and voltage, budgets, phase keys and
  residency increments — are cached on the chip and keyed on
  ``Chip._placement_generation``, which only ``assign_load`` and a
  ``park`` that flips the flag bump;
* **frequency rows** — the running-variant roofline, voltage, f_GHz and
  APERF increments, and each chip's fastest unparked base frequency —
  follow the resolved P-state view, which the daemon moves every period
  while placement stays put.  :class:`_Stacked` computes them for a
  whole stacked group in one vector pass, keyed on the chips' view
  *generations* (not on who cleared the dirty flag: a refresh run by
  the fused loop, which consumes ``_dirty``, must still invalidate
  them), and re-concatenates the group's placement rows only when a
  placement serial changes;
* **live state** (:class:`ChipArrayState`) is re-read every batch: the
  ``running`` mask, which folds in ``app.finished`` (the one mutation
  that arrives from outside the chip, e.g. crash faults), accumulator
  seeds and the RAPL control state.
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
#: groups with fewer lanes than this fold their sums with one in-place
#: ``np.add.accumulate`` over a stacked ``(sums, ticks + 1)`` matrix,
#: wider ones tick by tick in place (:func:`_fold`).  The stacked copy
#: costs per element and the tick loop per numpy call; they cost the
#: same at about 64 lanes for 8- to 512-tick batches (2-vCPU Xeon,
#: numpy 2.4).
STACKED_FOLD_MAX_LANES = 64

#: per-table cached grid arrays for the vectorized V/f interpolation
#: (PStateTable is an immutable value type with content hashing).
_GRID_CACHE: dict["PStateTable", tuple["np.ndarray", "np.ndarray"]] = {}

#: shared idle sample: LoadSample is frozen, so idle/parked lanes can
#: all reference one instance (consumers compare fields, not identity).
_IDLE_SAMPLE = LoadSample(0.0, 0.0, 0.0, done=True)

_PLACEMENT_SERIAL = itertools.count()

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


class _Placement:
    """One chip's gather rows that only its load placement changes.

    Everything here is a pure function of which load sits on which core,
    which cores are parked, and the platform constants.  Rows derived
    from the resolved frequency come in a *running* and an *idle*
    variant (the scalar loop evaluates the same elementwise formulas at
    ``eff = base`` for busy lanes and ``eff = reference`` for idle and
    parked lanes); the idle variants live here, the running ones in
    :class:`_Stacked`, and the per-batch step selects between them with
    the live ``running`` mask, which keeps the precomputation
    bit-identical to evaluating on the masked frequency row directly.
    """

    def __init__(self, chip: "Chip"):
        self.serial = next(_PLACEMENT_SERIAL)
        self.generation = chip._placement_generation
        platform = chip.platform
        power = platform.power
        dt = chip.tick_s
        self.pstates = platform.pstates
        grid_f, grid_v = _grid_arrays(platform.pstates)
        self.n = len(chip.cores)
        self.uncore = power.uncore_watts
        wake_eff = max(0.0, 1.0 - EXIT_LATENCY_S[CState.C6] / dt)

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
        ref_row = np.asarray(ref, dtype=np.float64)
        mem_row = np.asarray(mem, dtype=np.float64)
        ipc_row = np.asarray(base_ipc, dtype=np.float64)
        stall_row = np.asarray(stall, dtype=np.float64)
        rate_idle, factor_idle = kernel.roofline_rows(
            ref_row, ref_row, mem_row, ipc_row, stall_row
        )
        parked_row = np.asarray(parked, dtype=bool)
        tsc_scaled = (chip._tsc_mhz * 1e6) * dt
        self.rows: dict[str, "np.ndarray"] = {
            "ref_row": ref_row,
            "mem_row": mem_row,
            "ipc_row": ipc_row,
            "stall_row": stall_row,
            "rate_idle": rate_idle,
            "factor_idle": factor_idle,
            "volt_idle": kernel.voltage_rows(ref_row, grid_f, grid_v),
            "fghz_idle": ref_row / 1000.0,
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
            "wake_row": np.full(n, wake_eff, dtype=np.float64),
            "c1_idle": np.where(parked_row, 0.0, dt),
            "c6_inc": np.where(parked_row, dt, 0.0),
            # each core's position within its chip (package-sum layout)
            "core_row": np.arange(n),
        }
        #: this chip's group when it is stepped alone (built on first use)
        self.solo: _Stacked | None = None


class _Stacked:
    """The gather rows of one group of chips stacked along the core axis.

    Built once per list of placement serials: the chips' placement rows
    concatenated (a group of one uses its chip's rows as they are) plus
    the layout every batch of the group shares.  The frequency rows are
    refreshed by :meth:`refresh` whenever any chip's view generation
    moves — in a lockstep cluster once per daemon period, however many
    batches the period takes.
    """

    def __init__(self, placements: list[_Placement], key: tuple[int, ...]):
        self.key = key
        sizes = [p.n for p in placements]
        if len(placements) == 1:
            self.rows = placements[0].rows
        else:
            self.rows = {
                name: np.concatenate([p.rows[name] for p in placements])
                for name in placements[0].rows
            }
        self.total = sum(sizes)
        self.starts = list(itertools.accumulate(sizes, initial=0))[:-1]
        self.chip_of = np.repeat(np.arange(len(placements)), sizes)
        self.width = max(sizes)
        self.slots = self.chip_of * self.width + self.rows["core_row"]
        self.uncore = np.asarray(
            [p.uncore for p in placements], dtype=np.float64
        )
        # V/f interpolation runs once per distinct grid (a gang may mix
        # platforms), over that grid's lanes
        members: dict["PStateTable", list[int]] = {}
        for index, p in enumerate(placements):
            members.setdefault(p.pstates, []).append(index)
        self.grids = [
            (
                *_grid_arrays(table),
                np.flatnonzero(np.isin(self.chip_of, chips)),
            )
            for table, chips in members.items()
        ]
        self.view: tuple[int, ...] | None = None
        self.freq: dict[str, "np.ndarray"] = {}
        #: each chip's fastest *unparked* base frequency (parked cores
        #: carry base 0.0): the threshold below which its RAPL cap clips
        self.base_max: list[float] = []

    def refresh(self, states: list["ChipArrayState"]) -> None:
        """Recompute the frequency rows if any chip's view has moved."""
        view = tuple(st.chip._view_generation for st in states)
        if view == self.view:
            return
        base = np.fromiter(
            itertools.chain.from_iterable(
                st.chip._base_effective_mhz for st in states
            ),
            dtype=np.float64,
            count=self.total,
        )
        rows = self.rows
        ref = rows["ref_row"]
        # running lanes always have base > 0 (parked lanes are the only
        # zero entries); guard the running view against the division
        # anyway — those lanes are masked out of every use
        eff = np.where(base > 0.0, base, ref)
        rate, factor = kernel.roofline_rows(
            eff, ref, rows["mem_row"], rows["ipc_row"], rows["stall_row"]
        )
        volt = np.empty_like(eff)
        for grid_f, grid_v, lanes in self.grids:
            volt[lanes] = kernel.voltage_rows(eff[lanes], grid_f, grid_v)
        self.freq = {
            "rate_run": rate,
            "factor_run": factor,
            "volt_run": volt,
            "fghz_run": base / 1000.0,
            "aperf_run": (base * 1e6) * states[0].dt,
        }
        self.base_max = np.maximum.reduceat(base, self.starts).tolist()
        self.view = view


class ChipArrayState:
    """One chip's per-batch gather: cached placement rows + live masks.

    Built at the start of every batch; the constructor performs the same
    lazy P-state refresh the scalar tick would (so a pending dirty flag
    resolves identically, including raising on invalid simultaneous
    P-state requests).
    """

    def __init__(self, chip: "Chip"):
        if chip._dirty or not chip.dirty_caching:
            chip._refresh_pstate_view()
        placement = chip.__dict__.get("_soa_placement")
        if (
            placement is None
            or placement.generation != chip._placement_generation
        ):
            placement = _Placement(chip)
            chip._soa_placement = placement
        self.chip = chip
        self.placement = placement
        self.dt = chip.tick_s
        self.t0 = chip.time_s

        loads = placement.loads
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


#: the last gang's stacked rows, so lockstep cluster batches rebuild
#: them only when a chip's placement changes (a chip stepped alone keeps
#: its own, :attr:`_Placement.solo`).
_GROUP: _Stacked | None = None


def _group_rows(states: list[ChipArrayState]) -> _Stacked:
    """The batch's stacked rows, with frequency rows for the live view."""
    global _GROUP
    if len(states) == 1:
        placement = states[0].placement
        group = placement.solo
        if group is None:
            group = _Stacked([placement], (placement.serial,))
            placement.solo = group
    else:
        key = tuple(st.placement.serial for st in states)
        group = _GROUP
        if group is None or group.key != key:
            group = _Stacked([st.placement for st in states], key)
            # repro-lint: disable=shared-state-race — per-process memo keyed by placement serials and refreshed on view generations; each worker rebuilds identical rows from its own chips, and nothing reads it across processes
            _GROUP = group
    group.refresh(states)
    return group


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


def _fold(
    acc: "np.ndarray",
    cand: "np.ndarray",
    inst_rows: dict[int, "np.ndarray"],
    energy: "np.ndarray",
    pkg_energy: "np.ndarray",
    fixed_inc: "np.ndarray",
) -> "np.ndarray":
    """The seeded sums ``acc`` after every committed tick, in tick order.

    ``acc`` is laid out MSR instructions | Core instruction totals |
    RAPL per-core energy | Core energy totals | app retired work | the
    eight fixed-increment sums | package energy, ``t`` lanes per block
    (``8·t`` for the fixed sums, one per chip for package energy).
    Tick ``k`` of the ``len(energy)`` committed ones adds
    ``inst_rows.get(k, cand[k])`` to both instruction blocks,
    ``energy[k]`` to both energy blocks, ``cand[k]`` to retired work,
    ``fixed_inc`` to the fixed sums and ``pkg_energy[k]`` to package
    energy.

    Each element is one chained ``x += inc``, bit-identical to the
    scalar loop whichever way it is iterated.  A group narrower than
    :data:`STACKED_FOLD_MAX_LANES` (a single chip, a small cluster)
    copies the increments into a stacked ``(sums, ticks + 1)`` matrix
    and runs one sequential ``np.add.accumulate`` along it in place,
    entering numpy a fixed number of times whatever the window.  A
    wider gang folds in place, tick by tick, straight from the
    matrices, and never builds a ``(ticks × sums)`` increment matrix.
    ``acc`` may be updated in place.
    """
    commit, t = energy.shape
    if t < STACKED_FOLD_MAX_LANES:
        stacked = np.empty((acc.size, commit + 1), dtype=np.float64)
        stacked[:, 0] = acc
        incs = stacked[:, 1:]
        incs[0:t] = cand[:commit].T
        for k, row in inst_rows.items():
            incs[0:t, k] = row
        incs[t : 2 * t] = incs[0:t]
        incs[2 * t : 3 * t] = energy.T
        incs[3 * t : 4 * t] = incs[2 * t : 3 * t]
        incs[4 * t : 5 * t] = cand[:commit].T
        incs[5 * t : 13 * t] = fixed_inc[:, None]
        incs[13 * t :] = pkg_energy.T
        return np.add.accumulate(stacked, axis=1, out=stacked)[:, -1]
    # the instruction and energy blocks are (2, lanes) views, one row
    # per seed side
    instr = acc[0 : 2 * t].reshape(2, t)
    core_e = acc[2 * t : 4 * t].reshape(2, t)
    retired = acc[4 * t : 5 * t]
    fixed = acc[5 * t : 13 * t]
    pkg_e = acc[13 * t :]
    for k in range(commit):
        instr += inst_rows.get(k, cand[k])
        core_e += energy[k]
        retired += cand[k]
        fixed += fixed_inc
        pkg_e += pkg_energy[k]
    return acc


def _advance_batch(states: list[ChipArrayState], n_ticks: int) -> int:
    """Step every gathered chip up to ``n_ticks``; returns ticks committed.

    Returns 0 (committing nothing, building no tick matrix) only when a
    RAPL cap already clips the very first tick — the caller then takes
    the fused loop.
    """
    group = _group_rows(states)
    for state, top in zip(states, group.base_max):
        limiter = state.chip.rapl
        if limiter is not None and limiter.cap_mhz < top:
            return 0
    dt = states[0].dt
    total = group.total
    n_chips = len(states)
    chip_of = group.chip_of
    rows = group.rows
    freq = group.freq

    running = _stack_dyn([st.running_arr for st in states])
    prev_done = _stack_dyn(
        [
            np.asarray(st.chip._prev_sample_done, dtype=bool)
            for st in states
        ]
    )
    rate0 = np.where(running, freq["rate_run"], rows["rate_idle"])
    factor = np.where(running, freq["factor_run"], rows["factor_idle"])
    any_budget = any(st.placement.has_budget for st in states)

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
    volt = np.where(running, freq["volt_run"], rows["volt_idle"])
    fghz = np.where(running, freq["fghz_run"], rows["fghz_idle"])
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
    pkg = kernel.package_rows(
        power, group.slots, n_chips, group.width, group.uncore
    )

    # RAPL: replay the EWMA/cap recurrence; a tick is only valid while
    # the cap clears the fastest unparked base frequency (otherwise
    # clip() would have altered effective MHz and every candidate
    # matrix after it).  The early return above guarantees tick 0 is.
    limited = [i for i, st in enumerate(states) if st.chip.rapl is not None]
    base_max = group.base_max
    commit = length
    if len(limited) >= RAPL_GANG_MIN_CHIPS:
        limiters = [states[i].chip.rapl for i in limited]
        commit, avg_hist, cap_hist = _replay_rapl_gang(
            limiters,
            pkg[:, limited],
            dt,
            np.asarray([base_max[i] for i in limited], dtype=np.float64),
            length,
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
                states[i].chip.rapl, pkg_cols[i], dt, base_max[i], length
            )
            replays.append((i, observed, final))
            commit = min(commit, observed)
        for i, observed, final in replays:
            limiter = states[i].chip.rapl
            if observed != commit:
                # a shorter global prefix committed: re-derive the
                # control state after exactly the committed ticks
                _, final = _replay_rapl(
                    limiter, pkg_cols[i], dt, base_max[i], commit
                )
            limiter.restore_control_state(final)

    # the instruction view the counters see is the candidate work except
    # on two ticks: the finishing tick is clamped to the app's remaining
    # budget, then (order matters) the first tick after a C6 exit is
    # discounted by the wake-up efficiency
    t = total
    inst_rows: dict[int, "np.ndarray"] = {}
    if first_hit is not None:
        finisher = running & (first_hit == commit - 1)
        any_finish = bool(finisher.any())
    else:
        finisher = None
        any_finish = False
    if any_finish:
        clamped = np.maximum(budget_row - r_acc[commit - 1], 0.0)
        inst_rows[commit - 1] = np.where(finisher, clamped, cand[commit - 1])
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
        first = inst_rows.get(0, cand[0])
        inst_rows[0] = np.where(
            wake & (first > 0.0), first * rows["wake_row"], first
        )
    inst_last = inst_rows.get(commit - 1, cand[commit - 1]).tolist()
    power_last = power[commit - 1].tolist()
    pkg_last = pkg[commit - 1].tolist()
    # per-core and package energy increments: the power rows scaled by
    # the tick in place (the same `power * dt` product)
    energy = power[:commit]
    energy *= dt
    pkg_energy = pkg[:commit] * dt

    # seeded running sums, laid out as `_fold` takes them (the MSR-side
    # and Core-side blocks take the same increments from different
    # seeds; the eight fixed sums take the same increment every tick)
    seeds: list[float] = []
    for st in states:
        seeds.extend(st.chip._instr_total)
    for st in states:
        seeds.extend(core.total_instructions for core in st.chip.cores)
    for st in states:
        seeds.extend(st.chip.energy._core_energy_j)
    for st in states:
        seeds.extend(core.total_energy_j for core in st.chip.cores)
    for st in states:
        seeds.extend(st.retired0)
    for st in states:
        seeds.extend(core.total_busy_s for core in st.chip.cores)
    for st in states:
        seeds.extend(core.total_time_s for core in st.chip.cores)
    for st in states:
        seeds.extend(st.chip._aperf_cycles)
    for st in states:
        seeds.extend(st.chip._mperf_cycles)
    for st in states:
        seeds.extend(r.c0_s for r in st.chip.cstates._cores)
    for st in states:
        seeds.extend(r.c1_s for r in st.chip.cstates._cores)
    for st in states:
        seeds.extend(r.c6_s for r in st.chip.cstates._cores)
    for st in states:
        seeds.extend(st.elapsed0)
    seeds.extend(st.chip.energy._pkg_energy_j for st in states)
    dt_running = np.where(running, dt, 0.0)
    fixed_inc = np.concatenate(
        (
            dt_running,                                   # busy seconds
            np.full(t, dt, dtype=np.float64),             # wall seconds
            np.where(running, freq["aperf_run"], 0.0),
            np.where(running, rows["mperf_run"], 0.0),
            dt_running,                                   # C0 residency
            np.where(running, 0.0, rows["c1_idle"]),
            rows["c6_inc"],
            dt_running,                                   # app elapsed_s
        )
    )
    acc = _fold(
        np.asarray(seeds, dtype=np.float64),
        cand,
        inst_rows,
        energy,
        pkg_energy,
        fixed_inc,
    )
    finals = acc.tolist()
    i_f = finals[0:t]
    ti_f = finals[t : 2 * t]
    e_f = finals[2 * t : 3 * t]
    te_f = finals[3 * t : 4 * t]
    b_f = finals[5 * t : 6 * t]
    tt_f = finals[6 * t : 7 * t]
    a_f = finals[7 * t : 8 * t]
    m_f = finals[8 * t : 9 * t]
    c0_f = finals[9 * t : 10 * t]
    c1_f = finals[10 * t : 11 * t]
    c6_f = finals[11 * t : 12 * t]
    el_f = finals[12 * t : 13 * t]
    pkg_e_f = finals[13 * t :]
    if any_finish:
        r_f = np.where(
            finisher, r_acc[commit - 1] + clamped, acc[4 * t : 5 * t]
        ).tolist()
    else:
        r_f = finals[4 * t : 5 * t]

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
    ceff_last = ceff_t[commit - 1].tolist()
    time_final = t_series[commit].tolist()
    factor_list = factor.tolist()
    for idx, (state, start) in enumerate(zip(states, group.starts)):
        chip = state.chip
        placement = state.placement
        # the view resolved at gather time; nothing refreshes it mid-batch
        base_list = chip._base_effective_mhz
        loads = placement.loads
        parked = placement.parked
        is_running = state.running
        aperf = chip._aperf_cycles
        mperf = chip._mperf_cycles
        instr_total = chip._instr_total
        prev = chip._prev_sample_done
        core_energy = chip.energy._core_energy_j
        residencies = chip.cstates._cores
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
            instr_total[cpu] = i_f[g]
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
        chip.last_core_powers_w = power_last[start : start + placement.n]
        chip.last_package_power_w = pkg_last[idx]
        chip.energy._pkg_energy_j = pkg_e_f[idx]
        chip.time_s = time_final[idx]
        if dirty:
            chip._dirty = True
    return commit
