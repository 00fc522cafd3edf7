"""Struct-of-arrays batched chip stepping: the ``array`` engine.

The scalar hot loop (:meth:`repro.sim.chip.Chip.tick`) walks Python
``Core`` objects once per tick.  This module replaces whole *batches* of
ticks with numpy matrix transforms over a ``(ticks, cores)`` layout —
and, for a cluster stepped in lockstep, over all chips stacked along the
core axis into one ``(ticks, nodes x cores)`` batch.

State is held for a *window* (:class:`Window`): one
:func:`advance_chips` call, or a whole :func:`repro.sim.engine.\
run_lockstep` call that spans many deadlines.  Within it the rule is

* everything a chip *produces* lives in the window's arrays from the
  chip's gather on: simulated time, the per-core counters and energy,
  C-state residency, app progress, package energy, the RAPL average and
  cap, and the last tick's samples and powers;
* so do the P-state requests the lockstep daemon pass
  (:mod:`repro.core.gang`) programs (:meth:`Window.program`): they go
  into the gang's request row, and the next batch derives the chip's
  P-state view from it in one vector step — what
  ``Chip._refresh_pstate_view`` would compute, with the turbo ceiling
  taken when the pass first programs the chip (only a ``done`` flip or
  a placement change moves it, and both unload the chip);
* everything else that *steers* a chip stays on its objects: parking,
  load placement and RAPL limits are read from them (through the
  placement generation below) at every batch, and a request written on
  a held chip's objects (its dirty flag) makes the objects the state of
  record again.

A chip is written back (*unloaded*) to its objects at window end, and
earlier only for a consumer that reads the objects: a ``done`` flip
(the next P-state view refresh counts ``Core.active``, which reads the
last sample), a placement change, a request written on its objects,
the fused fallback, and — through :meth:`Window.release` — any per-node
software that runs in place.  The write-back hands over the request row
too: the registers and requests the pass's writes would have set, and
the P-state view and dirty flag its refreshes would have left.  The
chip is gathered again before its next batch.

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
* a batch computes each distinct lane once and copies the result to
  its duplicates: lanes and chips are classed by the raw bytes of every
  input the result depends on (:func:`_distinct`), so each copy is the
  value its own lane would have computed;
* the RAPL limiter's EWMA control loop is a sequential recurrence with
  no closed form, so it is replayed tick-by-tick in the limiter's exact
  operation order — on local floats per chip, or for wide gangs once
  per tick across every limited chip — and kept only for the committed
  prefix;
* ticks the batch cannot take — chips with websearch clusters or
  non-batch loads (time-shared cores, cluster serving cores) or a grid
  with fewer than two points, and a chip whose RAPL cap clips, until
  the cap releases — run the fused fallback
  (:func:`repro.sim.fused.advance_fused`), which walks the limiter
  loop tick by tick and folds the running sums once per stretch.  A
  gap of any length, down to one tick, takes the batch when the batch
  can take it: a fused stretch costs more than one batch at every
  length.

Gathering runs at three cadences:

* **placement rows** (:class:`_Placement`) — load parameters, parked
  masks, AVX caps, the idle-variant roofline and voltage, budgets,
  phase parameters and residency increments, as one ``(fields, cores)``
  block — are cached on the chip and keyed on
  ``Chip._placement_generation``, which only ``assign_load`` and a
  ``park`` that flips the flag bump;
* **frequency rows** — the running-variant roofline, voltage, f_GHz and
  APERF increments, and each chip's fastest unparked base frequency —
  follow the resolved P-state view, which the daemon moves every period
  while placement stays put.  :class:`_Stacked` computes them for a
  whole stacked group in one vector pass over the gang's base row,
  keyed on the chips' view *generations* (not on who cleared the dirty
  flag: a refresh run by the fused loop, which consumes ``_dirty``,
  must still invalidate them), and re-stacks the group's placement
  blocks (one concatenate) only when a placement serial changes;
* **live state** (:class:`_Gang`) is gathered once per chip per window,
  and again only after the chip was unloaded.  The ``running`` mask
  folds in ``app.finished``, which a batch changes only through a
  finish (a ``done`` flip, so an unload follows) and the outside world
  only through a consumer (crash faults fire as one-shots).
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple, Protocol

import numpy as np

from repro.errors import PlatformError, SimulationError
from repro.hw.cstates import EXIT_LATENCY_S, CState
from repro.hw.msr import ENERGY_COUNTER_MASK
from repro.sim import fused, kernel
from repro.sim.core import BatchCoreLoad, IdleLoad, LoadSample
from repro.units import MICROJOULE, clamp

if TYPE_CHECKING:
    from repro.hw.pstate import PStateTable
    from repro.hw.rapl import RaplLimiter
    from repro.sim.chip import Chip

#: candidate-batch ceiling: bounds the work discarded when an event
#: (finish / RAPL bind) cuts a batch short, and the memory of a fused
#: stretch's per-tick records and matrices.
MAX_BATCH_TICKS = 512
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

#: C-state residency codes of the resident ``cstate`` row.
_CSTATES = (CState.C0, CState.C1, CState.C6)
_CODE = {state: code for code, state in enumerate(_CSTATES)}
_C0, _C1, _C6 = range(3)

#: the thirteen per-lane running sums, and the rows of the MSR-side
#: ones (instructions, per-core energy, APERF, MPERF) and of retired
#: work in :func:`_fold`'s block order.
_SUMS = 13
_INSTR, _ENERGY, _RETIRED, _APERF, _MPERF = 0, 2, 4, 7, 8

#: counters at or above this do not convert to a 64-bit integer exactly
#: in numpy; the caller falls back to the objects' own conversion.
_CONVERTIBLE = float(1 << 62)

#: the placement rows, in the order of :attr:`_Placement.block`
_FIELDS = (
    "ref_row", "mem_row", "ipc_row", "stall_row", "rate_idle",
    "factor_idle", "volt_idle", "fghz_idle", "mperf_run", "ceff_row",
    "period_row", "offset_row", "ipc_amp_row", "pow_amp_row", "budget_row",
    "scale_row", "leak_row", "idle_row", "wake_row", "c1_idle", "c6_inc",
    "avx_row", "parked_row", "core_row",
)


def _named(block: "np.ndarray") -> dict[str, "np.ndarray"]:
    """The rows of a placement block by name; the parked mask and the
    core positions as booleans and indices."""
    rows = dict(zip(_FIELDS, block))
    rows["parked_row"] = rows["parked_row"].astype(bool)
    rows["core_row"] = rows["core_row"].astype(np.intp)
    return rows


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
    loop instead (:func:`repro.sim.fused.advance_fused`).
    """
    if chip.clusters:
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
        #: every core's load object as the rows were built
        self.assigned = [core.load for core in chip.cores]
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
        avx_mhz = platform.avx_max_frequency_mhz
        columns = {
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
            # the AVX cap a core's view takes (none for other loads)
            "avx_row": np.asarray(
                [avx_mhz if core.load.uses_avx else math.inf
                 for core in chip.cores],
                dtype=np.float64,
            ),
            "parked_row": parked_row,
            # each core's position within its chip (package-sum layout)
            "core_row": np.arange(n),
        }
        #: every row as one ``(fields, cores)`` block, for stacking
        self.block = np.stack([columns[name] for name in _FIELDS])
        self.rows: dict[str, "np.ndarray"] = _named(self.block)


class _Stacked:
    """The gather rows of one group of chips stacked along the core axis.

    Built once per list of placement serials: the chips' placement
    blocks concatenated (a group of one uses its chip's rows as they
    are) plus the layout every batch of the group shares.  The frequency
    rows are refreshed by :meth:`refresh` whenever any chip's P-state
    view moves — in a lockstep cluster once per daemon period, however
    many batches the period takes.
    """

    def __init__(self, placements: list[_Placement], key: tuple[int, ...]):
        self.key = key
        sizes = [p.n for p in placements]
        if len(placements) == 1:
            self.rows = placements[0].rows
        else:
            self.rows = _named(
                np.concatenate([p.block for p in placements], axis=1)
            )
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
        #: each chip's fastest *unparked* base frequency: the threshold
        #: below which its RAPL cap clips
        self.base_max = np.zeros(len(placements))

    def refresh(
        self, view: tuple[int, ...], base: "np.ndarray", dt: float
    ) -> None:
        """Recompute the frequency rows from ``base``, the resolved base
        frequency of every lane (0.0 when parked), if ``view`` — the
        chips' P-state view generations — has moved."""
        if view == self.view:
            return
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
            "aperf_run": (base * 1e6) * dt,
        }
        self.base_max = np.maximum.reduceat(base, self.starts)
        self.view = view


class Counters(NamedTuple):
    """What ``Chip.flush_counters`` would publish, as ``(chips, cores)``
    arrays (package energy per chip)."""

    aperf: "np.ndarray"
    mperf: "np.ndarray"
    instructions: "np.ndarray"
    #: per-core energy status, micro-joules mod 2**32
    core_uj: "np.ndarray"
    #: package energy status, micro-joules mod 2**32
    pkg_uj: "np.ndarray"
    #: rows whose every counter converted exactly (the others fall
    #: back to the objects' own conversion)
    fits: "np.ndarray"


def _energy_uj(joules: "np.ndarray") -> "np.ndarray":
    """``joules_to_uj(j) % 2**32``: round half to even, then wrap."""
    return (
        np.rint(joules / MICROJOULE).astype(np.int64) & ENERGY_COUNTER_MASK
    ).astype(np.uint64)


class Rider(Protocol):
    """State a window's consumer derives per chip from its arrays (the
    lockstep daemon pass's counter baselines, :mod:`repro.core.gang`)."""

    def write_back(self, index: int) -> None:
        """Hand chip ``index``'s derived state to its objects."""


class Window:
    """The resident state of a set of chips for one stepping window.

    :meth:`advance` steps every chip (the array-stepped ones in one
    stacked gang per tick length, the rest through the fused loop);
    :meth:`release` hands one chip back to its objects for a per-node
    consumer; :meth:`close` writes every chip back.  Between those the
    objects of an array-stepped chip hold its inputs only (see the
    module docstring), so nothing but the window may read its outputs.
    """

    def __init__(self, chips: list["Chip"]):
        self.chips = list(chips)
        self._index = {id(chip): i for i, chip in enumerate(self.chips)}
        self._gangs: dict[float, _Gang] = {}
        #: each array-stepped chip's gang and position in it
        self._where: dict[int, tuple[_Gang, int]] = {}
        self._riders: dict[type, Rider] = {}

    def index(self, chip: "Chip") -> int:
        """``chip``'s position in :attr:`chips`."""
        return self._index[id(chip)]

    def holds(self, chip: "Chip") -> bool:
        """Whether ``chip`` steps in one of the window's array gangs."""
        return id(chip) in self._where

    def time_s(self, chip: "Chip") -> float:
        """``chip``'s simulated time."""
        at = self._where.get(id(chip))
        if at is None or at[0].stale[at[1]]:
            return chip.time_s
        return at[0].times[at[1]]

    def rider(self, kind: type) -> Rider:
        """The window's ``kind(window)``, built on first use; it is told
        of every write-back (:meth:`release`, :meth:`close`)."""
        rider = self._riders.get(kind)
        if rider is None:
            rider = self._riders[kind] = kind(self)
        return rider

    def advance(self, n_ticks: int) -> None:
        """Advance every chip by ``n_ticks``."""
        members: dict[float, list["Chip"]] = {}
        for chip in self.chips:
            at = self._where.get(id(chip))
            # support changes only through a consumer, which leaves the
            # chip stale: resident chips skip the check
            if (
                at is not None and not at[0].stale[at[1]]
            ) or chip_supports_array(chip):
                members.setdefault(chip.tick_s, []).append(chip)
            else:
                fused.advance_fused(chip, n_ticks)
        for tick in [t for t in self._gangs if t not in members]:
            self._drop(self._gangs.pop(tick))
        for tick, chips in members.items():
            gang = self._gangs.get(tick)
            if gang is None or gang.chips != chips:
                if gang is not None:
                    self._drop(gang)
                gang = self._gangs[tick] = _Gang.over(chips)
                for position, chip in enumerate(chips):
                    self._where[id(chip)] = (gang, position)
            gang.advance(n_ticks)

    def counters(self, chips: list["Chip"]) -> Counters:
        """The counters of array-stepped chips of one tick length and
        core count, as ``flush_counters`` converts them."""
        gang = self._where[id(chips[0])][0]
        return gang.counters([self._where[id(chip)][1] for chip in chips])

    def program(
        self,
        chips: list["Chip"],
        cores: "np.ndarray",
        mhz: "np.ndarray",
        values: "np.ndarray",
        address: int,
    ) -> None:
        """Request ``mhz`` on ``cores`` (one row per chip) of
        array-stepped chips of one tick length, as writes of ``values``
        to register ``address`` would: into the window's request row,
        which the next batch steps on and the write-back hands to the
        chips' registers, requests and P-state views."""
        gang = self._where[id(chips[0])][0]
        gang.program(
            [self._where[id(chip)][1] for chip in chips],
            cores, mhz, values, address,
        )

    def release(self, chip: "Chip") -> None:
        """Write ``chip`` back for a consumer of its objects; it is
        gathered again before its next batch.  Flushing the counters
        into the MSR file is the caller's."""
        at = self._where.get(id(chip))
        if at is not None:
            at[0].unload([at[1]])
        index = self._index[id(chip)]
        for rider in self._riders.values():
            rider.write_back(index)

    def close(self) -> None:
        """Write every chip back."""
        for gang in self._gangs.values():
            gang.unload(range(len(gang.chips)))
        for rider in self._riders.values():
            for index in range(len(self.chips)):
                rider.write_back(index)

    def _drop(self, gang: "_Gang") -> None:
        gang.unload(range(len(gang.chips)))
        for chip in gang.chips:
            del self._where[id(chip)]


def advance_chip(chip: "Chip", n_ticks: int) -> None:
    """Advance one chip ``n_ticks`` via the array path (with fallback)."""
    advance_chips([chip], n_ticks)


def advance_chips(
    chips: list["Chip"], n_ticks: int, window: Window | None = None
) -> None:
    """Advance every chip by ``n_ticks``, batching where possible.

    Chips the array path cannot step exactly take the fused loop; the
    rest are stacked along the core axis (grouped by tick length)
    and stepped as one ``(ticks, total cores)`` batch.  ``window`` is an
    open :class:`Window` over ``chips`` whose state carries over from
    the previous call; without one the call is a window of its own,
    written back before it returns.
    """
    if n_ticks < 0:
        raise SimulationError("cannot run negative ticks")
    if window is not None:
        window.advance(n_ticks)
        return
    window = Window(chips)
    try:
        window.advance(n_ticks)
    finally:
        window.close()


def _placement(chip: "Chip") -> _Placement:
    """The chip's placement rows, rebuilt when its placement moved."""
    placement = chip.__dict__.get("_soa_placement")
    if placement is None or placement.generation != chip._placement_generation:
        placement = _Placement(chip)
        chip._soa_placement = placement
    return placement


class _Gang:
    """The resident arrays of one window's chips of one tick length.

    Lanes are the chips' cores stacked in order.  ``blocks`` holds the
    thirteen per-lane running sums in :func:`_fold`'s order and
    ``pkg_energy`` each chip's package energy.  A chip is *stale* while its
    objects are the state of record — before its first gather and after
    :meth:`unload` — and *moved* once a batch has advanced it since its
    gather (an unmoved chip's objects are still current).
    """

    def __init__(self, chips: list["Chip"]):
        self.chips = chips
        self.dt = chips[0].tick_s
        k = len(chips)
        self.sizes = [len(chip.cores) for chip in chips]
        self.starts = list(itertools.accumulate(self.sizes, initial=0))[:-1]
        total = self.total = sum(self.sizes)
        self.placements: list[_Placement | None] = [None] * k
        self.stale = [True] * k
        self.moved = [False] * k
        self.stacked: _Stacked | None = None
        self.blocks = np.zeros((_SUMS, total))
        self.pkg_energy = np.zeros(k)
        # per chip: simulated time, the last tick's package power and
        # the RAPL control state (the primed flags apart)
        self.per_chip = np.zeros((4, k))
        self.time, self.pkg_last, self.rapl_avg, self.rapl_cap = self.per_chip
        self.rapl_primed = np.zeros(k, dtype=bool)
        #: :attr:`time` as Python floats, for the engine's deadlines
        self.times = [0.0] * k
        self.running = np.zeros(total, dtype=bool)
        self.prev_done = np.zeros(total, dtype=bool)
        self.cstate = np.zeros(total, dtype=np.int8)
        self.transitions = np.zeros(total, dtype=np.int64)
        # the last committed tick, per lane (written by every batch,
        # read only by the write-back of a moved chip)
        self.last = np.zeros((5, total))
        (self.inst_last, self.ceff_last, self.power_last, self.eff_last,
         self.factor_last) = self.last
        self.limited = [
            i for i, chip in enumerate(chips) if chip.rapl is not None
        ]
        self.limiters: list["RaplLimiter"] = [
            chips[i].rapl for i in self.limited
        ]
        # the resolved P-state view: every lane's base frequency, and the
        # view generation it reflects per chip (what the chip's own would
        # be after the refreshes the window owes it)
        self.base = np.zeros(total)
        self.view = [-1] * k
        # the lockstep pass's requests on held chips (see program()):
        # the request row and the register values carrying it, the lanes
        # whose write the objects have not seen, and per chip its request
        # register, its turbo ceiling, whether the row holds its inputs,
        # and the view refreshes its objects are owed
        self.request = np.zeros(total)
        self.register = np.zeros(total, dtype=np.int64)
        self.owed = np.zeros(total, dtype=bool)
        self.address = [0] * k
        self.ceiling = np.zeros(k)
        self.known = [False] * k
        self.refreshes = [0] * k
        #: chips whose request row moved since their view was derived
        self.reprogrammed: set[int] = set()
        #: chips whose platform runs fewer simultaneous P-states than it
        #: has cores: their view refresh checks the requests first
        self.checked = {
            i for i, chip in enumerate(chips)
            if chip.platform.simultaneous_pstates < len(chip.cores)
        }

    @staticmethod
    def over(chips: list["Chip"]) -> "_Gang":
        """A gang of ``chips``; a chip stepped alone keeps its own
        (with its stacked rows) from window to window."""
        if len(chips) > 1:
            return _Gang(chips)
        gang = chips[0].__dict__.get("_soa_gang")
        if gang is None:
            gang = chips[0]._soa_gang = _Gang(chips)
        return gang

    def _lanes(self, idx: list[int]) -> "np.ndarray | slice":
        """The lanes of chips ``idx`` (ascending), as an index."""
        if len(idx) == len(self.chips):
            return slice(None)
        return np.concatenate(
            [np.arange(self.starts[i], self.starts[i] + self.sizes[i])
             for i in idx]
        )

    def advance(self, n_ticks: int) -> None:
        remaining = n_ticks
        while remaining > 0:
            stale = self._prepare()
            leader = self._clipping()
            if leader is not None:
                # a RAPL cap is clipping right now and moves every tick
                # while it does: walk that chip until its cap releases
                # (and the others as far), then batch again
                committed = self._fused(remaining, leader)
            else:
                if stale:
                    self._gather(stale)
                committed = _advance_batch(
                    self, min(remaining, MAX_BATCH_TICKS)
                )
            remaining -= committed

    def _fused(self, n_ticks: int, leader: int) -> int:
        """Walk chip ``leader`` through the fused fallback until its RAPL
        cap releases, ``n_ticks`` at most, and every other chip as far;
        returns the ticks run."""
        self.unload(range(len(self.chips)))
        ran = fused.advance_fused(
            self.chips[leader], n_ticks, until_release=True
        )
        for i, chip in enumerate(self.chips):
            if i != leader:
                fused.advance_fused(chip, ran)
        return ran

    def _prepare(self) -> list[int]:
        """Resolve pending P-state views and bring the stacked rows up
        to date for the next batch; returns the stale chips."""
        stale: list[int] = []
        loaded: list[int] = []
        for i, chip in enumerate(self.chips):
            held = self.placements[i]
            if held is None or held.generation != chip._placement_generation:
                if not self.stale[i]:
                    # written back with the placement it was gathered
                    # under, then gathered under the new one
                    self.unload([i])
                self.placements[i] = _placement(chip)
            elif chip._dirty and not self.stale[i]:
                # its objects' view is pending while the window holds it
                # (a request written on them, or a flip not yet resolved
                # when the pass gathered it): the objects take over
                self.unload([i])
            if self.stale[i]:
                stale.append(i)
                # the same lazy refresh the scalar tick runs (a pending
                # dirty flag resolves identically, including raising on
                # invalid simultaneous P-state requests)
                if chip._dirty:
                    chip._refresh_pstate_view()
                if chip._view_generation != self.view[i]:
                    loaded.append(i)
                    self.view[i] = chip._view_generation
        key = tuple(p.serial for p in self.placements)
        stacked = self.stacked
        if stacked is None or stacked.key != key:
            stacked = self.stacked = _Stacked(self.placements, key)
        if loaded:
            self.base[self._lanes(loaded)] = list(
                itertools.chain.from_iterable(
                    self.chips[i]._base_effective_mhz for i in loaded
                )
            )
        if self.reprogrammed:
            self._derive()
        stacked.refresh(tuple(self.view), self.base, self.dt)
        return stale

    def program(
        self,
        idx: list[int],
        cores: "np.ndarray",
        mhz: "np.ndarray",
        values: "np.ndarray",
        address: int,
    ) -> None:
        """Write requests into the request row of gathered chips ``idx``
        (see :meth:`Window.program`); a request that moves marks its
        chip's view for the next batch, as a moved request marks a chip
        dirty."""
        for i in idx:
            if not self.known[i]:
                self._load_inputs(i)
            self.address[i] = address
        at = np.asarray(idx)
        lanes = np.asarray(self.starts)[at][:, None] + cores
        moved = (self.request[lanes] != mhz).any(axis=1)
        self.request[lanes] = mhz
        self.register[lanes] = values
        self.owed[lanes] = True
        self.reprogrammed.update(at[moved].tolist())

    def _load_inputs(self, i: int) -> None:
        """Load chip ``i``'s requests into the request row, and its turbo
        ceiling: only a ``done`` flip or a placement change moves the
        active-core count, and either unloads the chip."""
        chip = self.chips[i]
        start = self.starts[i]
        self.request[start : start + self.sizes[i]] = [
            core.requested_mhz for core in chip.cores
        ]
        self.ceiling[i] = chip.turbo.ceiling_mhz(chip.active_core_count())
        self.known[i] = True

    def _derive(self) -> None:
        """Resolve the P-state view of every reprogrammed chip from its
        request row, as ``Chip._refresh_pstate_view`` would from its
        objects: 0 for a parked core, else ``min(request, ceiling)``
        and then the AVX cap."""
        changed = sorted(self.reprogrammed)
        self.reprogrammed.clear()
        for i in self.checked.intersection(changed):
            self._check_pstates(i)
        stacked = self.stacked
        assert stacked is not None
        rows = stacked.rows
        ceiling = self.ceiling[stacked.chip_of]
        request = self.request
        eff = np.where(ceiling < request, ceiling, request)
        avx = rows["avx_row"]
        eff = np.where(avx < eff, avx, eff)
        eff = np.where(rows["parked_row"], 0.0, eff)
        moved = np.zeros(len(self.chips), dtype=bool)
        moved[changed] = True
        np.copyto(self.base, eff, where=moved[stacked.chip_of])
        for i in changed:
            self.view[i] += 1
            self.refreshes[i] += 1

    def _check_pstates(self, i: int) -> None:
        """``Chip._check_simultaneous_pstates`` on chip ``i``'s request
        row (its active cores do not change while it is held)."""
        chip = self.chips[i]
        start = self.starts[i]
        requests = self.request[start : start + self.sizes[i]].tolist()
        distinct = {
            request for request, core in zip(requests, chip.cores)
            if core.active
        }
        limit = chip.platform.simultaneous_pstates
        if len(distinct) > limit:
            raise PlatformError(
                f"{chip.platform.name} supports only {limit} simultaneous "
                f"P-states; {len(distinct)} distinct frequencies requested "
                f"({sorted(distinct)})"
            )

    def _clipping(self) -> int | None:
        """The first chip whose RAPL cap is below its fastest unparked
        base frequency, so it would clip the very first tick of a batch."""
        assert self.stacked is not None
        base_max = self.stacked.base_max.tolist()
        caps = self.rapl_cap.tolist()
        for i, limiter in zip(self.limited, self.limiters):
            cap = limiter.cap_mhz if self.stale[i] else caps[i]
            if cap < base_max[i]:
                return i
        return None

    def _gather(self, idx: list[int]) -> None:
        """Load chips ``idx`` from their objects."""
        sums: list[list[float]] = [[] for _ in range(_SUMS)]
        (instr, t_instr, energy, t_energy, retired, busy, wall, aperf,
         mperf, c0, c1, c6, elapsed) = sums
        running: list[bool] = []
        prev_done: list[bool] = []
        cstate: list[int] = []
        transitions: list[int] = []
        for i in idx:
            chip = self.chips[i]
            placement = self.placements[i] = _placement(chip)
            instr.extend(chip._instr_total)
            energy.extend(chip.energy._core_energy_j)
            aperf.extend(chip._aperf_cycles)
            mperf.extend(chip._mperf_cycles)
            prev_done.extend(chip._prev_sample_done)
            for load, core in zip(placement.loads, chip.cores):
                if load is not None and not load.app.finished:
                    running.append(True)
                    retired.append(load.app.retired_instructions)
                    elapsed.append(load.app.elapsed_s)
                else:
                    running.append(False)
                    retired.append(0.0)
                    elapsed.append(0.0)
                t_instr.append(core.total_instructions)
                t_energy.append(core.total_energy_j)
                busy.append(core.total_busy_s)
                wall.append(core.total_time_s)
            for res in chip.cstates._cores:
                c0.append(res.c0_s)
                c1.append(res.c1_s)
                c6.append(res.c6_s)
                cstate.append(_CODE[res.current])
                transitions.append(res.transitions)
            self.time[i] = self.times[i] = chip.time_s
            self.pkg_energy[i] = chip.energy._pkg_energy_j
            if chip.rapl is not None:
                (self.rapl_avg[i], self.rapl_cap[i],
                 self.rapl_primed[i]) = chip.rapl.control_state()
            self.stale[i] = False
            self.moved[i] = False
        lanes = self._lanes(idx)
        self.blocks[:, lanes] = sums
        self.running[lanes] = running
        self.prev_done[lanes] = prev_done
        self.cstate[lanes] = cstate
        self.transitions[lanes] = transitions

    def unload(self, idx) -> None:
        """Write chips ``idx`` back to their objects and leave them
        stale."""
        moved = [i for i in idx if not self.stale[i] and self.moved[i]]
        if moved:
            self._scatter(moved)
        for i in idx:
            if self.known[i]:
                self._write_inputs(i)
            self.stale[i] = True
            self.moved[i] = False

    def _write_inputs(self, i: int) -> None:
        """Hand the request row of chip ``i`` to its objects: each
        register and request the pass's writes would have set, and the
        P-state view its refreshes would have left — still dirty if a
        request moved after the last batch."""
        self.known[i] = False
        chip = self.chips[i]
        lanes = slice(self.starts[i], self.starts[i] + self.sizes[i])
        poke = chip.msr.poke
        address = self.address[i]
        for core, owed, mhz, value in zip(
            chip.cores,
            self.owed[lanes].tolist(),
            self.request[lanes].tolist(),
            self.register[lanes].tolist(),
        ):
            if owed:
                poke(core.core_id, address, value)
                core.requested_mhz = mhz
        self.owed[lanes] = False
        if self.refreshes[i]:
            chip._base_effective_mhz[:] = self.base[lanes].tolist()
            chip._view_generation += self.refreshes[i]
            self.refreshes[i] = 0
        if i in self.reprogrammed:
            self.reprogrammed.discard(i)
            chip._dirty = True

    def _scatter(self, idx: list[int]) -> None:
        # tolist() yields plain Python floats, ints and bools —
        # np.float64 must never leak into object state
        lanes = self._lanes(idx)
        (i_f, ti_f, e_f, te_f, r_f, b_f, tt_f, a_f, m_f, c0_f, c1_f,
         c6_f, el_f) = self.blocks[:, lanes].tolist()
        running = self.running[lanes].tolist()
        done = self.prev_done[lanes].tolist()
        cstate = self.cstate[lanes].tolist()
        transitions = self.transitions[lanes].tolist()
        (inst_last, ceff_last, power_last, eff_last,
         factor_last) = self.last[:, lanes].tolist()
        pkg_last, rapl_avg, rapl_cap = self.per_chip[1:, idx].tolist()
        pkg_energy = self.pkg_energy[idx].tolist()
        rapl_primed = self.rapl_primed[idx].tolist()
        g = 0
        for j, i in enumerate(idx):
            chip = self.chips[i]
            start = g
            aperf = chip._aperf_cycles
            mperf = chip._mperf_cycles
            instr_total = chip._instr_total
            prev = chip._prev_sample_done
            core_energy = chip.energy._core_energy_j
            residencies = chip.cstates._cores
            placement = self.placements[i]
            for load, assigned, core in zip(
                placement.loads, placement.assigned, chip.cores
            ):
                cpu = core.core_id
                # a lane ran in every batch since its gather if its app
                # is running, or finished on the last committed tick
                # (the objects do not know yet; a finish unloads)
                if load is not None and (
                    running[g] or not load.app.finished
                ):
                    app = load.app
                    app.retired_instructions = r_f[g]
                    app.elapsed_s = el_f[g]
                    app.finished = not running[g]
                    load._factor = factor_last[g]
                    load._factor_freq = eff_last[g]
                    sample = LoadSample(
                        instructions=inst_last[g],
                        busy_fraction=1.0,
                        c_eff=ceff_last[g],
                        done=done[g],
                    )
                else:
                    sample = _IDLE_SAMPLE
                # a core given another load since its gather keeps the
                # cleared sample `Core.assign` left: the next P-state
                # view counts it active, as the scalar tick does
                if core.load is assigned:
                    core.last_sample = sample
                core.effective_mhz = eff_last[g]
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
                residency.current = _CSTATES[cstate[g]]
                residency.transitions = transitions[g]
                prev[cpu] = done[g]
                g += 1
            chip.last_core_powers_w = power_last[start:g]
            chip.last_package_power_w = pkg_last[j]
            chip.energy._pkg_energy_j = pkg_energy[j]
            chip.time_s = self.times[i]
            if chip.rapl is not None:
                chip.rapl.restore_control_state(
                    (rapl_avg[j], rapl_cap[j], rapl_primed[j])
                )

    def counters(self, idx: list[int]) -> Counters:
        stale = [i for i in idx if self.stale[i]]
        if stale:
            self._gather(stale)
        n = self.sizes[idx[0]]
        at = np.asarray(idx)
        starts = np.asarray([self.starts[i] for i in idx])
        lanes = starts[:, None] + np.arange(n)
        blocks = self.blocks
        aperf = blocks[_APERF][lanes]
        mperf = blocks[_MPERF][lanes]
        instr = blocks[_INSTR][lanes]
        core_j = blocks[_ENERGY][lanes]
        pkg_j = self.pkg_energy[at]
        fits = (
            (aperf < _CONVERTIBLE).all(axis=1)
            & (mperf < _CONVERTIBLE).all(axis=1)
            & (instr < _CONVERTIBLE).all(axis=1)
            & (core_j < _CONVERTIBLE * MICROJOULE).all(axis=1)
            & (pkg_j < _CONVERTIBLE * MICROJOULE)
        )
        # int() truncates the non-negative cycle and instruction sums
        return Counters(
            aperf=aperf.astype(np.uint64),
            mperf=mperf.astype(np.uint64),
            instructions=instr.astype(np.uint64),
            core_uj=_energy_uj(core_j),
            pkg_uj=_energy_uj(pkg_j),
            fits=fits,
        )


def _advance_batch(gang: _Gang, n_ticks: int) -> int:
    """Step every chip of a prepared, gathered gang up to ``n_ticks`` in
    place; returns the ticks committed (at least one: no RAPL cap clips
    the first tick, :meth:`_Gang._clipping`).

    Each distinct lane is computed once (:func:`_distinct`): the phase
    factors have one column per distinct *phase key* (chip start time,
    period, offset, amplitudes), the tick matrices one per distinct lane
    *column* (its phase key and every other input of the candidate and
    power formulas), the package fold one row per distinct chip
    *pattern* (its lanes' columns and its uncore watts), and the running
    sums one lane per distinct lane *state* (its column, wake discount,
    fixed increments, budget and the thirteen seeds).  Equal inputs give
    equal bits, so scattering the results back to every lane and chip is
    exact.
    """
    group = gang.stacked
    assert group is not None
    base_max = group.base_max
    limited = gang.limited
    dt = gang.dt
    total = gang.total
    n_chips = len(gang.chips)
    chip_of = group.chip_of
    rows = group.rows
    freq = group.freq

    running = gang.running
    prev_done = gang.prev_done
    rate0 = np.where(running, freq["rate_run"], rows["rate_idle"])
    factor = np.where(running, freq["factor_run"], rows["factor_idle"])
    volt = np.where(running, freq["volt_run"], rows["volt_idle"])
    fghz = np.where(running, freq["fghz_run"], rows["fghz_idle"])
    any_budget = any(p.has_budget for p in gang.placements)

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
    t0 = gang.time
    t_series = kernel.seeded_accumulate(
        t0, np.full((window, n_chips), dt, dtype=np.float64)
    )

    # a lane's phase key (chip start time, period, offset, amplitudes),
    # the only inputs of its phase factors
    phase = (rows["period_row"], rows["offset_row"], rows["ipc_amp_row"],
             rows["pow_amp_row"])
    phase_rep, lane_phase = _distinct(np.stack((t0[chip_of], *phase)))
    # a lane's column: its phase key and every input of its candidate and
    # power rows
    inputs = (running, rate0, factor, volt, fghz, rows["ceff_row"],
              rows["scale_row"], rows["leak_row"], rows["idle_row"])
    col_rep, lane_col = _distinct(np.stack((*inputs, lane_phase)))
    wake = (gang.cstate == _C6) & running
    dt_running = np.where(running, dt, 0.0)
    # the eight sums whose increment is the same every tick
    fixed = np.stack((
        dt_running,                                   # busy seconds
        np.full(total, dt, dtype=np.float64),         # wall seconds
        np.where(running, freq["aperf_run"], 0.0),
        np.where(running, rows["mperf_run"], 0.0),
        dt_running,                                   # C0 residency
        np.where(running, 0.0, rows["c1_idle"]),
        rows["c6_inc"],
        dt_running,                                   # app elapsed_s
    ))
    # a lane's state: its column and whatever else its sums and its
    # finish take (seeds, fixed increments, wake discount, budget)
    state_rep, lane_state = _distinct(np.concatenate((
        gang.blocks,
        fixed,
        np.stack((lane_col, wake, rows["wake_row"], rows["budget_row"])),
    )))
    state_col = lane_col[state_rep]
    (run_c, rate_c, factor_c, volt_c, fghz_c, ceff_c, scale_c, leak_c,
     idle_c) = (row[col_rep] for row in inputs)
    ipc_u, pow_u = kernel.phase_factors(
        t_series[:window, chip_of[phase_rep]],
        *(row[phase_rep] for row in phase),
    )
    col_phase = lane_phase[col_rep]
    cand = np.where(
        run_c, kernel.retired_rows(rate_c, ipc_u[:, col_phase], dt), 0.0
    )
    # the candidate work of each state
    cand_s = cand[:, state_col]
    run_s = running[state_rep]

    # event split, part 2: with budgets in play, scan for the earliest
    # finishing tick; the batch runs through it inclusive (behaviour
    # changes the tick after)
    if any_budget:
        budget_s = rows["budget_row"][state_rep]
        r_acc = kernel.seeded_accumulate(
            gang.blocks[_RETIRED, state_rep], cand_s
        )
        hits = (cand_s >= (budget_s - r_acc[:window])) & run_s
        first_hit = kernel.first_hit_rows(hits, window)
        done0 = np.where(running, first_hit[lane_state] == 0, True)
        if bool((done0 != prev_done).any()):
            length = 1
        else:
            length = min(window, int(first_hit.min()) + 1)
    else:
        first_hit = None
        length = window

    # power matrix over the candidate window, and every chip's package
    # power from one zero-padded sequential fold per chip pattern: the
    # chip's lane columns in core order (-1 past its last core, where
    # the fold pads) and its uncore watts
    ceff_t = (ceff_c * factor_c) * pow_u[:length, col_phase]
    power = kernel.power_rows(
        ceff_t, volt_c, fghz_c, scale_c, leak_c, idle_c, run_c
    )
    width = group.width
    layout = np.full(n_chips * width, -1, dtype=np.intp)
    layout[group.slots] = lane_col
    layout = layout.reshape(n_chips, width)
    pat_rep, chip_pat = _distinct(np.vstack((layout.T, group.uncore)))
    pat_cols = layout[pat_rep].ravel()
    pat_slots = np.flatnonzero(pat_cols >= 0)
    pkg = kernel.package_rows(
        power[:, pat_cols[pat_slots]], pat_slots, len(pat_rep), width,
        group.uncore[pat_rep],
    )[:, chip_pat]

    # RAPL: replay the EWMA/cap recurrence; a tick is only valid while
    # the cap clears the fastest unparked base frequency (otherwise
    # clip() would have altered effective MHz and every candidate
    # matrix after it).  The caller's clip check guarantees tick 0 is.
    commit = length
    if len(limited) >= RAPL_GANG_MIN_CHIPS:
        commit, avg_hist, cap_hist = _replay_rapl_gang(
            gang.limiters,
            (gang.rapl_avg[limited], gang.rapl_cap[limited],
             gang.rapl_primed[limited]),
            pkg[:, limited],
            dt,
            base_max[limited],
            length,
        )
        gang.rapl_avg[limited] = avg_hist[commit]
        gang.rapl_cap[limited] = cap_hist[commit]
        # commit >= 1: every limiter has observed a tick
        gang.rapl_primed[limited] = True
    elif limited:
        pkg_cols = pkg.T.tolist()
        tops = base_max.tolist()
        states = list(zip(
            gang.rapl_avg.tolist(),
            gang.rapl_cap.tolist(),
            gang.rapl_primed.tolist(),
        ))
        replays: list[tuple[int, int, tuple[float, float, bool]]] = []
        for i, limiter in zip(limited, gang.limiters):
            observed, final = _replay_rapl(
                limiter, states[i], pkg_cols[i], dt, tops[i], length
            )
            replays.append((i, observed, final))
            commit = min(commit, observed)
        for (i, observed, final), limiter in zip(replays, gang.limiters):
            if observed != commit:
                # a shorter global prefix committed: re-derive the
                # control state after exactly the committed ticks
                _, final = _replay_rapl(
                    limiter, states[i], pkg_cols[i], dt, tops[i], commit
                )
            gang.rapl_avg[i], gang.rapl_cap[i], gang.rapl_primed[i] = final

    # the instruction view the counters see is the candidate work except
    # on two ticks: the finishing tick is clamped to the app's remaining
    # budget, then (order matters) the first tick after a C6 exit is
    # discounted by the wake-up efficiency
    last = commit - 1
    if first_hit is not None:
        finisher = run_s & (first_hit == last)
        any_finish = bool(finisher.any())
    else:
        finisher = None
        any_finish = False
    wake_s = wake[state_rep]
    any_wake = bool(wake_s.any())
    inst = cand_s
    if any_finish or any_wake:
        inst = cand_s[:commit].copy()
    if any_finish:
        clamped = np.maximum(budget_s - r_acc[last], 0.0)
        inst[last] = np.where(finisher, clamped, cand_s[last])
    if any_wake:
        inst[0] = np.where(
            wake_s & (inst[0] > 0.0),
            inst[0] * rows["wake_row"][state_rep],
            inst[0],
        )

    # the last committed tick, kept for the write-back
    gang.inst_last[:] = inst[last, lane_state]
    gang.ceff_last[:] = ceff_t[last, lane_col]
    gang.power_last[:] = power[last, lane_col]
    gang.pkg_last[:] = pkg[last]
    # the view resolved at batch start; nothing refreshes it mid-batch
    gang.eff_last[:] = gang.base
    np.copyto(gang.factor_last, factor, where=running)
    # per-core and package energy increments: the power rows scaled by
    # the tick (the same `power * dt` product)
    energy = power[:commit, state_col]
    energy *= dt
    pkg_energy = pkg[:commit] * dt

    # the resident running sums (the MSR-side and Core-side blocks take
    # the same increments from different seeds; the fixed sums take the
    # same increment every tick), one lane per state
    n_states = len(state_rep)
    acc = np.concatenate(
        (gang.blocks[:, state_rep].ravel(), gang.pkg_energy)
    )
    _fold(
        acc, inst, energy, cand_s, fixed[:, state_rep].ravel(), pkg_energy
    )
    sums = acc[: _SUMS * n_states].reshape(_SUMS, n_states)
    if any_finish:
        sums[_RETIRED] = np.where(
            finisher, r_acc[last] + clamped, sums[_RETIRED]
        )
    gang.blocks[:] = sums[:, lane_state]
    gang.pkg_energy[:] = acc[sums.size :]

    if finisher is not None:
        # per lane from here on
        finisher = finisher[lane_state]
        done_last = np.where(running, finisher, True)
    else:
        done_last = ~running
    if commit == 1:
        flips = done_last != prev_done
    elif commit == length and finisher is not None:
        flips = finisher
    else:
        # a RAPL cut strictly precedes every budget hit (the window ran
        # past `commit`), so no lane's done state can have flipped
        flips = None
    prev_done[:] = done_last
    state = np.where(running, _C0, np.where(rows["parked_row"], _C6, _C1))
    gang.transitions += state != gang.cstate
    gang.cstate[:] = state
    if any_finish:
        running &= ~finisher
    gang.time[:] = t_series[commit]
    gang.times = gang.time.tolist()
    gang.moved = [True] * n_chips
    if flips is not None and bool(flips.any()):
        # a load finishing (or restarting) changes the active count and
        # hence the turbo ceiling next tick; the view refresh reads it
        # from the objects, so the flipped chips go back to them now
        flipped = np.flatnonzero(
            np.logical_or.reduceat(flips, gang.starts)
        ).tolist()
        gang.unload(flipped)
        for i in flipped:
            gang.chips[i]._dirty = True
    if any_finish:
        # only the write-back tells a finished app so (_Gang._scatter),
        # and a finish need not flip done: a core woken from park whose
        # app finishes on its first tick reported done before it too
        gang.unload(np.flatnonzero(
            np.logical_or.reduceat(finisher, gang.starts)
        ).tolist())
    return commit


def _distinct(key: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
    """Class the columns of the ``(fields, n)`` float64 matrix ``key``:
    returns one member column of each class and every column's class.

    Columns are compared as raw bytes (a void view), never as floats, so
    ``-0.0`` and ``+0.0``, and NaNs of different payloads, stay apart:
    two columns share a class only if every field is the same bit
    pattern, so any member's result is every member's.
    """
    rows = np.ascontiguousarray(key.T, dtype=np.float64)
    _, member, inverse = np.unique(
        rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel(),
        return_index=True,
        return_inverse=True,
    )
    return member, inverse


def _replay_rapl(
    limiter: "RaplLimiter",
    state: tuple[float, float, bool],
    pkg_list: list[float],
    dt: float,
    base_max: float,
    max_ticks: int,
) -> tuple[int, tuple[float, float, bool]]:
    """Run the limiter recurrence forward on local floats.

    Replicates :meth:`RaplLimiter.observe` operation-for-operation
    (EWMA update, proportional step, cap clamp) from the control
    ``state`` ``(average, cap, primed)`` — the resident one, not the
    limiter's — without per-tick method and attribute dispatch; the
    limit and loop constants come from ``limiter``.  Stops before the
    first tick whose pre-observe cap falls below ``base_max`` — from
    that tick on ``clip()`` would alter effective frequencies and
    invalidate the batch's candidate matrices.  Returns the number of
    valid ticks and the control state after them; the caller keeps the
    state only for the globally committed prefix.
    """
    avg, cap, primed = state
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
    state: tuple["np.ndarray", "np.ndarray", "np.ndarray"],
    pkg: "np.ndarray",
    dt: float,
    base_max: "np.ndarray",
    max_ticks: int,
) -> tuple[int, "np.ndarray", "np.ndarray"]:
    """:func:`_replay_rapl` for many limiters at once, one tick per step.

    ``state`` holds the limiters' average, cap and primed flag as
    arrays, ``pkg`` is the ``(ticks, limiters)`` package power matrix and
    ``base_max`` each chip's fastest unparked base frequency.  Every
    limiter takes the same elementwise operations as in
    :func:`_replay_rapl`, so each lane is bit-identical to it.  The
    replay stops before the first tick at which *any* cap is below its
    chip's base maximum — the gang commits one common prefix anyway.
    Returns that tick count and the ``(ticks + 1, limiters)`` average
    and cap histories (row ``k`` is the state after ``k`` ticks), so the
    caller can keep whichever prefix commits.  Nothing is mutated here.
    """
    avg, cap, primed = state
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
    instr: "np.ndarray",
    energy: "np.ndarray",
    retired: "np.ndarray",
    fixed: "np.ndarray",
    pkg_energy: "np.ndarray",
) -> "np.ndarray":
    """The seeded sums ``acc`` after every committed tick, in tick order.

    ``acc`` is laid out MSR instructions | Core instruction totals |
    RAPL per-core energy | Core energy totals | app retired work | the
    eight fixed-increment sums | package energy, ``t`` lanes per block
    (``8·t`` for the fixed sums, one per chip for package energy).
    Tick ``k`` of the ``len(energy)`` committed ones adds ``instr[k]``
    to both instruction blocks (when ``instr`` is ``2·t`` wide, its
    halves to the MSR and the Core block), ``energy[k]`` to both energy
    blocks, ``retired[k]`` to retired work, ``pkg_energy[k]`` to package
    energy, and to the fixed sums ``fixed[k]`` — or ``fixed`` itself
    when it is one ``(8·t,)`` row, the same increment every tick.

    Each element is one chained ``x += inc``, bit-identical to the
    scalar loop whichever way it is iterated.  A group narrower than
    :data:`STACKED_FOLD_MAX_LANES` (a single chip, a small cluster)
    copies the increments into a stacked ``(sums, ticks + 1)`` matrix
    and runs one sequential ``np.add.accumulate`` along it in place,
    entering numpy a fixed number of times whatever the window.  A
    wider gang folds in place, tick by tick, straight from the
    matrices, and never builds a ``(ticks × sums)`` increment matrix.
    Either way ``acc`` is updated in place and returned.
    """
    commit, t = energy.shape
    width = instr.shape[1]
    if t < STACKED_FOLD_MAX_LANES:
        stacked = np.empty((acc.size, commit + 1), dtype=np.float64)
        stacked[:, 0] = acc
        incs = stacked[:, 1:]
        incs[0:width] = instr[:commit].T
        if width == t:
            incs[t : 2 * t] = incs[0:t]
        incs[2 * t : 3 * t] = energy.T
        incs[3 * t : 4 * t] = incs[2 * t : 3 * t]
        incs[4 * t : 5 * t] = retired[:commit].T
        if fixed.ndim == 2:
            incs[5 * t : 13 * t] = fixed[:commit].T
        else:
            incs[5 * t : 13 * t] = fixed[:, None]
        incs[13 * t :] = pkg_energy.T
        np.add.accumulate(stacked, axis=1, out=stacked)
        acc[:] = stacked[:, -1]
        return acc
    # the instruction and energy blocks are (2, lanes) views, one row
    # per seed side
    instr_acc = acc[0 : 2 * t].reshape(2, t)
    instr_rows = instr.reshape(len(instr), width // t, t)
    core_e = acc[2 * t : 4 * t].reshape(2, t)
    retired_acc = acc[4 * t : 5 * t]
    fixed_acc = acc[5 * t : 13 * t]
    fixed_rows = (
        fixed if fixed.ndim == 2 else np.broadcast_to(fixed, (commit, 8 * t))
    )
    pkg_e = acc[13 * t :]
    for k in range(commit):
        instr_acc += instr_rows[k]
        core_e += energy[k]
        retired_acc += retired[k]
        fixed_acc += fixed_rows[k]
        pkg_e += pkg_energy[k]
    return acc
