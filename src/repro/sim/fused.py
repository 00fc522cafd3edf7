"""The array engine's per-tick fallback: a walk plus a fold.

Some ticks cannot be batched by :mod:`repro.sim.soa`: a websearch
cluster needs each tick's frequency view, a time-shared core is an
opaque load, and a clipping RAPL cap moves every tick.
:func:`advance_fused` runs them one *stretch* at a time.
Only two things in a chip are sequential from tick to tick: the RAPL
limiter's feedback loop (an EWMA of package power steering one global
frequency cap) and the websearch queues.  So a stretch has two parts.

* The **walk** computes, tick by tick on plain floats, only what feeds
  the next tick: the effective MHz under the live cap, the attached
  websearch clusters, each lane's power (once per distinct app model,
  reference and base frequency), the package power as a left fold, the
  limiter's EWMA and cap step, instruction budgets and ``done`` flips.
* The **fold** then computes every running sum ``Chip.tick`` keeps —
  APERF/MPERF and instruction counters, core and package energy, C0/C1/
  C6 residency and transitions, app progress — as ``(ticks, cores)``
  matrices (:mod:`repro.sim.kernel`) and folds them into the chip once,
  with the batch path's sequential seeded accumulate
  (:func:`repro.sim.soa._fold`).

A stretch is *certified* when its cap provably cannot fall: the cap
clears every base frequency, the limiter average and an upper bound on
each tick's package power are below the limit with a margin for EWMA
rounding, and no lane runs an opaque load.  In a certified stretch only
the clusters (and instruction budgets) tick; power, package power and
the limiter replay are computed afterwards over the whole stretch, and
a cap that drops below its base raises :class:`SimulationError` (the
certificate was wrong).  Chips without a limiter or a limit are
certified unless they run an opaque load.  A stretch is at most
``soa.MAX_BATCH_TICKS`` long, which bounds its records.

Bit identity with :meth:`Chip.tick`, which stays the scalar engine and
the oracle, is the contract:

* the walk keeps ``Chip.tick``'s association order for everything it
  computes, and the kernels replicate it elementwise, so a power the
  walk and the fold both compute has the same bits;
* every running sum takes the same chain of ``x += inc`` steps, seeded
  with its live value;
* the package power is a left fold, ``((0.0 + p0) + p1) + ... +
  uncore``, like ``package_power_watts`` and ``kernel.package_rows``;
* a stretch ends after the first tick in which a core's ``done`` flag
  flips: the scalar tick marks the chip dirty there, so the next
  stretch re-resolves the P-state view exactly where the next scalar
  tick would.

Batch, idle and websearch serving loads are modelled; any other load
(time-shared cores, test doubles) is called through ``load.advance``
with the tick's arguments in a walked stretch, so no load type is gated
out.  Nothing is kept between stretches.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.hw.cstates import EXIT_LATENCY_S, CState
from repro.sim import kernel, soa
from repro.sim.core import BatchCoreLoad, ClusterCoreLoad, IdleLoad, LoadSample
from repro.units import clamp

if TYPE_CHECKING:
    from repro.sim.chip import Chip

# per-core lane kinds, fixed for a stretch (parking and load placement
# change only between stretches, and both mark the chip dirty)
_PARKED = 0
_IDLE = 1
_BATCH = 2
_CLUSTER = 3
_OTHER = 4

#: relative headroom a certificate keeps below the RAPL limit.  An EWMA
#: of powers at or under a bound exceeds the bound only by rounding, a
#: few units in the last place, far inside this.
_CERTIFICATE_MARGIN = 1e-9

_TWO_PI = kernel.TWO_PI
_IDLE_SAMPLE = LoadSample(0.0, 0.0, 0.0, done=True)


def advance_fused(
    chip: "Chip", n_ticks: int, *, until_release: bool = False
) -> int:
    """Advance ``chip`` by ``n_ticks``, bit-identical to ``advance_ticks``;
    returns the ticks run.

    With ``until_release`` the walk stops after the first tick whose
    RAPL cap clears the chip's fastest unparked base frequency (and
    runs nothing if the cap does not clip to begin with), so the array
    batch can take over.  Counters are not flushed, as with
    ``advance_ticks``.
    """
    if n_ticks < 0:
        raise SimulationError("cannot run negative ticks")
    ran = 0
    while ran < n_ticks:
        ticks, released = _run_stretch(
            chip, min(n_ticks - ran, soa.MAX_BATCH_TICKS), until_release
        )
        ran += ticks
        if released:
            break
    return ran


def _certifies(
    avg: float, primed: bool, bound: float, limit: float
) -> bool:
    """Whether a limiter at average ``avg`` observing package powers no
    higher than ``bound`` keeps its average below ``limit``, so its cap
    cannot fall."""
    ceiling = limit - limit * _CERTIFICATE_MARGIN
    return bound < ceiling and (not primed or avg < ceiling)


class _Lanes:
    """One chip's cores for one stretch, sorted by what drives them.

    Batch lanes running the same app model at the same reference and
    base frequency draw the same power every tick, so the walk evaluates
    it once per *group*; budgets stay per lane.  Every lane runs at
    ``cap if cap < base else base`` — its base MHz, or the RAPL cap
    where the cap clips it — which is ``Chip.tick``'s
    ``max(min(base, cap), 0.0)`` for the positive base of an unparked
    lane.
    """

    def __init__(self, chip: "Chip"):
        cores = chip.cores
        n = self.n = len(cores)
        placement = soa._placement(chip)
        self.rows = placement.rows
        power = chip.platform.power
        self.scale = power.c_eff_scale
        self.leak = power.leak_coeff_w_per_v
        self.idle_w = power.idle_core_watts
        # an inactive core's PowerBreakdown(0.0, 0.0, idle).total_w
        self.idle_power = 0.0 + 0.0 + self.idle_w
        self.uncore = power.uncore_watts
        self.voltage_for = chip.platform.pstates.voltage_for_frequency
        #: voltage by MHz, for every MHz the stretch meets
        self.volts: dict[float, float] = {}
        base = chip._base_effective_mhz
        self.base_max = max(base)
        self.base_effs = [
            0.0 if core.parked else max(base[i], 0.0)
            for i, core in enumerate(cores)
        ]
        self.kinds: list[int] = []
        self.loads = [core.load for core in cores]
        self.batch: list[int] = []
        self.serving: list[int] = []
        self.others: list[int] = []
        for i, core in enumerate(cores):
            load = core.load
            load_type = type(load)
            if core.parked:
                kind = _PARKED
            elif load_type is BatchCoreLoad and not load.app.finished:
                kind = _BATCH
                self.batch.append(i)
            elif load_type is ClusterCoreLoad:
                kind = _CLUSTER
                self.serving.append(i)
            elif load_type is BatchCoreLoad or load_type is IdleLoad:
                kind = _IDLE
            else:
                kind = _OTHER
                self.others.append(i)
            self.kinds.append(kind)
        # a lane whose done flag differs from the last tick's flips on
        # the first tick (a running batch lane counts as not done)
        prev = chip._prev_sample_done
        self.flips_now = any(
            prev[i] != (kind in (_PARKED, _IDLE))
            for i, kind in enumerate(self.kinds)
            if kind != _OTHER
        )

        # batch groups: (base MHz, memo of batch_consts by MHz, power
        # phased?, power amplitude, period, offset, batch_consts' model
        # constants), and each lane's group
        keys: dict[Any, int] = {}
        self.groups: list[tuple[Any, ...]] = []
        self.lane_group: list[int] = []
        #: budgeted lanes: (lane, group, budget, ips_ref, ipc_amp, memo
        #: of the roofline rate by MHz)
        self.budgeted: list[tuple[Any, ...]] = []
        for i in self.batch:
            load = self.loads[i]
            model = load.app.model
            ref = load.reference_mhz
            if self.base_effs[i] <= 0 or ref <= 0:
                raise ConfigError("frequencies must be positive")
            phase = model.phase
            key = (model, ref, base[i])
            g = keys.get(key)
            if g is None:
                g = keys[key] = len(self.groups)
                self.groups.append((
                    self.base_effs[i], {},
                    # repro-lint: disable=float-equality — 0.0 amplitude is a config literal meaning "no phases" (AppModel.power_factor's test)
                    phase.power_amplitude != 0.0,
                    phase.power_amplitude, phase.period_s,
                    model._phase_offset(),
                    (model.c_eff, (1.0 - model.mem_fraction) * ref,
                     model.mem_fraction, model.stall_power_factor),
                ))
            self.lane_group.append(g)
            if model.instructions is not None:
                self.budgeted.append((
                    i, g, model.instructions, model.base_ipc * ref * 1e6,
                    phase.ipc_amplitude, {},
                ))
        self.batch_mask = np.zeros(n, dtype=bool)
        self.batch_mask[self.batch] = True
        # serving lanes: (lane, sample state, base MHz, c_eff, memo of
        # serving_consts by MHz, shared by lanes of equal c_eff)
        memos: dict[float, dict[float, tuple[float, float]]] = {}
        self.served: list[tuple[Any, ...]] = []
        for i in self.serving:
            load = self.loads[i]
            ceff = load.cluster.config.c_eff
            self.served.append((
                i, load.cluster._cores[load.core_id], self.base_effs[i],
                ceff, memos.setdefault(ceff, {}),
            ))
        # the unparked cores any attached cluster reads a frequency for
        self.view_ids = sorted({
            core_id
            for cluster in chip.clusters
            for core_id in cluster.core_ids
            if not cores[core_id].parked
        })

    def volt(self, eff: float) -> float:
        """The voltage at ``eff`` MHz (a pure function of it, memoised)."""
        v = self.volts.get(eff)
        if v is None:
            v = self.volts[eff] = self.voltage_for(eff)
        return v

    def batch_consts(
        self, model: tuple[float, float, float, float], eff: float
    ) -> tuple[float, float, float, float, float]:
        """A group's ``(model c_eff x activity factor, V, f_GHz, leak x V,
        unphased power)`` at ``eff``, in ``Chip.tick``'s association."""
        mc, cpu_ref, mem, stall = model
        cpu_time = cpu_ref / eff
        active = cpu_time / (cpu_time + mem)
        cf = mc * (active + (1.0 - active) * stall)
        v = self.volt(eff)
        f = eff / 1000.0
        lv = self.leak * v
        return cf, v, f, lv, self.scale * cf * v * v * f + lv

    def serving_consts(self, ceff: float, eff: float) -> tuple[float, float]:
        """A serving lane's ``(dynamic power at full busy, leak x V)``."""
        v = self.volt(eff)
        return self.scale * ceff * v * v * (eff / 1000.0), self.leak * v

    def bound(self) -> float:
        """An upper bound on the package power of any tick at the base
        frequencies: each term of each lane's power at its largest over
        busy fractions and power phases (rounding is monotone, so the
        rounded powers and their left fold stay under it)."""
        powers = [self.idle_power] * self.n
        for i, g in zip(self.batch, self.lane_group):
            base, _, _, amp, _, _, model = self.groups[g]
            cf, v, f, lv, _ = self.batch_consts(model, base)
            powers[i] = self.scale * (cf * (1.0 + amp)) * v * v * f + lv
        for i, _, base, ceff, _ in self.served:
            a, lv = self.serving_consts(ceff, base)
            powers[i] = a + lv + self.idle_w
        total = 0.0
        for power in powers:
            total += power
        return total + self.uncore


def _run_stretch(
    chip: "Chip", max_ticks: int, until_release: bool
) -> tuple[int, bool]:
    """Walk and fold up to ``max_ticks`` ticks; returns the ticks run and
    whether ``until_release`` found the cap released."""
    if chip._dirty:
        chip._refresh_pstate_view()
    rapl = chip.rapl
    base_max = max(chip._base_effective_mhz)
    clipping = rapl is not None and rapl.cap_mhz < base_max
    if until_release and not clipping:
        return 0, True
    lanes = _Lanes(chip)
    certified = not lanes.others and not clipping
    if certified and rapl is not None and rapl.limit_w is not None:
        avg, _, primed = rapl.control_state()
        certified = _certifies(avg, primed, lanes.bound(), rapl.limit_w)
    walk = _walk(
        chip, lanes, 1 if lanes.flips_now else max_ticks, certified,
        until_release,
    )
    _fold_stretch(chip, lanes, walk)
    return walk.ticks, walk.released


class _Walked:
    """What a walk leaves for the fold."""

    def __init__(self) -> None:
        self.ticks = 0
        self.released = False
        #: the simulated time before each tick, and after the last one
        self.times: list[float] = []
        self.end = 0.0
        #: the pre-tick RAPL cap of every tick, if any tick clipped
        self.caps: list[float] | None = None
        #: per tick, each serving lane's busy seconds and instructions
        self.served: list[float] = []
        #: per tick, each other lane's instructions, busy and c_eff
        self.sampled: list[float] = []
        #: each other lane's last done flag
        self.other_done: list[bool] = []
        #: finishing batch lanes and their clamped last-tick work
        self.finished: dict[int, float] = {}
        #: the limiter's control state after a walked stretch (None when
        #: certified: the fold replays it)
        self.rapl_state: tuple[float, float, bool] | None = None


def _walk(
    chip: "Chip",
    lanes: _Lanes,
    max_ticks: int,
    certified: bool,
    until_release: bool,
) -> _Walked:
    """Step what feeds the next tick, ``max_ticks`` at most."""
    out = _Walked()
    dt = chip.tick_s
    t = chip.time_s
    sin = math.sin
    clusters = chip.clusters
    base_effs = lanes.base_effs
    base_max = lanes.base_max
    scale = lanes.scale
    idle_w = lanes.idle_w
    uncore = lanes.uncore
    prev_done = chip._prev_sample_done
    walking = not certified

    groups = lanes.groups
    gpower = [0.0] * len(groups)
    lane_group = list(zip(lanes.batch, lanes.lane_group))
    budgeted = lanes.budgeted
    retired = [lanes.loads[b[0]].app.retired_instructions for b in budgeted]
    served = lanes.served
    states = [lane[1] for lane in served]
    record = out.served
    others = [(i, lanes.loads[i], base_effs[i]) for i in lanes.others]
    sampled = out.sampled
    other_done = [prev_done[i] for i in lanes.others]
    template = [lanes.idle_power] * lanes.n
    view_ids = lanes.view_ids
    base_view = {i: base_effs[i] for i in view_ids}
    view = base_view

    rapl = chip.rapl
    limited = rapl is not None and walking
    # an unlimited walk runs every lane at its base MHz
    cap = math.inf
    if limited:
        assert rapl is not None
        avg, cap, primed = rapl.control_state()
        config = rapl.config
        alpha = clamp(dt / config.averaging_tau_s, 0.0, 1.0)
        limit = rapl.limit_w
        gain = config.gain_mhz_per_w
        hyst = config.hysteresis_w
        neg_hyst = -hyst
        min_f = rapl.platform.min_frequency_mhz
        max_f = rapl.platform.max_frequency_mhz
        caps: list[float] = []
    clipped = False
    ticks = 0
    flipped = False
    times = out.times
    while ticks < max_ticks:
        times.append(t)
        # 1. the clusters see one consistent view of the serving cores'
        # MHz: base, or the live RAPL cap where it clips
        if limited:
            caps.append(cap)
            if cap < base_max:
                clipped = True
                out.caps = caps
                if view_ids:
                    view = {
                        i: cap if cap < base_effs[i] else base_effs[i]
                        for i in view_ids
                    }
            elif clipped:
                clipped = False
                view = base_view
        for cluster in clusters:
            cluster.advance(dt, view)
        if walking:
            pw = template[:]
        # 2. serving lanes collect what their cluster served this tick
        # (a certified walk needs no power from them)
        if not walking:
            for state in states:
                record.append(state.busy_time_s)
                record.append(state.instructions)
                state.busy_time_s = 0.0
                state.instructions = 0.0
        else:
            for i, state, base, ceff, memo in served:
                busy_s = state.busy_time_s
                instr = state.instructions
                state.busy_time_s = 0.0
                state.instructions = 0.0
                record.append(busy_s)
                record.append(instr)
                busy = busy_s / dt
                if not busy < 1.0:
                    busy = 1.0
                if busy > 0.0:
                    eff = cap if cap < base else base
                    consts = memo.get(eff)
                    if consts is None:
                        consts = memo[eff] = lanes.serving_consts(ceff, eff)
                    pw[i] = (
                        consts[0] * busy + consts[1] + idle_w * (1.0 - busy)
                    )
        # 3. opaque loads advance through their own interface
        for k, (i, load, base) in enumerate(others):
            eff = cap if cap < base else base
            sample = load.advance(dt, eff, t)
            instr = sample.instructions
            busy = sample.busy_fraction
            ceff = sample.c_eff
            done = sample.done
            sampled.append(instr)
            sampled.append(busy)
            sampled.append(ceff)
            other_done[k] = done
            if busy > 0.0:
                if eff <= 0:
                    raise SimulationError(
                        "active core must have positive frequency"
                    )
                if not 0.0 <= busy <= 1.0:
                    raise SimulationError(f"bad busy fraction {busy}")
                v = lanes.volt(eff)
                pw[i] = (
                    scale * ceff * v * v * (eff / 1000.0) * busy
                    + lanes.leak * v
                    + idle_w * (1.0 - busy)
                )
            if done != prev_done[i]:
                flipped = True
        # 4. instruction budgets
        tw = _TWO_PI * t
        for b, (i, g, budget, ips_ref, ipc_amp, memo) in enumerate(budgeted):
            base, _, _, _, period, offset, model = groups[g]
            eff = cap if cap < base else base
            rate = memo.get(eff)
            if rate is None:
                rate = memo[eff] = ips_ref * (
                    1.0 / (model[1] / eff + model[2])
                )
            work = rate
            # repro-lint: disable=float-equality — 0.0 amplitude is a config literal meaning "no phases" (AppModel.ipc_factor's test)
            if ipc_amp != 0.0:
                work = work * (1.0 + ipc_amp * sin(tw / period + offset))
            instr = work * dt
            remaining = budget - retired[b]
            if instr >= remaining:
                instr = max(remaining, 0.0)
                out.finished[i] = instr
                if not prev_done[i]:
                    flipped = True
            retired[b] += instr
        if walking:
            # 5. batch power once per group, then the package left fold
            for g, (base, memo, phased, amp, period, offset, model) in (
                enumerate(groups)
            ):
                eff = cap if cap < base else base
                consts = memo.get(eff)
                if consts is None:
                    consts = memo[eff] = lanes.batch_consts(model, eff)
                if phased:
                    ceff = consts[0] * (
                        1.0 + amp * sin((tw / period + offset) * 0.5)
                    )
                    v = consts[1]
                    gpower[g] = scale * ceff * v * v * consts[2] + consts[3]
                else:
                    gpower[g] = consts[4]
            for i, g in lane_group:
                pw[i] = gpower[g]
            pkg = 0.0
            for power in pw:
                pkg += power
            pkg += uncore
            # 6. limiter feedback
            if limited:
                if primed:
                    avg += alpha * (pkg - avg)
                else:
                    avg = pkg
                    primed = True
                if limit is not None:
                    error = avg - limit
                    if error > 0.0:
                        cap = clamp(cap - gain * error, min_f, max_f)
                    elif error < neg_hyst:
                        cap = clamp(
                            cap - gain * (error + hyst), min_f, max_f
                        )
        t += dt
        ticks += 1
        if flipped or out.finished:
            break
        if until_release and not cap < base_max:
            out.released = True
            break
    out.ticks = ticks
    out.end = t
    out.other_done = other_done
    if limited:
        out.rapl_state = (avg, cap, primed)
    return out


def _fold_stretch(chip: "Chip", lanes: _Lanes, walk: _Walked) -> None:
    """Compute the stretch's running sums and commit the chip."""
    n = lanes.n
    T = walk.ticks
    dt = chip.tick_s
    rows = lanes.rows
    batch = lanes.batch_mask

    # effective MHz and voltage: each lane's base, or the tick's cap
    # where it clips (voltages from the walk's memo of distinct MHz)
    base_row = np.asarray(lanes.base_effs)
    volt_row = np.asarray([lanes.volt(eff) for eff in lanes.base_effs])
    if walk.caps is not None:
        caps = np.asarray(walk.caps)[:, None]
        clipped = base_row > caps
        eff = np.where(clipped, caps, base_row)
        volt = np.where(
            clipped,
            np.asarray([lanes.volt(cap) for cap in walk.caps])[:, None],
            volt_row,
        )
    else:
        eff = base_row[None, :]
        volt = volt_row[None, :]

    # batch lanes: work and power at each tick's frequency and phase
    busy = np.zeros((T, n))
    busy[:, batch] = 1.0
    if lanes.batch:
        rate, factor = kernel.roofline_rows(
            np.where(batch, eff, rows["ref_row"]), rows["ref_row"],
            rows["mem_row"], rows["ipc_row"], rows["stall_row"],
        )
        ipc_u, pow_u = kernel.phase_factors(
            np.asarray(walk.times)[:, None], rows["period_row"],
            rows["offset_row"], rows["ipc_amp_row"], rows["pow_amp_row"],
        )
        cand = np.where(batch, kernel.retired_rows(rate, ipc_u, dt), 0.0)
        for i, clamped in walk.finished.items():
            cand[T - 1, i] = clamped
        ceff = np.where(batch, (rows["ceff_row"] * factor) * pow_u, 0.0)
        last_factor = factor[-1].tolist()
    else:
        cand = np.zeros((T, n))
        ceff = np.zeros((T, n))
    instr = cand.copy()
    if lanes.serving:
        served = np.asarray(walk.served).reshape(T, len(lanes.serving), 2)
        fraction = served[:, :, 0] / dt
        busy[:, lanes.serving] = np.where(fraction < 1.0, fraction, 1.0)
        instr[:, lanes.serving] = served[:, :, 1]
        ceff[:, lanes.serving] = [lane[3] for lane in lanes.served]
    if lanes.others:
        sampled = np.asarray(walk.sampled).reshape(T, len(lanes.others), 3)
        instr[:, lanes.others] = sampled[:, :, 0]
        busy[:, lanes.others] = sampled[:, :, 1]
        ceff[:, lanes.others] = sampled[:, :, 2]

    # C-states: the first busy tick after C6 pays the wake-up latency
    # out of its work (only the first tick can leave C6: parking is
    # fixed for the stretch)
    parked = rows["parked_row"]
    active = busy > 0.0
    state = np.where(parked, soa._C6, np.where(active, soa._C0, soa._C1))
    residencies = chip.cstates._cores
    codes = [soa._CODE[res.current] for res in residencies]
    current = np.asarray(codes)
    wake = max(0.0, 1.0 - EXIT_LATENCY_S[CState.C6] / dt)
    if wake < 1.0 and soa._C6 in codes:
        woken = (current == soa._C6) & (state[0] == soa._C0) & (instr[0] > 0)
        instr[0] = np.where(woken, instr[0] * wake, instr[0])
    transitions = (state[0] != current) + (
        state[1:] != state[:-1]
    ).sum(axis=0)

    power = kernel.power_rows(
        ceff, volt, eff / 1000.0, lanes.scale, lanes.leak, lanes.idle_w,
        busy,
    )
    pkg = kernel.package_rows(power, None, 1, n, lanes.uncore)

    rapl = chip.rapl
    rapl_state = walk.rapl_state
    if rapl is not None and rapl_state is None:
        # a certified stretch: replay the limiter over what it observed
        observed, rapl_state = soa._replay_rapl(
            rapl, rapl.control_state(), pkg[:, 0].tolist(), dt,
            lanes.base_max, T,
        )
        if observed < T:
            raise SimulationError(
                "a certified stretch's RAPL cap fell below its base "
                "frequency"
            )

    # the running sums, in soa._fold's block order; C0 counters and
    # residency take the busy fraction of active lanes only
    tsc_dt = chip._tsc_mhz * 1e6 * dt
    c0_busy = np.where(active, busy, 0.0)
    fixed = np.concatenate(
        (
            busy * dt,
            np.full((T, n), dt),
            eff * 1e6 * dt * c0_busy,
            tsc_dt * c0_busy,
            c0_busy * dt,
            np.where(active, dt * (1.0 - busy), rows["c1_idle"]),
            np.broadcast_to(rows["c6_inc"], (T, n)),
            np.broadcast_to(np.where(batch, dt, 0.0), (T, n)),
        ),
        axis=1,
    )
    cores = chip.cores
    loads = lanes.loads
    apps = [
        loads[i].app if kind == _BATCH else None
        for i, kind in enumerate(lanes.kinds)
    ]
    acc = np.asarray(
        chip._instr_total
        + [core.total_instructions for core in cores]
        + chip.energy._core_energy_j
        + [core.total_energy_j for core in cores]
        + [0.0 if app is None else app.retired_instructions for app in apps]
        + [core.total_busy_s for core in cores]
        + [core.total_time_s for core in cores]
        + chip._aperf_cycles
        + chip._mperf_cycles
        + [res.c0_s for res in residencies]
        + [res.c1_s for res in residencies]
        + [res.c6_s for res in residencies]
        + [0.0 if app is None else app.elapsed_s for app in apps]
        + [chip.energy._pkg_energy_j]
    )
    soa._fold(
        acc,
        np.concatenate((np.where(active, instr, 0.0), instr), axis=1),
        power * dt,
        cand,
        fixed,
        pkg * dt,
    )

    # -- commit ---------------------------------------------------------------
    (msr_instr, total_instr, core_energy, total_energy, retired,
     total_busy, total_time, aperf, mperf, c0, c1, c6, elapsed) = (
        acc[: 13 * n].reshape(13, n).tolist()
    )
    last_eff = eff[-1].tolist()
    last_instr = instr[-1].tolist()
    last_busy = busy[-1].tolist()
    last_ceff = ceff[-1].tolist()
    last_state = state[-1].tolist()
    transitions = transitions.tolist()
    prev_done = chip._prev_sample_done
    other_done = dict(zip(lanes.others, walk.other_done))
    flipped = False
    for i, core in enumerate(cores):
        kind = lanes.kinds[i]
        if kind == _BATCH:
            done = i in walk.finished
        elif kind == _CLUSTER:
            done = False
        elif kind == _OTHER:
            done = other_done[i]
        else:
            done = True
        if done != prev_done[i]:
            prev_done[i] = done
            flipped = True
        core.effective_mhz = last_eff[i]
        core.total_instructions = total_instr[i]
        core.total_energy_j = total_energy[i]
        core.total_busy_s = total_busy[i]
        core.total_time_s = total_time[i]
        core.last_sample = (
            _IDLE_SAMPLE if kind in (_PARKED, _IDLE) else LoadSample(
                instructions=last_instr[i],
                busy_fraction=last_busy[i],
                c_eff=last_ceff[i],
                done=done,
            )
        )
        res = residencies[i]
        res.c0_s = c0[i]
        res.c1_s = c1[i]
        res.c6_s = c6[i]
        res.current = soa._CSTATES[last_state[i]]
        res.transitions += transitions[i]
        app = apps[i]
        if app is not None:
            app.retired_instructions = retired[i]
            app.elapsed_s = elapsed[i]
            app.finished = done
            load = loads[i]
            load._factor = last_factor[i]
            load._factor_freq = last_eff[i]
    chip._aperf_cycles[:] = aperf
    chip._mperf_cycles[:] = mperf
    chip._instr_total[:] = msr_instr
    chip.energy._core_energy_j[:] = core_energy
    chip.energy._pkg_energy_j = float(acc[-1])
    chip.last_core_powers_w = power[-1].tolist()
    chip.last_package_power_w = float(pkg[-1, 0])
    chip.time_s = walk.end
    if rapl is not None and rapl_state is not None:
        rapl.restore_control_state(rapl_state)
    if flipped:
        chip._dirty = True
