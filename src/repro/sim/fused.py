"""The array engine's per-tick fallback: ``Chip.tick`` on local floats.

Some ticks cannot be batched by :mod:`repro.sim.soa`: a websearch
cluster needs each tick's frequency view, a clipping RAPL cap moves
every tick, and a gap shorter than ``MIN_BATCH_TICKS`` does not pay for
the numpy calls.  The limiter recurrence makes those ticks sequential
within a chip, but they need not walk ``Core``, ``LoadSample`` and
``PowerBreakdown`` objects.  :func:`advance_fused` gathers a chip's
state into local lists once per *window*, runs :meth:`Chip.tick`'s
operations in its order on plain floats, and commits everything the
tick writes back once.

Bit identity with :meth:`Chip.tick`, which stays the scalar engine and
the oracle, is the contract:

* every float expression keeps the scalar association order — the
  roofline rate and activity factor of :class:`~repro.workloads.app.\
AppModel`, the phase angle, ``core_power_breakdown``'s dynamic +
  leakage + idle sum, the counter increments — and every accumulator
  takes the same chain of ``x += inc`` steps;
* values that depend only on a core's effective frequency (rate,
  activity factor, voltage) are memoised on that frequency inside the
  window; they are pure functions of it, so a hit returns the bits a
  recomputation would;
* the package power is ``sum(powers) + uncore``, the expression
  ``package_power_watts`` uses (``sum`` of floats is compensated from
  Python 3.12 on, so the fold is not spelled out by hand);
* a window ends after the first tick in which a core's ``done`` flag
  flips: the scalar tick marks the chip dirty there, so the next
  window re-resolves the P-state view exactly where the next scalar
  tick would.

Batch, idle and websearch serving loads are inlined; any other load
(time-shared cores, test doubles) is called through ``load.advance``
with the tick's arguments, so no load type is gated out.  Nothing is
kept between windows.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError, SimulationError
from repro.hw.cstates import EXIT_LATENCY_S, CState
from repro.sim.core import BatchCoreLoad, ClusterCoreLoad, IdleLoad, LoadSample
from repro.units import clamp

if TYPE_CHECKING:
    from repro.sim.chip import Chip

# per-core load kinds, fixed for a window (parking and load placement
# change only between windows, and both mark the chip dirty)
_PARKED = 0
_IDLE = 1
_BATCH = 2
_CLUSTER = 3
_OTHER = 4

_C0 = CState.C0
_C1 = CState.C1
_C6 = CState.C6
_TWO_PI = 2.0 * math.pi


def advance_fused(chip: "Chip", n_ticks: int) -> None:
    """Advance ``chip`` by ``n_ticks``, bit-identical to ``advance_ticks``.

    The chip must run with dirty caching (``dirty_caching=False`` is the
    re-resolve-every-tick reference mode, which only ``Chip.tick``
    implements).  Counters are not flushed, as with ``advance_ticks``.
    """
    if n_ticks < 0:
        raise SimulationError("cannot run negative ticks")
    if not chip.dirty_caching:
        raise SimulationError(
            "the fused loop needs dirty caching; dirty_caching=False "
            "chips step through Chip.tick"
        )
    remaining = n_ticks
    while remaining > 0:
        remaining -= _run_window(chip, remaining)


def _run_window(chip: "Chip", max_ticks: int) -> int:
    """Run up to ``max_ticks`` ticks; stop after a ``done`` flip.

    Returns the number of ticks run (at least one).
    """
    if chip._dirty:
        chip._refresh_pstate_view()
    platform = chip.platform
    spec = platform.power
    voltage_for = platform.pstates.voltage_for_frequency
    dt = chip.tick_s
    t = chip.time_s
    cores = chip.cores
    n = len(cores)
    scale = spec.c_eff_scale
    leak = spec.leak_coeff_w_per_v
    idle_w = spec.idle_core_watts
    uncore = spec.uncore_watts
    # an inactive core's PowerBreakdown(0.0, 0.0, idle).total_w
    idle_power = 0.0 + 0.0 + idle_w
    tsc_dt = chip._tsc_mhz * 1e6 * dt
    wake = max(0.0, 1.0 - EXIT_LATENCY_S[_C6] / dt)
    wake_discounts = wake < 1.0

    # -- open: gather ---------------------------------------------------------
    base = chip._base_effective_mhz
    base_max = max(base)
    kinds: list[int] = []
    loads: list[Any] = []
    base_effs: list[float] = []
    unparked: list[int] = []
    for i, core in enumerate(cores):
        load = core.load
        load_type = type(load)
        if core.parked:
            kinds.append(_PARKED)
            base_effs.append(0.0)
        else:
            unparked.append(i)
            base_effs.append(max(base[i], 0.0))
            if load_type is BatchCoreLoad:
                kinds.append(_BATCH)
            elif load_type is ClusterCoreLoad:
                kinds.append(_CLUSTER)
            elif load_type is IdleLoad:
                kinds.append(_IDLE)
            else:
                kinds.append(_OTHER)
        loads.append(load)

    # batch lanes: app progress, model constants, and per-frequency memos
    apps: list[Any] = [None] * n
    finished = [True] * n
    retired = [0.0] * n
    elapsed = [0.0] * n
    budgets: list[float | None] = [None] * n
    ref = [1.0] * n
    ips_ref = [0.0] * n
    cpu_ref = [0.0] * n
    mem = [0.0] * n
    stall = [0.0] * n
    model_ceff = [0.0] * n
    ipc_amp = [0.0] * n
    pow_amp = [0.0] * n
    ipc_phased = [False] * n
    pow_phased = [False] * n
    period = [1.0] * n
    offset = [0.0] * n
    rate_freq = [math.nan] * n
    rate = [0.0] * n
    factor_freq = [math.nan] * n
    factor = [0.0] * n
    advanced = [False] * n
    # websearch lanes: the cluster's per-core sample state and c_eff
    serving: list[Any] = [None] * n
    serving_ceff = [0.0] * n
    for i in unparked:
        load = loads[i]
        kind = kinds[i]
        if kind == _BATCH:
            app = load.app
            model = app.model
            apps[i] = app
            finished[i] = app.finished
            retired[i] = app.retired_instructions
            elapsed[i] = app.elapsed_s
            budgets[i] = model.instructions
            ref_mhz = load.reference_mhz
            ref[i] = ref_mhz
            ips_ref[i] = model.base_ipc * ref_mhz * 1e6
            cpu_ref[i] = (1.0 - model.mem_fraction) * ref_mhz
            mem[i] = model.mem_fraction
            stall[i] = model.stall_power_factor
            model_ceff[i] = model.c_eff
            phase = model.phase
            ipc_amp[i] = phase.ipc_amplitude
            pow_amp[i] = phase.power_amplitude
            # repro-lint: disable=float-equality — 0.0 amplitude is a config literal meaning "no phases" (AppModel.ipc_factor's test)
            ipc_phased[i] = phase.ipc_amplitude != 0.0
            # repro-lint: disable=float-equality — 0.0 amplitude is a config literal meaning "no phases" (AppModel.power_factor's test)
            pow_phased[i] = phase.power_amplitude != 0.0
            period[i] = phase.period_s
            offset[i] = model._phase_offset()
            factor_freq[i] = load._factor_freq
            factor[i] = load._factor
        elif kind == _CLUSTER:
            cluster = load.cluster
            serving[i] = cluster._cores[load.core_id]
            serving_ceff[i] = cluster.config.c_eff

    # per-core counters and residencies
    total_instr = [core.total_instructions for core in cores]
    total_energy = [core.total_energy_j for core in cores]
    total_busy = [core.total_busy_s for core in cores]
    total_time = [core.total_time_s for core in cores]
    residencies = chip.cstates._cores
    c0 = [res.c0_s for res in residencies]
    c1 = [res.c1_s for res in residencies]
    c6 = [res.c6_s for res in residencies]
    current = [res.current for res in residencies]
    transitions = [res.transitions for res in residencies]
    aperf = list(chip._aperf_cycles)
    mperf = list(chip._mperf_cycles)
    instr_total = list(chip._instr_total)
    core_energy = list(chip.energy._core_energy_j)
    pkg_energy = chip.energy._pkg_energy_j
    prev_done = list(chip._prev_sample_done)
    last_instr = [0.0] * n
    last_busy = [0.0] * n
    last_ceff = [0.0] * n
    last_done = [True] * n
    volts: dict[float, float] = {}

    rapl = chip.rapl
    limited = rapl is not None
    if rapl is not None:
        avg, cap, primed = rapl.control_state()
        config = rapl.config
        alpha = clamp(dt / config.averaging_tau_s, 0.0, 1.0)
        limit = rapl.limit_w
        gain = config.gain_mhz_per_w
        hyst = config.hysteresis_w
        neg_hyst = -hyst
        min_f = rapl.platform.min_frequency_mhz
        max_f = rapl.platform.max_frequency_mhz
    # the tick loop re-derives both whenever the cap clips
    effs = base_effs
    clipped = False
    clusters = chip.clusters
    view = {i: effs[i] for i in unparked}

    # -- the ticks --------------------------------------------------------------
    ticks = 0
    flipped = False
    powers: list[float] = []
    pkg = 0.0
    while ticks < max_ticks and not flipped:
        # 1. effective frequencies: cached base under the live RAPL cap
        if limited:
            if cap < base_max:
                effs = [0.0] * n
                for i in unparked:
                    effs[i] = max(min(base[i], cap), 0.0)
                clipped = True
                if clusters:
                    view = {i: effs[i] for i in unparked}
            elif clipped:
                effs = base_effs
                clipped = False
                if clusters:
                    view = {i: effs[i] for i in unparked}
        # 2. websearch clusters see one consistent view of serving cores
        for cluster in clusters:
            cluster.advance(dt, view)
        # 3. loads, C-states, power, counters
        powers = []
        for i in range(n):
            kind = kinds[i]
            eff = effs[i]
            if kind == _BATCH and not finished[i]:
                if eff != rate_freq[i]:
                    if eff <= 0 or ref[i] <= 0:
                        raise ConfigError("frequencies must be positive")
                    rate[i] = ips_ref[i] * (
                        1.0 / (cpu_ref[i] / eff + mem[i])
                    )
                    rate_freq[i] = eff
                work = rate[i]
                if ipc_phased[i] or pow_phased[i]:
                    angle = _TWO_PI * t / period[i] + offset[i]
                if ipc_phased[i]:
                    work = work * (1.0 + ipc_amp[i] * math.sin(angle))
                instr = work * dt
                budget = budgets[i]
                if budget is not None:
                    remaining = budget - retired[i]
                    if instr >= remaining:
                        instr = max(remaining, 0.0)
                        finished[i] = True
                retired[i] += instr
                elapsed[i] += dt
                if eff != factor_freq[i]:
                    cpu_time = cpu_ref[i] / eff
                    active = cpu_time / (cpu_time + mem[i])
                    factor[i] = active + (1.0 - active) * stall[i]
                    factor_freq[i] = eff
                advanced[i] = True
                ceff = model_ceff[i] * factor[i]
                if pow_phased[i]:
                    ceff = ceff * (
                        1.0 + pow_amp[i] * math.sin(angle * 0.5)
                    )
                busy = 1.0
                done = finished[i]
            elif kind == _CLUSTER:
                state = serving[i]
                busy = state.busy_time_s / dt
                if not busy < 1.0:
                    busy = 1.0
                instr = state.instructions
                state.busy_time_s = 0.0
                state.instructions = 0.0
                ceff = serving_ceff[i]
                done = False
            elif kind == _OTHER:
                sample = loads[i].advance(dt, eff, t)
                instr = sample.instructions
                busy = sample.busy_fraction
                ceff = sample.c_eff
                done = sample.done
            else:
                # parked, idle, or a batch app that has finished
                instr = 0.0
                busy = 0.0
                ceff = 0.0
                done = True
            # C-state residency; the first busy tick after C6 pays the
            # wake-up latency out of its work
            previous = current[i]
            if kind == _PARKED:
                new_state = _C6
                c6[i] += dt
            elif busy <= 0.0:
                new_state = _C1
                c1[i] += dt
            else:
                new_state = _C0
                c0[i] += dt * busy
                c1[i] += dt * (1.0 - busy)
            if new_state is not previous:
                transitions[i] += 1
                current[i] = new_state
                if (
                    previous is _C6 and new_state is _C0
                    and wake_discounts and instr > 0
                ):
                    instr = instr * wake
            # core power (core_power_breakdown) and counters
            if busy > 0.0:
                if eff <= 0:
                    raise SimulationError(
                        "active core must have positive frequency"
                    )
                if not 0.0 <= busy <= 1.0:
                    raise SimulationError(f"bad busy fraction {busy}")
                voltage = volts.get(eff)
                if voltage is None:
                    voltage = volts[eff] = voltage_for(eff)
                power = (
                    scale * ceff * voltage * voltage * (eff / 1000.0) * busy
                    + leak * voltage
                    + idle_w * (1.0 - busy)
                )
                aperf[i] += eff * 1e6 * dt * busy
                mperf[i] += tsc_dt * busy
                instr_total[i] += instr
            else:
                power = idle_power
            energy = power * dt
            total_instr[i] += instr
            total_energy[i] += energy
            total_busy[i] += busy * dt
            total_time[i] += dt
            core_energy[i] += energy
            powers.append(power)
            last_instr[i] = instr
            last_busy[i] = busy
            last_ceff[i] = ceff
            last_done[i] = done
            if done != prev_done[i]:
                # a load finishing (or restarting) changes the active
                # count and hence the turbo ceiling next tick
                prev_done[i] = done
                flipped = True
        # 4. package power, energy, limiter feedback
        pkg = sum(powers) + uncore
        pkg_energy += pkg * dt
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
                    cap = clamp(cap - gain * (error + hyst), min_f, max_f)
        t += dt
        ticks += 1

    # -- close: commit ------------------------------------------------------------
    for i, core in enumerate(cores):
        core.effective_mhz = effs[i]
        core.total_instructions = total_instr[i]
        core.total_energy_j = total_energy[i]
        core.total_busy_s = total_busy[i]
        core.total_time_s = total_time[i]
        core.last_sample = LoadSample(
            instructions=last_instr[i],
            busy_fraction=last_busy[i],
            c_eff=last_ceff[i],
            done=last_done[i],
        )
        res = residencies[i]
        res.c0_s = c0[i]
        res.c1_s = c1[i]
        res.c6_s = c6[i]
        res.current = current[i]
        res.transitions = transitions[i]
        if advanced[i]:
            app = apps[i]
            app.retired_instructions = retired[i]
            app.elapsed_s = elapsed[i]
            app.finished = finished[i]
            load = loads[i]
            load._factor = factor[i]
            load._factor_freq = factor_freq[i]
    chip._aperf_cycles[:] = aperf
    chip._mperf_cycles[:] = mperf
    chip._instr_total[:] = instr_total
    chip._prev_sample_done[:] = prev_done
    chip.energy._core_energy_j[:] = core_energy
    chip.energy._pkg_energy_j = pkg_energy
    chip.last_core_powers_w = powers
    chip.last_package_power_w = pkg
    chip.time_s = t
    if rapl is not None:
        rapl.restore_control_state((avg, cap, primed))
    if flipped:
        chip._dirty = True
    return ticks
