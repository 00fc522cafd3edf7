"""Pure numpy kernels for the struct-of-arrays batched simulator step.

Every function here is a *pure array transform*: arrays in, arrays out,
no object traversal, no Python-level per-core loops (the ``kernel-purity``
repro-lint rule enforces both).  The orchestration layer
(:mod:`repro.sim.soa`) gathers chip state into arrays, calls these
kernels over a ``(ticks, cores)`` batch, and commits the results back.

Bit-exactness contract (DESIGN.md section 13): each kernel replicates the
scalar hot loop's float operations *in the same order and association*,
so elementwise results are bit-identical to the per-tick reference
implementation.  Two rules keep that true:

* order-sensitive running sums are strictly sequential — here
  ``np.add.accumulate`` along one axis; the orchestration layer also
  folds tick-ordered in place (``acc += row``) — never ``np.sum``/
  ``np.add.reduce`` (pairwise);
* interpolation is spelled out with ``searchsorted`` + the exact
  ``lo + frac * (hi - lo)`` form the scalar table uses — ``np.interp``
  rounds differently and must not be used.
"""

from __future__ import annotations

import math

import numpy as np

#: precomputed ``2.0 * math.pi``: the scalar phase model computes
#: ``2.0 * math.pi * t`` left-associated, so ``(2.0 * pi)`` first is the
#: identical constant fold.
TWO_PI = 2.0 * math.pi


def seeded_accumulate(seed_row, increments):
    """Column-wise running sums of a ``(T, C)`` increment matrix.

    ``seed_row`` is the ``(C,)`` vector of starting values; the result
    is ``(T + 1, C)`` with row ``k`` holding each column's value after
    ``k`` chained additions (``np.add.accumulate`` is strictly
    sequential along the accumulation axis).
    """
    stacked = np.concatenate(
        (np.reshape(seed_row, (1, -1)), increments), axis=0
    )
    return np.add.accumulate(stacked, axis=0)


def package_rows(power, slots, n_chips, width, uncore):
    """Per-chip package power for a ``(T, cores)`` power matrix.

    ``slots`` places each core column in a zero-padded
    ``(chips, width)`` layout (cores of one chip contiguous, in order);
    when every chip is ``width`` cores wide the layout is ``power``
    itself.  Each chip's cores are left-folded,
    ``((p0 + p1) + ...) + 0.0 ...``, matching ``sum(core_powers)``
    (``0 + p0 == p0``, and the trailing zeros are bitwise no-ops on the
    non-negative sums), then the uncore adder is applied.  Returns
    ``(T, chips)``.
    """
    ticks, cores = np.shape(power)
    if cores == n_chips * width:
        padded = power
    else:
        padded = np.zeros((ticks, n_chips * width), dtype=np.float64)
        padded[:, slots] = power
    folded = np.add.accumulate(
        np.reshape(padded, (-1, n_chips, width)), axis=2
    )
    return folded[:, :, -1] + uncore


def phase_factors(times, period, offset, ipc_amp, pow_amp):
    """IPC and power phase multipliers for a ``(T, C)`` time matrix.

    Replicates ``AppModel.ipc_factor`` / ``power_factor``: the angle is
    ``((2*pi * t) / period) + offset`` and zero amplitudes reduce to an
    exact ``1.0`` because ``1.0 + 0.0 * sin(x) == 1.0``.
    """
    angle = (TWO_PI * times) / period + offset
    return 1.0 + ipc_amp * np.sin(angle), 1.0 + pow_amp * np.sin(angle * 0.5)


def roofline_rows(eff, ref, mem_frac, base_ipc, stall):
    """Per-core roofline throughput and activity-power factor.

    Returns ``(rate, factor)``: instructions/second at the effective
    frequency (``AppModel.ips``) and the time-weighted dynamic-power
    activity factor (``AppModel.activity_power_factor``), with every
    intermediate in the scalar model's association order.
    """
    cpu_time = ((1.0 - mem_frac) * ref) / eff
    speedup = 1.0 / (cpu_time + mem_frac)
    rate = (base_ipc * ref) * 1e6 * speedup
    active = cpu_time / (cpu_time + mem_frac)
    factor = active + (1.0 - active) * stall
    return rate, factor


def voltage_rows(freq, grid_freqs, grid_volts):
    """V/f table lookup, bit-identical to the scalar bisect form.

    ``PStateTable.voltage_for_frequency`` interpolates with
    ``bisect_right`` and ``lo + frac * (hi - lo)``; ``searchsorted``
    with ``side="right"`` selects the same bracket, and the boundary
    lanes collapse onto the table's end voltages.
    """
    pos = np.searchsorted(grid_freqs, freq, side="right")
    pos = np.clip(pos, 1, len(grid_freqs) - 1)
    lo_f = grid_freqs[pos - 1]
    hi_f = grid_freqs[pos]
    lo_v = grid_volts[pos - 1]
    hi_v = grid_volts[pos]
    frac = (freq - lo_f) / (hi_f - lo_f)
    mid = lo_v + frac * (hi_v - lo_v)
    return np.where(
        freq <= grid_freqs[0],
        grid_volts[0],
        np.where(freq >= grid_freqs[-1], grid_volts[-1], mid),
    )


def retired_rows(rate, ipc_t, dt):
    """Instructions retired per tick: ``(rate * ipc_factor) * dt``.

    The scalar app computes ``rate *= ipc_factor`` then
    ``retired = rate * dt * share`` with ``share == 1.0`` (an exact
    multiplicative identity), so the two-factor product matches.
    """
    return (rate * ipc_t) * dt


def power_rows(ceff_t, volt, f_ghz, scale, leak_coeff, idle_w, busy):
    """Per-core power matrix, replicating ``core_power_breakdown``.

    ``busy`` is each lane's C0 fraction (a row, or one per tick).  Busy
    lanes draw ``scale*c_eff*V*V*f_ghz*busy + leak*V + idle*(1-busy)``
    in that association; lanes with ``busy <= 0`` (idle, parked) draw
    the deep-idle floor.  A boolean ``busy`` marks lanes busy the whole
    tick: with ``busy == 1.0`` the trailing identities (``* 1.0`` and
    ``+ idle * 0.0``) drop out bit-exactly, and are skipped.
    """
    dyn = scale * ceff_t * volt * volt * f_ghz
    if np.result_type(busy) == np.bool_:
        return np.where(busy, dyn + leak_coeff * volt, idle_w)
    return np.where(
        busy > 0.0,
        dyn * busy + leak_coeff * volt + idle_w * (1.0 - busy),
        idle_w,
    )


def first_hit_rows(hits, n_ticks):
    """First tick index where each column of ``hits`` is True.

    Columns with no hit report ``n_ticks`` (one past the window), the
    sentinel the event-split logic treats as "no behaviour change".
    """
    any_hit = np.any(hits, axis=0)
    first = np.argmax(hits, axis=0)
    return np.where(any_hit, first, n_ticks)
