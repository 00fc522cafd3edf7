"""One lockstep power-daemon pass across a stacked fleet.

At every deadline of a cluster epoch hundreds of daemons wake at once,
each running the same Python chain: read the counters, run the policy,
quantise, program the cores, record a sample.  Under
:func:`repro.sim.engine.run_lockstep` their iterations arrive here
together (:meth:`PowerDaemon.attach` registers :func:`step_daemons` as
the batch entry point), and for the frequency-shares policy — the
cluster default — one pass does for all of them what
:meth:`PowerDaemon.iteration` does for one:

1. **Telemetry.**  Every chip's counters come straight from the
   lockstep window's arrays (:meth:`repro.sim.soa.Window.counters`),
   converted as ``Chip.flush_counters`` converts them: cycles and
   instructions truncated, energy rounded half to even in µJ and
   wrapped at 2**32.  Per-core frequency, busy fraction and IPS plus
   package power come out of ``(daemons × cores)`` arrays against each
   daemon's baseline, with :class:`CounterDelta`'s operation order and
   the counters' wrap masks, and ``_validate``'s checks run as array
   comparisons.
2. **Policy.**  The probe/backoff state machine runs per daemon
   (:meth:`FrequencySharesPolicy.step_pool`), then one refill bisection
   runs across every daemon that needs one.
3. **Quantisation and programming.**  Targets snap to the grid with
   ``np.searchsorted`` under :func:`~repro.units.quantize_nearest`'s
   rule.  Every request of the pass, with the register value
   :meth:`CpuFreqInterface.set_speed_mhz` would write for it, goes into
   the window's request row in one :meth:`Window.program` call: the
   next batch steps on it, and the write-back hands it to the chip's
   registers, requests and P-state view.
4. **Commit.**  Each daemon gets the state its own iteration would have
   left, and its history one row of the pass's sample block
   (:class:`_Samples`), which becomes the :class:`DaemonSample` its
   iteration would have recorded only when read.  The deadline's
   counters and sample stay in :class:`_Latches` as the daemon's next
   baseline; they reach ``turbostat._previous`` and ``_last_good`` when
   the window writes the chip back — at window end, or before anything
   reads the daemon's objects.

No MSR read or write, counter snapshot, turbostat sample or daemon
sample is built per deadline.  The daemon and policy objects stay the
state of record for the policy; the pass's output is bit-identical to
:meth:`PowerDaemon.iteration`, which stays the fallback and the oracle
(DESIGN §13.6): a daemon the pass cannot reproduce exactly is found
before anything is mutated and is left to its own iteration, which the
engine runs on the written-back chip.  Bit identity rests on three
rules besides §13.1's:

* claim sums are left folds column by column in app order, as
  :func:`repro.core.minfund.left_sum` adds them;
* Python's ``min``/``max`` keep their first argument on ties and NaN,
  so they are spelled ``np.where(b < a, b, a)``, never ``np.minimum``;
* counters convert to integers exactly (below 2**62) and their deltas
  to float exactly (below 2**53), or the daemon falls back.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.daemon import (
    DaemonMode,
    DaemonSample,
    HealthRecord,
    PowerDaemon,
    Reading,
)
from repro.core.frequency_shares import FrequencySharesPolicy
from repro.errors import FrequencyError
from repro.hw import msr as msrdef
from repro.sim.engine import DueCall
from repro.sim.soa import Window
from repro.telemetry.counters import CounterSnapshot
from repro.telemetry.turbostat import CoreStats, TurbostatSample
from repro.units import quantize_nearest

#: fewest eligible daemons of one shape (platform grid and app count)
#: for which a pass beats their per-node iterations.  Measured: see
#: DESIGN §13.6.
DAEMON_GANG_MIN = 10

#: bisection passes of :func:`repro.core.minfund.proportional_targets`.
_BISECTION_PASSES = 80

#: counter deltas below this convert to float64 exactly.
_EXACT_DELTA = np.uint64(1 << 53)

_Lane = tuple[PowerDaemon, float, DueCall]


def step_daemons(due: list[DueCall], window: Window) -> list[DueCall]:
    """Batch entry point: the effect of ``callback(now_s)`` for each pair
    it takes; returns the rest for the engine to fire in place.

    The callbacks are daemons' bound :meth:`PowerDaemon.iteration`.
    Daemons that can join the pass are grouped by array shape; a group
    of at least :data:`DAEMON_GANG_MIN` runs one pass, and everything
    else — ineligible daemons, samples that fail validation, groups too
    narrow to pay off — is left to its own iteration.
    """
    fallback: list[DueCall] = []
    groups: dict[tuple[object, ...], list[_Lane]] = {}
    wide = len(due) >= DAEMON_GANG_MIN
    for call in due:
        callback, now_s = call
        daemon = getattr(callback, "__self__", None)
        if (
            wide
            and isinstance(daemon, PowerDaemon)
            and window.holds(daemon.chip)
            and _joins(daemon)
        ):
            groups.setdefault(_shape(daemon), []).append(
                (daemon, now_s, call)
            )
        else:
            fallback.append(call)
    for lanes in groups.values():
        fallback.extend(lane[2] for lane in _run_pass(lanes, window))
    return fallback


def _joins(daemon: PowerDaemon) -> bool:
    """Whether the pass reproduces this daemon's iteration, sample and
    claims permitting (see :func:`_run_pass`)."""
    policy = daemon.policy
    return (
        daemon._mode is DaemonMode.NORMAL
        and not daemon._safe_latched
        and not daemon._quarantine
        and not daemon._fault_parked
        and daemon.turbostat.primed
        and daemon.msr is daemon.chip.msr
        and type(policy) is FrequencySharesPolicy
        and daemon.chip.platform.simultaneous_pstates >= len(policy.apps)
    )


def _shape(daemon: PowerDaemon) -> tuple[object, ...]:
    """What daemons sharing one set of dense arrays must agree on."""
    platform = daemon.chip.platform
    return (
        platform.vendor,
        platform.n_cores,
        platform.has_per_core_energy,
        platform.pstates.frequencies_mhz,
        len(daemon.policy.apps),
        daemon.chip.tick_s,
    )


def _run_pass(lanes: list[_Lane], window: Window) -> list[_Lane]:
    """One lockstep iteration of same-shape daemons.

    Returns the lanes left to their own iteration, untouched: all of
    them when fewer than :data:`DAEMON_GANG_MIN` are eligible.
    """
    if len(lanes) < DAEMON_GANG_MIN:
        return lanes
    first = lanes[0][0]
    grid = first.chip.platform.pstates.frequencies_mhz
    try:
        requests = [first.cpufreq.pstate_request(f) for f in grid]
    except FrequencyError:
        return lanes  # a grid point the register cannot encode
    latches = window.rider(_Latches)
    assert isinstance(latches, _Latches)
    telemetry = _Telemetry(lanes, window, latches)
    claims = _Claims(lanes)
    ok = telemetry.valid & claims.valid
    if np.count_nonzero(ok) < DAEMON_GANG_MIN:
        return lanes
    rows = np.flatnonzero(ok).tolist()

    # -- policy: the state machine per daemon, then one refill for all --
    floor_sum = claims.floor_sum.tolist()
    ceil_sum = claims.ceil_sum.tolist()
    pools: list[float] = []
    refilled: list[int] = []
    for row in rows:
        daemon = lanes[row][0]
        policy = daemon.policy
        assert isinstance(policy, FrequencySharesPolicy)
        pool = policy.step_pool(
            policy.limit_w - telemetry.pkg_w[row],
            daemon._iteration + 1,
            floor_sum[row],
            ceil_sum[row],
        )
        if pool is not None:
            pools.append(pool)
            refilled.append(row)
    if refilled:
        refill = _refill(
            np.array(pools),
            claims.shares[refilled],
            claims.lo[refilled],
            claims.hi[refilled],
            claims.floor_sum[refilled],
            claims.ceil_sum[refilled],
        )
        for row, values in zip(refilled, refill.tolist()):
            daemon = lanes[row][0]
            daemon.policy._targets = dict(zip(daemon._core_of, values))

    # -- quantise, program, commit ----------------------------------------
    taken = [lanes[row][0] for row in rows]
    targets = np.array([
        list(map(daemon.policy._targets.__getitem__, daemon._core_of))
        for daemon in taken
    ])
    cores = np.array([list(daemon._core_of.values()) for daemon in taken])
    levels = _quantize(targets, grid)
    window.program(
        [daemon.chip for daemon in taken],
        cores,
        np.array(grid)[levels],
        np.array([value for _, value in requests], dtype=np.int64)[levels],
        requests[0][0],
    )
    samples = _Samples(telemetry, rows, taken, cores, targets)
    for j, daemon in enumerate(taken):
        chip = daemon.chip
        fail_streak = daemon._core_fail_streak
        for core_id in daemon._core_of.values():
            fail_streak[core_id] = 0
            if chip.cores[core_id].parked:
                chip.park(core_id, False)
        daemon._iteration += 1
        daemon._iter_retries = 0
        daemon._iter_failed_writes = 0
        daemon._targets = dict(daemon.policy._targets)
        daemon._policy_parked = set()
        daemon._consecutive_failures = 0
        daemon.history.append_row(samples, j)
    latches.commit(telemetry, rows, taken)
    return [lanes[row] for row in np.flatnonzero(~ok).tolist()]


class _Claims:
    """Each daemon's frequency claims as ``(daemons × apps)`` arrays."""

    def __init__(self, lanes: list[_Lane]):
        policies = [daemon.policy for daemon, _, _ in lanes]
        self.shares = np.array([p.claim_shares for p in policies])
        self.hi = np.array([p.claim_ceilings_mhz for p in policies])
        floor = np.array([p.min_frequency for p in policies])
        self.lo = np.broadcast_to(floor[:, None], self.hi.shape)
        #: claims ``Claim`` accepts (shares are positive by
        #: ``ManagedApp``), over a positive floor, so no target can fail
        #: ``PolicyDecision.validate``
        self.valid = ~(self.lo > self.hi).any(axis=1) & (floor > 0)
        self.floor_sum = _left_fold(self.lo)
        self.ceil_sum = _left_fold(self.hi)


class _Telemetry:
    """One turbostat interval for every daemon, as arrays.

    Mirrors :meth:`Turbostat.sample` (:class:`CounterDelta`'s operation
    order) and :meth:`PowerDaemon._validate`, on the counters
    ``flush_counters`` would publish — read from the window's arrays —
    against each daemon's baseline (:class:`_Latches`).
    """

    def __init__(
        self, lanes: list[_Lane], window: Window, latches: "_Latches"
    ):
        platform = lanes[0][0].chip.platform
        n_cores = platform.n_cores
        self.per_core_energy = platform.has_per_core_energy
        daemons = [daemon for daemon, _, _ in lanes]
        chips = [daemon.chip for daemon in daemons]
        self.at = [window.index(chip) for chip in chips]
        self.current = current = window.counters(chips)
        previous = latches.baselines(self.at, daemons, n_cores)
        self.now = np.array([now_s for _, now_s, _ in lanes])
        dt_s = self.now - previous.stamp

        d_aperf = current.aperf - previous.aperf
        d_mperf = current.mperf - previous.mperf
        d_instr = current.instructions - previous.instructions
        energy_mask = np.uint64(msrdef.ENERGY_COUNTER_MASK)
        d_pkg = (current.pkg_uj - previous.pkg_uj) & energy_mask
        deltas = [d_aperf, d_mperf, d_instr, d_pkg[:, None]]
        if self.per_core_energy:
            d_core = (current.core_uj - previous.core_uj) & energy_mask
            deltas.append(d_core)
        exact = current.fits.copy()
        for delta in deltas:
            exact &= (delta < _EXACT_DELTA).all(axis=1)

        tsc_mhz = np.array(
            [daemon.turbostat._tsc_mhz for daemon in daemons]
        )[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            mperf_f = d_mperf.astype(np.float64)
            freq = np.where(
                d_mperf == 0, 0.0, tsc_mhz * d_aperf.astype(np.float64) / mperf_f
            )
            busy = mperf_f / (tsc_mhz * 1e6 * dt_s[:, None])
            busy = np.where(busy < 1.0, busy, 1.0)
            ips = d_instr.astype(np.float64) / dt_s[:, None]
            pkg_w = d_pkg.astype(np.float64) * 1e-6 / dt_s
            core_w = None
            if self.per_core_energy:
                core_w = d_core.astype(np.float64) * 1e-6 / dt_s[:, None]

        bounds = [daemon.plausible_bounds() for daemon in daemons]
        min_power, max_power, max_freq, max_ips = (
            np.array(column) for column in zip(*bounds)
        )
        valid = (
            exact
            & ~(dt_s <= 0)
            & (min_power <= pkg_w) & (pkg_w <= max_power)
            & ((0.0 <= freq) & (freq <= max_freq[:, None])).all(axis=1)
            & ((0.0 <= busy) & (busy <= 1.0)).all(axis=1)
            & ((0.0 <= ips) & (ips <= max_ips[:, None])).all(axis=1)
        )
        if core_w is not None:
            valid &= (
                (0.0 <= core_w) & (core_w <= max_power[:, None])
            ).all(axis=1)
        self.valid = valid
        self.n_cores = n_cores
        self.dt = dt_s
        self.arrays = (freq, busy, ips, core_w, pkg_w)
        self.pkg_w = pkg_w.tolist()


class _Samples:
    """The samples one pass derived, one row per daemon it took, kept as
    rows: each is the :class:`DaemonSample` :meth:`PowerDaemon._record`
    builds for a fresh, valid iteration, built only when read
    (:class:`~repro.core.daemon.SampleHistory`)."""

    def __init__(
        self,
        telemetry: _Telemetry,
        rows: list[int],
        daemons: list[PowerDaemon],
        cores: np.ndarray,
        targets: np.ndarray,
    ):
        at = np.asarray(rows)
        freq, _, ips, core_w, pkg_w = telemetry.arrays
        self.core_of = [daemon._core_of for daemon in daemons]
        #: each daemon's iteration count after the pass
        self.iteration = [daemon._iteration + 1 for daemon in daemons]
        self.counts = [
            (daemon._safe_mode_entries, daemon._contained_errors)
            for daemon in daemons
        ]
        self.now = telemetry.now[at]
        self.pkg = pkg_w[at]
        # per app, in each daemon's app order
        self.freq = np.take_along_axis(freq[at], cores, axis=1)
        self.ips = np.take_along_axis(ips[at], cores, axis=1)
        self.power = (
            None if core_w is None
            else np.take_along_axis(core_w[at], cores, axis=1)
        )
        self.targets = targets
        self._lists: tuple[list, ...] | None = None

    def _rows(self) -> tuple[list, ...]:
        """The rows as Python floats, converted once."""
        if self._lists is None:
            self._lists = tuple(
                None if rows is None else rows.tolist()
                for rows in (self.now, self.pkg, self.freq, self.ips,
                             self.power, self.targets)
            )
        return self._lists

    def reading(self, row: int) -> Reading:
        _, pkg, freq, _, _, _ = self._rows()
        # nothing is parked: the pass takes no daemon with fail-safe
        # parking or quarantine, and it clears policy parking
        return Reading(pkg[row], freq[row], 0, 0, DaemonMode.NORMAL.value)

    def sample(self, row: int) -> DaemonSample:
        now, pkg, freq, ips, power, targets = self._rows()
        core_of = self.core_of[row]
        safe_mode_entries, contained_errors = self.counts[row]
        return DaemonSample(
            iteration=self.iteration[row],
            time_s=now[row],
            package_power_w=pkg[row],
            app_frequency_mhz=dict(zip(core_of, freq[row])),
            app_ips=dict(zip(core_of, ips[row])),
            app_power_w=(
                dict.fromkeys(core_of) if power is None
                else dict(zip(core_of, power[row]))
            ),
            app_parked=dict.fromkeys(core_of, False),
            targets_mhz=dict(zip(core_of, targets[row])),
            health=HealthRecord(
                mode=DaemonMode.NORMAL.value,
                safe_mode_entries=safe_mode_entries,
                contained_errors=contained_errors,
            ),
        )


class _Baselines(NamedTuple):
    aperf: np.ndarray
    mperf: np.ndarray
    instructions: np.ndarray
    core_uj: np.ndarray
    pkg_uj: np.ndarray
    stamp: np.ndarray


class _Latches:
    """What the pass leaves each daemon between deadlines of a window.

    A :class:`~repro.sim.soa.Rider` of the lockstep window: per chip,
    the counters of the last deadline the pass took (its daemon's
    turbostat baseline) and the sample it derived (the last good one),
    kept as arrays.  They reach ``turbostat._previous`` and
    ``_last_good`` only when the window writes the chip back; after
    that the daemon's objects are the baseline of record again.
    """

    def __init__(self, window: Window):
        k = len(window.chips)
        shape = (k, max(len(chip.cores) for chip in window.chips))
        self.daemons: list[PowerDaemon | None] = [None] * k
        #: the arrays hold the daemon's current baseline
        self.known = [False] * k
        #: ... which its objects do not have yet
        self.pending = [False] * k
        self.aperf = np.zeros(shape, dtype=np.uint64)
        self.mperf = np.zeros(shape, dtype=np.uint64)
        self.instructions = np.zeros(shape, dtype=np.uint64)
        self.core_uj = np.zeros(shape, dtype=np.uint64)
        self.pkg_uj = np.zeros(k, dtype=np.uint64)
        self.stamp = np.zeros(k)
        self.freq = np.zeros(shape)
        self.busy = np.zeros(shape)
        self.ips = np.zeros(shape)
        self.core_w = np.zeros(shape)
        self.pkg_w = np.zeros(k)
        self.interval = np.zeros(k)

    def baselines(
        self, at: list[int], daemons: list[PowerDaemon], n: int
    ) -> _Baselines:
        """The baselines of chips ``at``, loading any the arrays do not
        hold from the daemon's turbostat."""
        for i, daemon in zip(at, daemons):
            if self.known[i]:
                continue
            last = daemon.turbostat._previous
            assert last is not None
            self.aperf[i, :n] = last.aperf
            self.mperf[i, :n] = last.mperf
            self.instructions[i, :n] = last.instructions
            if last.core_energy_uj is not None:
                self.core_uj[i, :n] = last.core_energy_uj
            self.pkg_uj[i] = last.pkg_energy_uj
            self.stamp[i] = last.timestamp_s
            self.known[i] = True
        rows = np.asarray(at)
        return _Baselines(
            self.aperf[rows, :n],
            self.mperf[rows, :n],
            self.instructions[rows, :n],
            self.core_uj[rows, :n],
            self.pkg_uj[rows],
            self.stamp[rows],
        )

    def commit(
        self, telemetry: _Telemetry, rows: list[int],
        daemons: list[PowerDaemon],
    ) -> None:
        """Latch the deadline's counters and samples of rows the pass
        took as those daemons' baselines."""
        n = telemetry.n_cores
        at = np.asarray(telemetry.at)[rows]
        current = telemetry.current
        self.aperf[at, :n] = current.aperf[rows]
        self.mperf[at, :n] = current.mperf[rows]
        self.instructions[at, :n] = current.instructions[rows]
        self.core_uj[at, :n] = current.core_uj[rows]
        self.pkg_uj[at] = current.pkg_uj[rows]
        self.stamp[at] = telemetry.now[rows]
        self.interval[at] = telemetry.dt[rows]
        freq, busy, ips, core_w, pkg_w = telemetry.arrays
        self.freq[at, :n] = freq[rows]
        self.busy[at, :n] = busy[rows]
        self.ips[at, :n] = ips[rows]
        if core_w is not None:
            self.core_w[at, :n] = core_w[rows]
        self.pkg_w[at] = pkg_w[rows]
        for i, daemon in zip(at.tolist(), daemons):
            self.daemons[i] = daemon
            self.known[i] = True
            self.pending[i] = True

    def write_back(self, index: int) -> None:
        """Leave the turbostat baseline and last good sample a fresh,
        valid :meth:`Turbostat.sample` would have left at the chip's
        last pass deadline."""
        self.known[index] = False
        if not self.pending[index]:
            return
        self.pending[index] = False
        daemon = self.daemons[index]
        assert daemon is not None
        platform = daemon.chip.platform
        n = platform.n_cores
        per_core = platform.has_per_core_energy
        stamp = self.stamp[index].item()
        daemon.turbostat._previous = CounterSnapshot(
            timestamp_s=stamp,
            aperf=tuple(self.aperf[index, :n].tolist()),
            mperf=tuple(self.mperf[index, :n].tolist()),
            instructions=tuple(self.instructions[index, :n].tolist()),
            pkg_energy_uj=int(self.pkg_uj[index]),
            core_energy_uj=(
                tuple(self.core_uj[index, :n].tolist()) if per_core else None
            ),
        )
        daemon._last_good = TurbostatSample(
            timestamp_s=stamp,
            interval_s=self.interval[index].item(),
            package_power_w=self.pkg_w[index].item(),
            cores=tuple(
                map(
                    CoreStats,
                    range(n),
                    self.freq[index, :n].tolist(),
                    self.busy[index, :n].tolist(),
                    self.ips[index, :n].tolist(),
                    self.core_w[index, :n].tolist() if per_core
                    else [None] * n,
                )
            ),
        )


def _left_fold(columns: np.ndarray) -> np.ndarray:
    """Row sums ``((0.0 + c0) + c1) + ...`` in column order."""
    total = np.zeros(columns.shape[0])
    for j in range(columns.shape[1]):
        total = total + columns[:, j]
    return total


def _clamp(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Python's ``min(max(x, lo), hi)``, elementwise."""
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def _refill(
    total: np.ndarray,
    shares: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    floor_sum: np.ndarray,
    ceil_sum: np.ndarray,
) -> np.ndarray:
    """:func:`repro.core.minfund.proportional_targets` of every row.

    Each row runs the scalar bisection's exact ``mid``/``placed``
    sequence; the loop may stop early only once no row changes, since a
    row whose pass left it unchanged repeats that pass forever.
    """
    out = np.where((total <= floor_sum)[:, None], lo, hi)
    inside = ~(total <= floor_sum) & ~(total >= ceil_sum)
    if not inside.any():
        return out
    total, shares, lo, hi = total[inside], shares[inside], lo[inside], hi[inside]
    ratio = hi / shares
    hi_level = ratio[:, 0]
    for j in range(1, ratio.shape[1]):
        hi_level = np.where(ratio[:, j] > hi_level, ratio[:, j], hi_level)
    lo_level = np.zeros_like(hi_level)
    for _ in range(_BISECTION_PASSES):
        mid = (lo_level + hi_level) / 2
        below = _left_fold(_clamp(mid[:, None] * shares, lo, hi)) < total
        settled = np.where(below, mid == lo_level, mid == hi_level)
        lo_level = np.where(below, mid, lo_level)
        hi_level = np.where(below, hi_level, mid)
        # a zero midpoint never settles: 0.0 == -0.0, yet the state moved
        # repro-lint: disable=float-equality — exact zero test, as in minfund
        if (settled & (mid != 0.0)).all():
            break
    level = (lo_level + hi_level) / 2
    out[inside] = _clamp(level[:, None] * shares, lo, hi)
    return out


def _quantize(targets: np.ndarray, grid: tuple[float, ...]) -> np.ndarray:
    """Grid index of :func:`~repro.units.quantize_nearest` of each target.

    The nearer of the two bisection neighbours, ties to the lower; the
    rare target whose left distance ties a farther point too (or NaN)
    takes the scalar rule.
    """
    points = np.array(grid)
    last = len(grid) - 1
    right = np.searchsorted(points, targets, side="left")
    left = np.maximum(right - 1, 0)
    d_left = np.abs(points[left] - targets)
    d_right = np.abs(points[np.minimum(right, last)] - targets)
    index = np.where(
        (right == 0) | ((right <= last) & (d_right < d_left)), right, left
    )
    odd = np.isnan(targets) | (
        (right > 1) & (np.abs(points[np.maximum(left - 1, 0)] - targets)
                       <= d_left)
    )
    if odd.any():
        positions = {f: i for i, f in enumerate(grid)}
        for at in zip(*np.nonzero(odd)):
            index[at] = positions[quantize_nearest(float(targets[at]), grid)]
    return index
