"""One lockstep power-daemon pass across a stacked fleet.

At every deadline of a cluster epoch hundreds of daemons wake at once,
each running the same Python chain: read the counters, run the policy,
quantise, program the cores, record a sample.  Under
:func:`repro.sim.engine.run_lockstep` their iterations arrive here
together (:meth:`PowerDaemon.attach` registers :func:`step_daemons` as
the batch entry point), and for the frequency-shares policy — the
cluster default — one pass does for all of them what
:meth:`PowerDaemon.iteration` does for one:

1. **Telemetry.**  Every chip's just-flushed counters are read once;
   per-core frequency, busy fraction and IPS plus package power come
   out of ``(daemons × cores)`` arrays with :class:`CounterDelta`'s
   operation order and the counters' wrap masks, and ``_validate``'s
   checks run as array comparisons.
2. **Policy.**  The probe/backoff state machine runs per daemon
   (:meth:`FrequencySharesPolicy.step_pool`), then one refill bisection
   runs across every daemon that needs one.
3. **Quantisation and programming.**  Targets snap to the grid with
   ``np.searchsorted`` under :func:`~repro.units.quantize_nearest`'s
   rule and are written through the MSR file exactly as
   :meth:`CpuFreqInterface.set_speed_mhz` writes them.
4. **Commit.**  Each daemon gets the counter snapshot, last good
   sample, state and :class:`DaemonSample` its own iteration would have
   left.

The daemon, policy, turbostat, MSR and chip objects stay the single
source of truth, and the pass keeps nothing between calls.  Its output
is bit-identical to :meth:`PowerDaemon.iteration`, which stays the
fallback and the oracle (DESIGN §13.6): a daemon the pass cannot
reproduce exactly is found before anything is mutated and runs its own
iteration.  Bit identity rests on three rules besides §13.1's:

* claim sums are left folds column by column in app order, as
  :func:`repro.core.minfund.left_sum` adds them;
* Python's ``min``/``max`` keep their first argument on ties and NaN,
  so they are spelled ``np.where(b < a, b, a)``, never ``np.minimum``;
* counter deltas convert to float exactly (below 2**53) or the daemon
  falls back.
"""

from __future__ import annotations

import numpy as np

from repro.core.daemon import DaemonMode, PowerDaemon
from repro.core.frequency_shares import FrequencySharesPolicy
from repro.errors import FrequencyError
from repro.hw import msr as msrdef
from repro.sim.engine import DueCall
from repro.telemetry.counters import CounterSnapshot, package_energy_address
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


def step_daemons(due: list[DueCall]) -> None:
    """Batch entry point: the effect of ``callback(now_s)`` for each pair.

    The callbacks are daemons' bound :meth:`PowerDaemon.iteration`.
    Daemons that can join the pass are grouped by array shape; a group
    of at least :data:`DAEMON_GANG_MIN` runs one pass, and everything
    else — ineligible daemons, samples that fail validation, groups too
    narrow to pay off — is called as it is.
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
            and _joins(daemon)
        ):
            groups.setdefault(_shape(daemon), []).append(
                (daemon, now_s, call)
            )
        else:
            fallback.append(call)
    for lanes in groups.values():
        fallback.extend(lane[2] for lane in _run_pass(lanes))
    for callback, now_s in fallback:
        callback(now_s)


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
    )


def _run_pass(lanes: list[_Lane]) -> list[_Lane]:
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
    telemetry = _Telemetry(lanes)
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
    targets = [
        list(map(daemon.policy._targets.__getitem__, daemon._core_of))
        for daemon in (lanes[row][0] for row in rows)
    ]
    levels = _quantize(np.array(targets), grid).tolist()
    for row, row_levels in zip(rows, levels):
        daemon, now_s, _ = lanes[row]
        sample = telemetry.commit(row, daemon, now_s)
        chip = daemon.chip
        write = daemon.msr.write
        fail_streak = daemon._core_fail_streak
        for core_id, level in zip(daemon._core_of.values(), row_levels):
            write(core_id, *requests[level])
            fail_streak[core_id] = 0
            chip.park(core_id, False)
        daemon._iteration += 1
        daemon._iter_retries = 0
        daemon._iter_failed_writes = 0
        daemon._targets = dict(daemon.policy._targets)
        daemon._policy_parked = set()
        daemon._consecutive_failures = 0
        daemon.history.append(daemon._record(now_s, sample, True, False))
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
    order) and :meth:`PowerDaemon._validate`.
    """

    def __init__(self, lanes: list[_Lane]):
        platform = lanes[0][0].chip.platform
        n_cores = platform.n_cores
        pkg_address = package_energy_address(platform)
        self.per_core_energy = platform.has_per_core_energy
        addresses = [msrdef.IA32_APERF, msrdef.IA32_MPERF,
                     msrdef.IA32_FIXED_CTR0]
        if self.per_core_energy:
            addresses.append(msrdef.MSR_AMD_CORE_ENERGY)
        current: list[list[list[int]]] = [[] for _ in addresses]
        current_pkg: list[int] = []
        previous: list[CounterSnapshot] = []
        dt: list[float] = []
        tsc: list[float] = []
        bounds: list[tuple[float, float, float, float]] = []
        for daemon, now_s, _ in lanes:
            msr = daemon.msr
            for rows, address in zip(current, addresses):
                rows.append(msr.read_all(address))
            current_pkg.append(msr.read(0, pkg_address))
            last = daemon.turbostat._previous
            assert last is not None
            previous.append(last)
            dt.append(now_s - last.timestamp_s)
            tsc.append(daemon.turbostat._tsc_mhz)
            bounds.append(daemon.plausible_bounds())
        self.current = current
        self.current_pkg = current_pkg
        self.dt = dt

        aperf, mperf, instr = (
            np.array(rows, dtype=np.uint64) for rows in current[:3]
        )
        d_aperf = aperf - np.array([p.aperf for p in previous], np.uint64)
        d_mperf = mperf - np.array([p.mperf for p in previous], np.uint64)
        d_instr = instr - np.array(
            [p.instructions for p in previous], np.uint64
        )
        energy_mask = np.uint64(msrdef.ENERGY_COUNTER_MASK)
        d_pkg = (
            np.array(current_pkg, np.uint64)
            - np.array([p.pkg_energy_uj for p in previous], np.uint64)
        ) & energy_mask
        deltas = [d_aperf, d_mperf, d_instr, d_pkg[:, None]]
        if self.per_core_energy:
            d_core = (
                np.array(current[3], np.uint64)
                - np.array([p.core_energy_uj for p in previous], np.uint64)
            ) & energy_mask
            deltas.append(d_core)
        exact = np.ones(len(lanes), dtype=bool)
        for delta in deltas:
            exact &= (delta < _EXACT_DELTA).all(axis=1)

        dt_s = np.array(dt)
        tsc_mhz = np.array(tsc)[:, None]
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
        self.pkg_w = pkg_w.tolist()
        self.n_cores = n_cores
        self.freq = freq.tolist()
        self.busy = busy.tolist()
        self.ips = ips.tolist()
        self.core_w = (
            core_w.tolist() if core_w is not None
            else [[None] * n_cores] * len(lanes)
        )

    def commit(
        self, row: int, daemon: PowerDaemon, now_s: float
    ) -> TurbostatSample:
        """Leave the turbostat baseline and last good sample a fresh,
        valid :meth:`Turbostat.sample` would have left; return the
        sample."""
        current = self.current
        daemon.turbostat._previous = CounterSnapshot(
            timestamp_s=now_s,
            aperf=tuple(current[0][row]),
            mperf=tuple(current[1][row]),
            instructions=tuple(current[2][row]),
            pkg_energy_uj=self.current_pkg[row],
            core_energy_uj=(
                tuple(current[3][row]) if self.per_core_energy else None
            ),
        )
        sample = TurbostatSample(
            timestamp_s=now_s,
            interval_s=self.dt[row],
            package_power_w=self.pkg_w[row],
            cores=tuple(
                map(
                    CoreStats,
                    range(self.n_cores),
                    self.freq[row],
                    self.busy[row],
                    self.ips[row],
                    self.core_w[row],
                )
            ),
        )
        daemon._last_good = sample
        return sample


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
