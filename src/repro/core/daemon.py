"""The userspace power daemon (paper section 5), hardened.

``PowerDaemon`` is the component the paper actually built: it "takes a
list of programs as input with their priority and shares", pins them,
"then runs a monitoring loop.  In every loop iteration (1 second in our
implementation), it reads processor statistics, including power
(per-core or per-package), performance (retired instruction count), and
actual frequency" and re-programs P-states through the policy's
redistribution function.

The daemon owns the platform-level plumbing every policy shares:

* telemetry via the turbostat sampler,
* quantization of policy targets onto the DVFS grid,
* the Ryzen three-simultaneous-P-state reduction
  (:func:`repro.core.pstate_select.select_pstate_levels`),
* core parking for starved applications,
* programming frequencies through the cpufreq/MSR interface, and the
  hardware RAPL limit for the baseline policy.

A daemon that must keep a socket under its power limit for weeks cannot
die on the first flaky ``rdmsr``.  Every iteration is therefore
contained:

* telemetry reads that fail or flunk plausibility checks fall back to
  the last good sample (*holdover*) and never reach the policy,
* MSR writes get a bounded retry; a write abandoned after retries
  fail-safe **parks** the core (a core we cannot program must not keep
  burning at its stale frequency), and a core whose programming fails
  repeatedly is **quarantined** — parked and re-probed with exponential
  backoff,
* after ``safe_mode_after`` consecutive bad iterations the daemon
  escalates to **safe mode**: it re-arms the hardware RAPL backstop at
  the operator limit (where the platform has one), floors every core it
  can still program, and parks policy control until telemetry delivers
  ``recover_after`` consecutive good samples.

Each :class:`DaemonSample` carries a :class:`HealthRecord` so
experiments, the CLI, and the chaos suite can audit every retry,
holdover, quarantine, and mode transition.
"""

from __future__ import annotations

import enum
from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol, overload

from repro.errors import ConfigError, MSRError, ReproError
from repro.core.policy import Policy
from repro.core.pstate_select import select_pstate_levels
from repro.core.types import AppTelemetry, PolicyDecision, PolicyInputs
from repro.hw import msr as msrdef
from repro.hw.cpufreq import CpuFreqInterface
from repro.hw.msr import MSRFile
from repro.hw.rapl import encode_pkg_power_limit
from repro.sim.chip import Chip
from repro.sim.engine import SimEngine, TickGate
from repro.telemetry.turbostat import Turbostat, TurbostatSample


class DaemonMode(enum.Enum):
    """Control-loop operating mode."""

    NORMAL = "normal"
    SAFE = "safe"


@dataclass(frozen=True)
class ResilienceConfig:
    """Error-containment constants for the monitoring loop."""

    #: extra attempts after a failed MSR write (bounded retry).
    max_write_retries: int = 2
    #: consecutive bad iterations before escalating to safe mode.
    safe_mode_after: int = 5
    #: consecutive good (fresh, valid) samples required to leave safe mode.
    recover_after: int = 3
    #: consecutive abandoned writes on one core before quarantining it.
    quarantine_after: int = 3
    #: iterations between re-probes of a quarantined core (doubles on
    #: every failed probe, capped at 8x).
    quarantine_probe_every: int = 8
    #: plausibility: package/core power at most this multiple of TDP.
    max_plausible_power_factor: float = 3.0
    #: plausibility: per-core IPS at most ``ipc * max_frequency``.
    max_plausible_ipc: float = 8.0
    #: plausibility: frequency at most this multiple of the grid max.
    frequency_slack: float = 1.05
    #: plausibility: package power at least this multiple of the uncore
    #: floor (the uncore always draws; a 0 W package means a stuck
    #: energy counter, not an idle socket).
    min_power_uncore_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.max_write_retries < 0:
            raise ConfigError("max_write_retries cannot be negative")
        for name in ("safe_mode_after", "recover_after", "quarantine_after",
                     "quarantine_probe_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.frequency_slack < 1.0:
            raise ConfigError("frequency_slack must be >= 1")
        if self.max_plausible_power_factor <= 0:
            raise ConfigError("max_plausible_power_factor must be positive")


@dataclass(frozen=True)
class HealthRecord:
    """Degradation bookkeeping for one monitoring-loop iteration."""

    mode: str = DaemonMode.NORMAL.value
    #: this iteration's telemetry was fresh and passed validation.
    telemetry_ok: bool = True
    #: the policy/record ran on the last good sample instead.
    holdover: bool = False
    consecutive_failures: int = 0
    #: MSR write retries performed this iteration.
    retries: int = 0
    #: MSR writes abandoned after retries this iteration.
    failed_writes: int = 0
    #: cores currently quarantined.
    quarantined: tuple[int, ...] = ()
    #: cumulative safe-mode entries since start.
    safe_mode_entries: int = 0
    #: cumulative errors contained (never propagated) since start.
    contained_errors: int = 0


@dataclass(frozen=True)
class DaemonSample:
    """One monitoring-loop iteration, for experiment post-processing."""

    iteration: int
    time_s: float
    package_power_w: float
    app_frequency_mhz: dict[str, float]
    app_ips: dict[str, float]
    app_power_w: dict[str, float | None]
    app_parked: dict[str, bool]
    targets_mhz: dict[str, float]
    health: HealthRecord = field(default_factory=HealthRecord)


class Reading(NamedTuple):
    """What the cluster layer reads of one sample
    (:meth:`SampleHistory.readings`), without building it."""

    package_power_w: float
    #: per app, in app order
    app_frequency_mhz: Collection[float]
    #: parked apps
    parked: int
    #: quarantined cores
    quarantined: int
    mode: str


class SampleRows(Protocol):
    """Samples kept as rows, one per daemon (the lockstep pass's,
    :mod:`repro.core.gang`)."""

    def sample(self, row: int) -> DaemonSample:
        """The sample of ``row``, built."""

    def reading(self, row: int) -> Reading:
        """The reading of ``row``, without building its sample."""


class SampleHistory(Sequence[DaemonSample]):
    """A daemon's samples in iteration order.

    :meth:`PowerDaemon.iteration` appends built samples; the lockstep
    pass appends its row of a :class:`SampleRows` block instead, and a
    row becomes a :class:`DaemonSample` only when something reads it
    (then once: the sample replaces the row).  :meth:`readings` reads
    what the cluster layer needs from rows and samples alike.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: list[DaemonSample | tuple[SampleRows, int]] = []

    def append(self, sample: DaemonSample) -> None:
        self._entries.append(sample)

    def append_row(self, rows: SampleRows, row: int) -> None:
        self._entries.append((rows, row))

    def __len__(self) -> int:
        return len(self._entries)

    @overload
    def __getitem__(self, index: int) -> DaemonSample: ...

    @overload
    def __getitem__(self, index: slice) -> list[DaemonSample]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        entry = self._entries[index]
        if isinstance(entry, tuple):
            rows, row = entry
            entry = self._entries[index] = rows.sample(row)
        return entry

    def __iter__(self) -> Iterator[DaemonSample]:
        for index in range(len(self._entries)):
            yield self[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SampleHistory, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))

    def readings(self, start: int = 0) -> list[Reading]:
        """The readings of every sample from ``start`` on, in order."""
        readings = []
        for entry in self._entries[start:]:
            if isinstance(entry, tuple):
                readings.append(entry[0].reading(entry[1]))
                continue
            readings.append(Reading(
                entry.package_power_w,
                entry.app_frequency_mhz.values(),
                sum(1 for parked in entry.app_parked.values() if parked),
                len(entry.health.quarantined),
                entry.health.mode,
            ))
        return readings


@dataclass
class _QuarantineEntry:
    """Backoff state for one quarantined core."""

    countdown: int
    interval: int


class PowerDaemon:
    """Monitoring loop driving one policy over one chip."""

    def __init__(
        self,
        chip: Chip,
        policy: Policy,
        *,
        interval_s: float = 1.0,
        msr: MSRFile | None = None,
        resilience: ResilienceConfig | None = None,
    ):
        if interval_s <= 0:
            raise ConfigError("daemon interval must be positive")
        if policy.platform is not chip.platform:
            raise ConfigError("policy and chip platform specs differ")
        self.chip = chip
        self.policy = policy
        self.interval_s = interval_s
        self.resilience = resilience or ResilienceConfig()
        #: the daemon's register-file handle.  Defaults to the chip's;
        #: fault injection substitutes a proxy here so *only* the
        #: daemon's view is corrupted, never the simulator's.
        self.msr = msr if msr is not None else chip.msr
        self.cpufreq = CpuFreqInterface(chip.platform, self.msr)
        self.turbostat = Turbostat(chip.platform, self.msr)
        self._core_of = {app.label: app.core_id for app in policy.apps}
        self._label_of = {core: label for label, core in self._core_of.items()}
        self._iteration = 0
        self._targets: dict[str, float] = {}
        self._policy_parked: set[str] = set()
        self.history = SampleHistory()
        self._started = False
        # -- resilience state -------------------------------------------------
        self._mode = DaemonMode.NORMAL
        self._last_good: TurbostatSample | None = None
        self._consecutive_failures = 0
        self._consecutive_good = 0
        self._safe_mode_entries = 0
        #: an external supervisor (the cluster lease layer) pinned us in
        #: safe mode; telemetry recovery alone cannot exit while set.
        self._safe_latched = False
        self._contained_errors = 0
        self._core_fail_streak: dict[int, int] = {}
        self._quarantine: dict[int, _QuarantineEntry] = {}
        #: cores parked because programming them failed (fail-safe).
        self._fault_parked: set[int] = set()
        # per-iteration write accounting (reset each iteration)
        self._iter_retries = 0
        self._iter_failed_writes = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Apply the policy's initial distribution and arm telemetry."""
        if self._started:
            raise ConfigError("daemon already started")
        if getattr(self.policy, "programs_hardware_limit", False):
            self.chip.set_rapl_limit(self.policy.limit_w)
        elif self.chip.rapl is not None:
            # software policies run with the hardware limiter at TDP, the
            # configuration the paper's daemon experiments use: the
            # policy enforces the operator limit, RAPL only backstops.
            self.chip.set_rapl_limit(self.chip.platform.power.tdp_watts)
        decision = self.policy.initial_distribution()
        self._apply(decision)
        try:
            self.turbostat.prime(self.chip.time_s)
        except ReproError:
            # a failed prime is the first telemetry fault: the first
            # iteration will re-prime (or hold over) instead of dying.
            self._contained_errors += 1
        self._started = True

    def attach(self, engine: SimEngine, *, gate: TickGate | None = None) -> None:
        """Register the monitoring loop with a simulation engine.

        ``gate`` forwards to :meth:`SimEngine.every` — the fault
        injector uses it to drop or jitter iterations.  Under
        :func:`~repro.sim.engine.run_lockstep` the iterations of many
        daemons due at one boundary go to the lockstep pass in
        :mod:`repro.core.gang`, which falls back to :meth:`iteration`
        for every daemon it cannot reproduce exactly.
        """
        from repro.core.gang import step_daemons

        if not self._started:
            self.start()
        engine.every(
            self.interval_s, self.iteration, gate=gate, batch=step_daemons
        )

    # -- introspection -----------------------------------------------------------

    @property
    def mode(self) -> DaemonMode:
        return self._mode

    @property
    def safe_latched(self) -> bool:
        """Whether a supervisor latch is pinning the daemon in safe mode."""
        return self._safe_latched

    @property
    def quarantined_cores(self) -> tuple[int, ...]:
        return tuple(sorted(self._quarantine))

    @property
    def _parked(self) -> set[str]:
        """All parked labels: policy decisions plus fail-safe parking."""
        return self._policy_parked | {
            self._label_of[c]
            for c in (self._fault_parked | set(self._quarantine))
        }

    # -- one loop iteration ------------------------------------------------------

    def iteration(self, now_s: float) -> DaemonSample:
        """Read statistics, run the policy, program the hardware.

        Never raises :class:`~repro.errors.ReproError`: telemetry,
        policy, and programming failures are contained, counted, and —
        past the escalation threshold — answered with safe mode.
        """
        self._iteration += 1
        self._iter_retries = 0
        self._iter_failed_writes = 0
        sample, fresh, holdover = self._acquire_sample(now_s)
        iteration_ok = fresh

        if self._mode is DaemonMode.NORMAL:
            if fresh and sample is not None:
                try:
                    decision = self.policy.redistribute(
                        self._build_inputs(sample)
                    )
                    self._apply(decision)
                except ReproError:
                    self._contained_errors += 1
                    iteration_ok = False
            # stale telemetry: hold the last programmed targets — a
            # policy step on frozen inputs would integrate the same
            # error every iteration and wind the targets away.
            if self._iter_failed_writes:
                iteration_ok = False
            if iteration_ok:
                self._consecutive_failures = 0
            else:
                self._consecutive_failures += 1
                if (
                    self._consecutive_failures
                    >= self.resilience.safe_mode_after
                ):
                    self._enter_safe_mode()
        else:  # SAFE: keep the backstop armed, wait for telemetry
            self._arm_backstop()
            if fresh:
                self._consecutive_good += 1
                if (
                    self._consecutive_good >= self.resilience.recover_after
                    and not self._safe_latched
                ):
                    self._exit_safe_mode()
            else:
                self._consecutive_good = 0
                self._consecutive_failures += 1

        self._tick_quarantine()
        record = self._record(now_s, sample, fresh, holdover)
        self.history.append(record)
        return record

    # -- telemetry acquisition and validation --------------------------------------

    def _acquire_sample(
        self, now_s: float
    ) -> tuple[TurbostatSample | None, bool, bool]:
        """Sample telemetry with validation and last-good holdover.

        Returns ``(sample, fresh, holdover)``: ``fresh`` means this
        iteration produced a valid new sample; ``holdover`` means the
        returned sample is the stale last-good one.
        """
        sample: TurbostatSample | None = None
        try:
            if self.turbostat.primed:
                sample = self.turbostat.sample(now_s)
            else:
                # prime failed earlier (start-time fault); re-prime so
                # the *next* iteration has an interval to report.
                self.turbostat.prime(now_s)
        except ReproError:
            self._contained_errors += 1
        if sample is not None:
            if self._validate(sample):
                self._last_good = sample
                return sample, True, False
            self._contained_errors += 1
        if self._last_good is not None:
            return self._last_good, False, True
        return None, False, False

    def plausible_bounds(self) -> tuple[float, float, float, float]:
        """``(min_power_w, max_power_w, max_freq_mhz, max_ips)`` of a
        plausible sample (see :meth:`_validate`)."""
        cfg = self.resilience
        power = self.chip.platform.power
        max_mhz = self.chip.platform.max_frequency_mhz
        return (
            cfg.min_power_uncore_factor * power.uncore_watts,
            cfg.max_plausible_power_factor * power.tdp_watts,
            max_mhz * cfg.frequency_slack,
            cfg.max_plausible_ipc * max_mhz * 1e6,
        )

    def _validate(self, sample: TurbostatSample) -> bool:
        """Reject physically implausible samples (garbage counters)."""
        if sample.interval_s <= 0:
            return False
        min_power, max_power, max_freq, max_ips = self.plausible_bounds()
        if not min_power <= sample.package_power_w <= max_power:
            return False
        for stats in sample.cores:
            if not 0.0 <= stats.active_frequency_mhz <= max_freq:
                return False
            if not 0.0 <= stats.busy_fraction <= 1.0:
                return False
            if not 0.0 <= stats.ips <= max_ips:
                return False
            if stats.power_w is not None and not (
                0.0 <= stats.power_w <= max_power
            ):
                return False
        return True

    # -- safe mode ------------------------------------------------------------------

    def _enter_safe_mode(self) -> None:
        self._mode = DaemonMode.SAFE
        self._safe_mode_entries += 1
        self._consecutive_good = 0
        self._arm_backstop()

    def _arm_backstop(self) -> None:
        """Bound package power without trusting telemetry.

        Re-arms the hardware RAPL limiter at the *operator* limit where
        the platform has one, and floors every core we can still
        program — together they hold power below the limit even if
        counters keep lying.
        """
        if self.chip.rapl is not None:
            # the hardware limiter only accepts its supported range: an
            # operator limit below it (a cluster floor cap) arms the
            # closest programmable backstop instead of failing the write
            lo, hi = self.chip.platform.rapl_limit_range_w
            backstop_w = min(max(self.policy.limit_w, lo), hi)
            self._write_with_retry(
                0,
                msrdef.MSR_PKG_POWER_LIMIT,
                encode_pkg_power_limit(backstop_w),
            )
        floor = self.chip.platform.policy_floor_mhz
        for label, core_id in self._core_of.items():
            if core_id in self._quarantine:
                continue
            if self._program_core(core_id, floor):
                # a floored core is not parked: the app keeps running,
                # just at the minimum the policy would ever grant.
                if label not in self._policy_parked:
                    self._unpark_if_fault_parked(core_id)

    def force_safe_mode(self) -> None:
        """Latch safe mode on a supervisor's order.

        The cluster lease layer calls this when the node's cap lease
        has expired past its TTL: the control plane is unreachable, so
        the RAPL backstop becomes the enforcement of record.  The latch
        holds through telemetry recovery — only
        :meth:`release_safe_mode` (a renewed lease) lets the daemon
        resume policy control.
        """
        self._safe_latched = True
        if self._mode is not DaemonMode.SAFE:
            self._enter_safe_mode()

    def release_safe_mode(self) -> None:
        """Drop the supervisor latch; telemetry recovery resumes.

        The normal ``recover_after`` streak of good samples still gates
        the exit, so a renewed lease on a still-sick node keeps the
        backstop armed.  A node whose streak is *already* satisfied —
        it proved health while the latch held — exits immediately:
        making it start the streak over would punish it for having been
        latched, and a single stale sample between release and the next
        good one would otherwise zero the proven streak.
        """
        self._safe_latched = False
        if (
            self._mode is DaemonMode.SAFE
            and self._consecutive_good >= self.resilience.recover_after
        ):
            self._exit_safe_mode()

    def _exit_safe_mode(self) -> None:
        self._mode = DaemonMode.NORMAL
        self._consecutive_failures = 0
        self._consecutive_good = 0
        if self.chip.rapl is not None and not getattr(
            self.policy, "programs_hardware_limit", False
        ):
            # restore the TDP backstop the software policies run under
            self._write_with_retry(
                0,
                msrdef.MSR_PKG_POWER_LIMIT,
                encode_pkg_power_limit(self.chip.platform.power.tdp_watts),
            )
        try:
            self._apply(self.policy.initial_distribution())
        except ReproError:
            self._contained_errors += 1

    # -- programming with containment -------------------------------------------------

    def _apply(self, decision: PolicyDecision) -> None:
        decision.validate(set(self._core_of))
        programs = getattr(self.policy, "programs_frequencies", True)
        running_targets = {
            label: freq
            for label, freq in decision.targets.items()
            if label not in decision.parked
            and self._core_of[label] not in self._quarantine
        }
        if running_targets and programs:
            quantized = select_pstate_levels(
                self.chip.platform, running_targets
            )
        else:
            quantized = {}
        for label, core_id in self._core_of.items():
            if core_id in self._quarantine:
                continue  # quarantined cores stay parked until probed
            if label in decision.parked:
                self.chip.park(core_id, True)
                continue
            if programs:
                if self._program_core(core_id, quantized[label]):
                    self._unpark_if_fault_parked(core_id)
                    self.chip.park(core_id, False)
            else:
                self.chip.park(core_id, False)
        self._targets = dict(decision.targets)
        self._policy_parked = set(decision.parked)

    def _program_core(self, core_id: int, freq_mhz: float) -> bool:
        """Program one core with bounded retry; fail-safe park on defeat.

        A core we cannot program would keep running at whatever stale
        frequency it last got — unbounded power the policy no longer
        accounts for — so an abandoned write parks it until a later
        write lands.  Repeated defeats quarantine the core.
        """
        cfg = self.resilience
        for attempt in range(cfg.max_write_retries + 1):
            if attempt:
                self._iter_retries += 1
            try:
                self.cpufreq.set_speed_mhz(core_id, freq_mhz)
                self._core_fail_streak[core_id] = 0
                return True
            except MSRError:
                self._contained_errors += 1
        self._iter_failed_writes += 1
        self.chip.park(core_id, True)
        self._fault_parked.add(core_id)
        streak = self._core_fail_streak.get(core_id, 0) + 1
        self._core_fail_streak[core_id] = streak
        if streak >= cfg.quarantine_after:
            base = cfg.quarantine_probe_every
            self._quarantine[core_id] = _QuarantineEntry(base, base)
        return False

    def _unpark_if_fault_parked(self, core_id: int) -> None:
        if core_id in self._fault_parked:
            self._fault_parked.discard(core_id)
            if self._label_of[core_id] not in self._policy_parked:
                self.chip.park(core_id, False)

    def _tick_quarantine(self) -> None:
        """Count down quarantine probes; release cores that respond."""
        cfg = self.resilience
        for core_id in list(self._quarantine):
            entry = self._quarantine[core_id]
            entry.countdown -= 1
            if entry.countdown > 0:
                continue
            try:
                # single probe write, no retries: backoff discipline
                self.cpufreq.set_speed_mhz(
                    core_id, self.chip.platform.policy_floor_mhz
                )
            except MSRError:
                self._contained_errors += 1
                entry.interval = min(
                    entry.interval * 2, cfg.quarantine_probe_every * 8
                )
                entry.countdown = entry.interval
                continue
            del self._quarantine[core_id]
            self._core_fail_streak[core_id] = 0
            self._unpark_if_fault_parked(core_id)

    def _write_with_retry(self, cpu: int, address: int, value: int) -> bool:
        """Raw MSR write with the same bounded retry as core programming."""
        for attempt in range(self.resilience.max_write_retries + 1):
            if attempt:
                self._iter_retries += 1
            try:
                self.msr.write(cpu, address, value)
                return True
            except MSRError:
                self._contained_errors += 1
        self._iter_failed_writes += 1
        return False

    # -- record building --------------------------------------------------------------

    def _build_inputs(self, sample: TurbostatSample) -> PolicyInputs:
        telemetry = []
        for app in self.policy.apps:
            stats = sample.core(app.core_id)
            telemetry.append(
                AppTelemetry(
                    label=app.label,
                    active_frequency_mhz=stats.active_frequency_mhz,
                    ips=stats.ips,
                    busy_fraction=stats.busy_fraction,
                    power_w=stats.power_w,
                    parked=app.label in self._parked,
                )
            )
        return PolicyInputs(
            iteration=self._iteration,
            limit_w=self.policy.limit_w,
            package_power_w=sample.package_power_w,
            apps=tuple(telemetry),
            current_targets=dict(self._targets),
        )

    def _health(self, fresh: bool, holdover: bool) -> HealthRecord:
        return HealthRecord(
            mode=self._mode.value,
            telemetry_ok=fresh,
            holdover=holdover,
            consecutive_failures=self._consecutive_failures,
            retries=self._iter_retries,
            failed_writes=self._iter_failed_writes,
            quarantined=self.quarantined_cores,
            safe_mode_entries=self._safe_mode_entries,
            contained_errors=self._contained_errors,
        )

    def _record(
        self,
        now_s: float,
        sample: TurbostatSample | None,
        fresh: bool,
        holdover: bool,
    ) -> DaemonSample:
        if sample is not None:
            freq = {
                label: sample.core(core).active_frequency_mhz
                for label, core in self._core_of.items()
            }
            ips = {
                label: sample.core(core).ips
                for label, core in self._core_of.items()
            }
            core_power = {
                label: sample.core(core).power_w
                for label, core in self._core_of.items()
            }
            pkg_power = sample.package_power_w
        else:  # no telemetry at all yet: record a blind iteration
            freq = {label: 0.0 for label in self._core_of}
            ips = {label: 0.0 for label in self._core_of}
            core_power = {label: None for label in self._core_of}
            pkg_power = 0.0
        return DaemonSample(
            iteration=self._iteration,
            time_s=now_s,
            package_power_w=pkg_power,
            app_frequency_mhz=freq,
            app_ips=ips,
            app_power_w=core_power,
            app_parked={
                label: label in self._parked for label in self._core_of
            },
            targets_mhz=dict(self._targets),
            health=self._health(fresh, holdover),
        )
