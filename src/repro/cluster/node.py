"""One cluster node: a full single-socket stack stepped in epochs.

:class:`ClusterNode` wraps the stack :func:`repro.config.build_stack`
produces — chip, engine, policy, hardened ``PowerDaemon``, optional
fault injection — and exposes the two operations the cluster layer
needs:

* :meth:`step_epoch` advances the node's private simulation through one
  arbitration epoch under a given power cap and condenses the daemon
  samples that landed in the window into a :class:`NodeEpochReport`;
* :meth:`set_cap` retargets the node's operator limit between epochs
  (the daemon's policy reads ``limit_w`` every iteration, so the change
  takes effect at the node's next monitoring tick; RAPL-baseline nodes
  also re-program the hardware limiter).

Each node owns an independent :class:`~repro.sim.engine.SimEngine`
clocked from its own join time, so a node admitted mid-run starts a
fresh simulation — exactly like a machine booting into a running
cluster.  All cross-node coupling flows through the cap the arbiter
sets and the report the node returns; nodes never see each other.

The report carries the *demand signals* the arbiter redistributes on:

* ``mean_power_w`` — daemon-reported package power over the epoch;
* ``throttle_pressure`` — how far below the platform maximum the node's
  apps ran (0 = unthrottled, 1 = floored/parked), the cluster analogue
  of an app saturating *low* in min-funding terms;
* ``headroom_w`` — cap the node left unused (revocable windfall);
* ``parked_cores``/``quarantined_cores`` — from the daemon's
  :class:`~repro.core.daemon.HealthRecord`: capacity the node cannot
  currently turn into work, so its claim on the budget shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.config import ClusterConfig, NodeSpec
from repro.config import ExperimentConfig, ExperimentStack, build_stack
from repro.core.daemon import Reading
from repro.errors import ConfigError

#: synthetic draw an idle node reports, as a fraction of its cap floor.
#: Below 1.0 by construction: idle demand must water-fill to the floor
#: (never above it) and stay constant so idle racks arbitrate clean.
IDLE_POWER_FRACTION = 0.6


@dataclass(frozen=True, slots=True)
class NodeEpochReport:
    """What one node tells the arbiter after one epoch.

    Slotted: the validator prescreen touches four fields of every
    report every epoch, and at fleet scale (1,024+ reports/epoch)
    dict-based attribute lookup is measurable in the arbitration
    budget."""

    name: str
    epoch: int
    #: cluster time at the end of the epoch, seconds.
    t_end_s: float
    #: the cap this epoch ran under.
    cap_w: float
    #: daemon-reported mean package power over the epoch's samples.
    mean_power_w: float
    #: mean shortfall below platform max frequency, in [0, 1].
    throttle_pressure: float
    #: cap minus mean power, clamped at zero.
    headroom_w: float
    #: parked apps at the end of the epoch (policy or fail-safe).
    parked_cores: int
    #: quarantined cores at the end of the epoch.
    quarantined_cores: int
    #: daemon iterations that landed in the window (0 under a tick
    #: storm that swallowed the whole epoch).
    samples: int
    #: daemon mode at the end of the epoch ("normal"/"safe").
    mode: str = "normal"
    #: the node died mid-epoch (detected by the arbiter next round).
    crashed: bool = False


class ClusterNode:
    """Lifecycle wrapper around one node's simulation stack."""

    def __init__(self, config: ClusterConfig, index: int):
        self.spec: NodeSpec = config.nodes[index]
        self.index = index
        self._cluster = config
        self.stack: ExperimentStack | None = None
        self._history_mark = 0
        self._crashed = False
        #: bumped on every reboot so each incarnation draws a distinct
        #: (but deterministic) fault schedule.
        self._incarnation = 0
        #: the next build must come up with the daemon's safe-mode
        #: latch held (crash-restart protocol).
        self._boot_safe = False

    # -- lifecycle ---------------------------------------------------------------

    def active_in(self, t0: float, t1: float) -> bool:
        """Whether this node steps the epoch [t0, t1).

        Joins take effect at the first epoch starting at or after
        ``joins_at_s``; an announced leave makes ``t1 > leaves_at_s``
        epochs never start; a crash keeps the node stepping into the
        epoch containing ``crashes_at_s`` (it dies partway through) and
        silent afterwards.
        """
        if self._crashed:
            return False
        spec = self.spec
        if t0 < spec.joins_at_s:
            return False
        if spec.leaves_at_s is not None and t1 > spec.leaves_at_s:
            return False
        if spec.crashes_at_s is not None and t0 >= spec.crashes_at_s:
            return False
        return True

    @property
    def crashed(self) -> bool:
        return self._crashed

    def restart(self) -> None:
        """Reboot the node: the old incarnation's state is gone.

        The next :meth:`step_epoch` builds a fresh stack — exactly like
        a machine booting into a running cluster — with the daemon's
        safe-mode latch already held, so the node comes up enforcing
        its RAPL backstop until a fresh lease grant releases it.
        """
        self.stack = None
        self._history_mark = 0
        self._crashed = False
        self._incarnation += 1
        self._boot_safe = True

    def _build(self, cap_w: float) -> ExperimentStack:
        spec = self.spec
        config = ExperimentConfig(
            platform=spec.platform,
            policy=spec.policy,
            limit_w=cap_w,
            apps=spec.apps,
            interval_s=self._cluster.interval_s,
            tick_s=self._cluster.tick_s,
            faults=spec.faults,
            fault_seed=self._cluster.node_fault_seed(
                self.index, self._incarnation
            ),
            engine=self._cluster.engine,
        )
        return build_stack(config)

    def set_cap(self, cap_w: float) -> None:
        """Retarget the node's operator limit for the next epoch."""
        if cap_w <= 0:
            raise ConfigError(f"{self.spec.name}: non-positive cap {cap_w}")
        assert self.stack is not None
        daemon = self.stack.daemon
        daemon.policy.limit_w = cap_w
        if getattr(daemon.policy, "programs_hardware_limit", False):
            self.stack.chip.set_rapl_limit(cap_w)

    # -- stepping ----------------------------------------------------------------

    def begin_epoch(
        self,
        cap_w: float,
        t0: float,
        t1: float,
        safe_mode: bool = False,
    ) -> tuple[int, bool]:
        """Prepare the stack for the epoch [t0, t1) under ``cap_w``.

        Builds the stack on first use (or after a restart), retargets
        the cap, applies the lease supervisor's safe-mode verdict, and
        returns ``(n_ticks, crashes_this_epoch)`` — how far the node's
        engine must advance (a node dying mid-epoch stops at its crash
        point) — without running anything.  Split from the run so the
        stacked stepper can gang-step many prepared nodes as one array
        batch; :meth:`step_epoch` composes the two halves.

        ``safe_mode`` is the lease supervisor's verdict that this node
        has lost the arbiter (lease expired past its TTL): the daemon's
        RAPL-backstop safe mode is latched for the epoch — the paper's
        hardware baseline as last-resort enforcement — and released the
        epoch a renewal gets through again.
        """
        if self.stack is None:
            self.stack = self._build(cap_w)
            if self._boot_safe:
                # reboot protocol: the backstop is latched before the
                # first tick runs.  The lease verdict below may release
                # the latch the same epoch (a grant already landed),
                # but the daemon's recover_after good-sample streak
                # still gates the actual exit from safe mode.
                self.stack.daemon.force_safe_mode()
                self._boot_safe = False
        else:
            self.set_cap(cap_w)
        if safe_mode:
            self.stack.daemon.force_safe_mode()
        else:
            self.stack.daemon.release_safe_mode()
        crash_at = self.spec.crashes_at_s
        run_until = t1
        crashed = False
        if crash_at is not None and t0 < crash_at <= t1:
            # the node dies partway through this epoch: its simulation
            # stops at the crash point and never resumes.
            run_until = crash_at
            crashed = True
        # identical tick rounding to SimEngine.run(duration)
        n_ticks = int(round((run_until - t0) / self.stack.chip.tick_s))
        if n_ticks < 0:
            raise ConfigError(
                f"{self.spec.name}: epoch window [{t0}, {t1}) is negative"
            )
        return n_ticks, crashed

    def finish_epoch(
        self, epoch: int, cap_w: float, t1: float, crashed: bool
    ) -> NodeEpochReport:
        """Condense the epoch's daemon samples into the demand report."""
        assert self.stack is not None
        history = self.stack.daemon.history
        readings = history.readings(self._history_mark)
        self._history_mark = len(history)
        if crashed:
            self._crashed = True
        return self._report(epoch, cap_w, t1, readings, crashed)

    def step_epoch(
        self,
        epoch: int,
        cap_w: float,
        t0: float,
        t1: float,
        safe_mode: bool = False,
    ) -> NodeEpochReport:
        """Advance through [t0, t1) under ``cap_w`` and report demand.

        See :meth:`begin_epoch` for the ``safe_mode`` semantics.
        """
        n_ticks, crashed = self.begin_epoch(cap_w, t0, t1, safe_mode)
        self.stack.engine.run_ticks(n_ticks)
        return self.finish_epoch(epoch, cap_w, t1, crashed)

    def idle_report(
        self, epoch: int, cap_w: float, t0: float, t1: float
    ) -> NodeEpochReport:
        """The epoch's report for a node the schedule left idle.

        An idle node serves no traffic, so its simulation is not
        advanced at all — the fleet-scale sparsity win: 10 daemon
        iterations of an empty machine cost one dataclass here.  It
        still reports every epoch (keeping its lease GRANTED and its
        liveness fresh) with a constant synthetic draw below its cap
        floor, so its demand claim pins to the floor and never dirties
        its rack in the arbiter's incremental scheme.  A crash window
        opening mid-epoch still kills it — death does not wait for
        traffic.
        """
        crash_at = self.spec.crashes_at_s
        crashed = crash_at is not None and t0 < crash_at <= t1
        if crashed:
            self._crashed = True
        idle_power = IDLE_POWER_FRACTION * self.spec.min_cap_w
        return NodeEpochReport(
            name=self.spec.name,
            epoch=epoch,
            t_end_s=t1,
            cap_w=cap_w,
            mean_power_w=idle_power,
            throttle_pressure=0.0,
            headroom_w=max(cap_w - idle_power, 0.0),
            parked_cores=len(self.spec.apps),
            quarantined_cores=0,
            samples=self._cluster.epoch_ticks,
            mode="normal",
            crashed=crashed,
        )

    def _report(
        self,
        epoch: int,
        cap_w: float,
        t_end_s: float,
        readings: list[Reading],
        crashed: bool,
    ) -> NodeEpochReport:
        assert self.stack is not None
        if not readings:
            # a tick storm (or a crash right at the epoch edge) ate
            # every daemon deadline: no fresh demand this epoch
            return NodeEpochReport(
                name=self.spec.name,
                epoch=epoch,
                t_end_s=t_end_s,
                cap_w=cap_w,
                mean_power_w=0.0,
                throttle_pressure=0.0,
                headroom_w=0.0,
                parked_cores=0,
                quarantined_cores=len(self.stack.daemon.quarantined_cores),
                samples=0,
                mode=self.stack.daemon.mode.value,
                crashed=crashed,
            )
        n = len(readings)
        # Python's sum over the samples in order, as over the samples
        # themselves (compensated from Python 3.12 on)
        mean_power = sum([r.package_power_w for r in readings]) / n
        max_mhz = self.stack.platform.max_frequency_mhz
        shortfall = 0.0
        for reading in readings:
            freqs = reading.app_frequency_mhz
            mean_freq = sum(freqs) / len(freqs)
            shortfall += min(max(1.0 - mean_freq / max_mhz, 0.0), 1.0)
        last = readings[-1]
        return NodeEpochReport(
            name=self.spec.name,
            epoch=epoch,
            t_end_s=t_end_s,
            cap_w=cap_w,
            mean_power_w=mean_power,
            throttle_pressure=shortfall / n,
            headroom_w=max(cap_w - mean_power, 0.0),
            parked_cores=last.parked,
            quarantined_cores=last.quarantined,
            samples=n,
            mode=last.mode,
            crashed=crashed,
        )
