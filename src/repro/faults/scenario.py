"""Deterministic fault scenarios.

A :class:`FaultScenario` is a declarative, seeded description of what
goes wrong during a run: transient MSR read/write failures, stuck or
garbage counter reads, energy-counter wrap storms, dropped or jittered
daemon ticks, and application crashes.  Everything derives from the one
seed, so a scenario replays identically — the chaos tests rely on that
to assert the daemon's health records bit-for-bit.

Named scenarios live in :data:`SCENARIOS`; the CLI's ``--faults`` flag
and :class:`~repro.config.ExperimentConfig` resolve them through
:func:`get_scenario`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import FaultConfigError
from repro.units import is_zero


@dataclass(frozen=True)
class AppCrash:
    """One application exiting (or crashing) mid-run.

    ``app_index`` refers to the position in the experiment's app list;
    the harness resolves it to a pinned core when the stack is built.
    """

    time_s: float
    app_index: int

    def __post_init__(self) -> None:
        if self.time_s <= 0:
            raise FaultConfigError("crash time must be positive")
        if self.app_index < 0:
            raise FaultConfigError("crash app index cannot be negative")


#: the per-opportunity probability fields of a :class:`FaultScenario`.
RATE_FIELDS = (
    "msr_read_fail_rate",
    "msr_write_fail_rate",
    "stuck_counter_rate",
    "garbage_counter_rate",
    "wrap_storm_rate",
    "tick_drop_rate",
    "tick_jitter_rate",
)


@dataclass(frozen=True)
class FaultScenario:
    """Seeded description of one fault-injection schedule.

    All rates are per-opportunity probabilities in [0, 1]: the MSR rates
    per ``rdmsr``/``wrmsr`` issued by *software* (the simulator's own
    counter publishing is never faulted), the tick rates per daemon
    deadline.
    """

    name: str = "custom"
    seed: int = 0
    #: probability a software ``rdmsr`` raises a transient ``EIO``.
    msr_read_fail_rate: float = 0.0
    #: probability a software ``wrmsr`` raises a transient ``EIO``.
    msr_write_fail_rate: float = 0.0
    #: probability a telemetry-counter read returns the previous value.
    stuck_counter_rate: float = 0.0
    #: probability a telemetry-counter read returns random garbage.
    garbage_counter_rate: float = 0.0
    #: probability an energy-counter read is thrown near its 32-bit
    #: wrap point, so consecutive deltas wrap repeatedly.
    wrap_storm_rate: float = 0.0
    #: probability a daemon deadline is missed outright (no iteration).
    tick_drop_rate: float = 0.0
    #: probability a daemon deadline slips by scheduler jitter.
    tick_jitter_rate: float = 0.0
    #: maximum jitter per slipped deadline, seconds.
    tick_max_jitter_s: float = 0.0
    #: applications that exit mid-run.
    app_crashes: tuple[AppCrash, ...] = ()
    #: restrict MSR/tick faults to ``[start_s, end_s)`` of simulated
    #: time; None keeps them active for the whole run.  A bounded storm
    #: is how the chaos tests prove the daemon *recovers* (safe mode
    #: exits, quarantines lift) once the hardware calms down.
    window_s: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise FaultConfigError("seed cannot be negative")
        for field_name in RATE_FIELDS:
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise FaultConfigError(
                    f"{field_name} must be in [0, 1], got {rate}"
                )
        if self.tick_max_jitter_s < 0:
            raise FaultConfigError("tick_max_jitter_s cannot be negative")
        # repro-lint: disable=float-equality — 0 is the untouched-config sentinel
        if self.tick_jitter_rate > 0 and self.tick_max_jitter_s == 0:
            raise FaultConfigError(
                "tick_jitter_rate needs a positive tick_max_jitter_s"
            )
        if self.window_s is not None:
            start, end = self.window_s
            if start < 0 or end <= start:
                raise FaultConfigError(
                    f"fault window [{start}, {end}) is not a valid "
                    "time range"
                )

    def active_at(self, time_s: float) -> bool:
        """Whether injected faults are live at this simulated time."""
        if self.window_s is None:
            return True
        start, end = self.window_s
        return start <= time_s < end

    @property
    def faults_msrs(self) -> bool:
        return any(
            getattr(self, f) > 0.0
            for f in RATE_FIELDS
            if not f.startswith("tick_")
        )

    @property
    def faults_ticks(self) -> bool:
        return self.tick_drop_rate > 0.0 or self.tick_jitter_rate > 0.0

    def with_seed(self, seed: int) -> "FaultScenario":
        """The same schedule shape replayed from a different seed."""
        return dataclasses.replace(self, seed=seed)


#: Named scenarios, mild to severe.  ``full-storm`` is the acceptance
#: scenario: every fault class at once, at or above the 5 % floor the
#: chaos invariant is stated for.
SCENARIOS: dict[str, FaultScenario] = {
    "none": FaultScenario(name="none"),
    "flaky-msr": FaultScenario(
        name="flaky-msr",
        msr_read_fail_rate=0.05,
        msr_write_fail_rate=0.05,
    ),
    "garbage-telemetry": FaultScenario(
        name="garbage-telemetry",
        stuck_counter_rate=0.05,
        garbage_counter_rate=0.04,
    ),
    "wrap-storm": FaultScenario(
        name="wrap-storm",
        wrap_storm_rate=0.25,
    ),
    "tick-storm": FaultScenario(
        name="tick-storm",
        tick_drop_rate=0.20,
        tick_jitter_rate=0.30,
        tick_max_jitter_s=0.5,
    ),
    "app-crash": FaultScenario(
        name="app-crash",
        app_crashes=(AppCrash(time_s=15.0, app_index=0),),
    ),
    "full-storm": FaultScenario(
        name="full-storm",
        msr_read_fail_rate=0.06,
        msr_write_fail_rate=0.06,
        stuck_counter_rate=0.05,
        garbage_counter_rate=0.03,
        wrap_storm_rate=0.10,
        tick_drop_rate=0.08,
        tick_jitter_rate=0.15,
        tick_max_jitter_s=0.4,
        app_crashes=(AppCrash(time_s=25.0, app_index=0),),
    ),
    # full-storm intensity, but bounded in time: the daemon must
    # degrade during the storm and *recover* — exit safe mode, lift
    # quarantines, resume policy control — once it passes.
    "transient-storm": FaultScenario(
        name="transient-storm",
        msr_read_fail_rate=0.06,
        msr_write_fail_rate=0.06,
        stuck_counter_rate=0.05,
        garbage_counter_rate=0.03,
        wrap_storm_rate=0.10,
        tick_drop_rate=0.08,
        tick_jitter_rate=0.15,
        tick_max_jitter_s=0.4,
        window_s=(15.0, 45.0),
    ),
}


def get_scenario(name: str, *, seed: int | None = None) -> FaultScenario:
    """Resolve a named scenario, optionally re-seeded."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise FaultConfigError(
            f"unknown fault scenario {name!r}; known: {known}"
        ) from None
    if seed is not None:
        scenario = scenario.with_seed(seed)
    return scenario


# -- control-plane transport scenarios -------------------------------------------
#
# The scenarios above corrupt what one node's daemon sees; these corrupt
# what the *cluster* sees — the epoch-sequenced DemandReport / CapGrant
# envelopes between nodes and the arbiter
# (:mod:`repro.cluster.transport`).  All rates are per-envelope
# probabilities; delays and partitions are measured in arbitration
# epochs, the control plane's native clock, so a scenario replays
# identically at any epoch length.


@dataclass(frozen=True)
class LinkPartition:
    """One node↔arbiter link severed for a window of epochs.

    ``node=None`` severs *every* link — the arbiter itself dropping off
    the network.  Both directions die: reports out and grants in.
    """

    start_epoch: int
    #: first epoch the link is back (exclusive end).
    end_epoch: int
    node: str | None = None

    def __post_init__(self) -> None:
        if self.start_epoch < 0:
            raise FaultConfigError("partition start epoch is negative")
        if self.end_epoch <= self.start_epoch:
            raise FaultConfigError(
                f"partition [{self.start_epoch}, {self.end_epoch}) is "
                "not a valid epoch range"
            )

    def severs(self, node: str, epoch: int) -> bool:
        if self.node is not None and self.node != node:
            return False
        return self.start_epoch <= epoch < self.end_epoch


#: the per-envelope probability fields of a :class:`TransportScenario`.
TRANSPORT_RATE_FIELDS = (
    "drop_rate",
    "dup_rate",
    "delay_rate",
    "reorder_rate",
)


@dataclass(frozen=True)
class TransportScenario:
    """Seeded description of one control-plane fault schedule."""

    name: str = "custom"
    seed: int = 0
    #: probability an envelope is lost in flight.
    drop_rate: float = 0.0
    #: probability an envelope is delivered twice.
    dup_rate: float = 0.0
    #: probability an envelope is delayed by 1..max_delay_epochs epochs.
    delay_rate: float = 0.0
    max_delay_epochs: int = 0
    #: probability one endpoint's per-epoch delivery batch arrives
    #: shuffled instead of in send order.
    reorder_rate: float = 0.0
    #: named node↔arbiter partitions (epoch windows, both directions).
    partitions: tuple[LinkPartition, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise FaultConfigError("seed cannot be negative")
        for field_name in TRANSPORT_RATE_FIELDS:
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise FaultConfigError(
                    f"{field_name} must be in [0, 1], got {rate}"
                )
        if self.max_delay_epochs < 0:
            raise FaultConfigError("max_delay_epochs cannot be negative")
        if self.delay_rate > 0 and self.max_delay_epochs == 0:
            raise FaultConfigError(
                "delay_rate needs a positive max_delay_epochs"
            )

    @property
    def quiet(self) -> bool:
        """No faults configured: the transport is a perfect wire."""
        return (
            all(is_zero(getattr(self, f)) for f in TRANSPORT_RATE_FIELDS)
            and not self.partitions
        )

    def partitioned(self, node: str, epoch: int) -> bool:
        """Whether this node's link to the arbiter is severed now."""
        return any(p.severs(node, epoch) for p in self.partitions)

    def with_seed(self, seed: int) -> "TransportScenario":
        """The same schedule shape replayed from a different seed."""
        return dataclasses.replace(self, seed=seed)


#: Named control-plane scenarios, mild to severe.  Partition windows
#: reference ``node0`` — the first node of every CLI-built and curated
#: cluster — and are bounded so recovery is exercised, not just decay.
TRANSPORT_SCENARIOS: dict[str, TransportScenario] = {
    "none": TransportScenario(name="none"),
    "lossy-links": TransportScenario(
        name="lossy-links",
        drop_rate=0.15,
        dup_rate=0.05,
    ),
    "slow-links": TransportScenario(
        name="slow-links",
        delay_rate=0.35,
        max_delay_epochs=2,
        reorder_rate=0.25,
    ),
    "flaky-links": TransportScenario(
        name="flaky-links",
        drop_rate=0.10,
        dup_rate=0.05,
        delay_rate=0.20,
        max_delay_epochs=2,
        reorder_rate=0.20,
    ),
    # one node cut off for five epochs: long enough to walk the whole
    # lease ladder (holdover → degraded → safe) at the default TTL,
    # bounded so re-admission after the heal is exercised too.
    "node0-partition": TransportScenario(
        name="node0-partition",
        partitions=(LinkPartition(4, 9, "node0"),),
    ),
    # the arbiter drops off the network: every node must ride its lease
    # down to the local RAPL backstop and climb back after the heal.
    "arbiter-partition": TransportScenario(
        name="arbiter-partition",
        partitions=(LinkPartition(5, 8, None),),
    ),
    # everything at once: lossy, slow, reordered links plus a bounded
    # partition of node0.  The acceptance scenario for the cap-sum
    # invariant under control-plane chaos.
    "transport-storm": TransportScenario(
        name="transport-storm",
        drop_rate=0.12,
        dup_rate=0.06,
        delay_rate=0.15,
        max_delay_epochs=2,
        reorder_rate=0.20,
        partitions=(LinkPartition(6, 10, "node0"),),
    ),
}


def get_transport_scenario(
    name: str, *, seed: int | None = None
) -> TransportScenario:
    """Resolve a named transport scenario, optionally re-seeded."""
    try:
        scenario = TRANSPORT_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(TRANSPORT_SCENARIOS))
        raise FaultConfigError(
            f"unknown transport scenario {name!r}; known: {known}"
        ) from None
    if seed is not None:
        scenario = scenario.with_seed(seed)
    return scenario


# -- control-plane crash scenarios ------------------------------------------------
#
# The transport scenarios above corrupt messages in flight; these kill
# the *processes* at either end of the link.  Crashes are scheduled at
# epoch granularity (the control plane's native clock) and every
# recovery decision rolls in the ClusterSim epoch loop, so a crashed run
# replays byte-identically — including across the write-ahead journal
# (:mod:`repro.cluster.journal`) the recoveries redo from.


@dataclass(frozen=True)
class NodeRestart:
    """One node crashing at an epoch boundary and rebooting later.

    The node is down for epochs ``[crash_epoch, restart_epoch)``: it is
    not stepped, sends nothing, and receives nothing.  At
    ``restart_epoch`` it boots into SAFE with its RAPL backstop
    latched, presents its last fenced epoch, and re-enters through the
    lease ladder.
    """

    node: str
    crash_epoch: int
    restart_epoch: int

    def __post_init__(self) -> None:
        if not self.node:
            raise FaultConfigError("node restart needs a node name")
        if self.crash_epoch < 0:
            raise FaultConfigError("crash epoch cannot be negative")
        if self.restart_epoch <= self.crash_epoch:
            raise FaultConfigError(
                f"restart epoch {self.restart_epoch} is not after crash "
                f"epoch {self.crash_epoch}"
            )

    def down_in(self, epoch: int) -> bool:
        return self.crash_epoch <= epoch < self.restart_epoch


@dataclass(frozen=True)
class CrashScenario:
    """Declarative schedule of control-plane process crashes.

    ``arbiter_crash_epochs`` kill the arbiter mid-epoch — after its
    decision hits the journal, before any grant leaves — forcing a
    write-ahead redo.  ``node_restarts`` take nodes down for whole
    epochs.  ``transport`` optionally names a companion transport
    scenario so a crash-during-partition drill is self-contained (it
    applies only when the cluster config sets no transport of its own).
    """

    name: str = "custom"
    description: str = ""
    arbiter_crash_epochs: tuple[int, ...] = ()
    node_restarts: tuple[NodeRestart, ...] = ()
    transport: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultConfigError("crash scenario needs a name")
        for epoch in self.arbiter_crash_epochs:
            if epoch < 0:
                raise FaultConfigError(
                    "arbiter crash epoch cannot be negative"
                )
        if len(set(self.arbiter_crash_epochs)) != len(
            self.arbiter_crash_epochs
        ):
            raise FaultConfigError("duplicate arbiter crash epochs")
        windows: dict[str, list[NodeRestart]] = {}
        for restart in self.node_restarts:
            windows.setdefault(restart.node, []).append(restart)
        for node, restarts in windows.items():
            restarts.sort(key=lambda r: r.crash_epoch)
            for earlier, later in zip(restarts, restarts[1:]):
                if later.crash_epoch < earlier.restart_epoch:
                    raise FaultConfigError(
                        f"node {node}: overlapping restart windows "
                        f"[{earlier.crash_epoch}, {earlier.restart_epoch}) "
                        f"and [{later.crash_epoch}, {later.restart_epoch})"
                    )
        if self.transport is not None:
            get_transport_scenario(self.transport)  # validate early

    @property
    def quiet(self) -> bool:
        """No crashes scheduled: the control plane never dies."""
        return not self.arbiter_crash_epochs and not self.node_restarts

    def node_names(self) -> tuple[str, ...]:
        return tuple(sorted({r.node for r in self.node_restarts}))


#: Named crash scenarios.  Epoch numbers assume the curated 14-epoch
#: evaluation runs (140 s at the default 10 s epoch); all reference
#: ``node0``/``node1``, the first nodes of every CLI-built cluster.
CRASH_SCENARIOS: dict[str, CrashScenario] = {
    "none": CrashScenario(
        name="none",
        description="clean control plane: no process crashes injected",
    ),
    # the write-ahead property: the decision was journaled before the
    # crash, so the redo resends the identical grants and the run is
    # byte-identical to one that never crashed.
    "arbiter-crash": CrashScenario(
        name="arbiter-crash",
        description="arbiter dies mid-epoch 5 after journaling its "
                    "decision and redoes the epoch from the journal",
        arbiter_crash_epochs=(5,),
    ),
    "node-restart": CrashScenario(
        name="node-restart",
        description="node0 is down epochs 4-6 and reboots at 7: boots "
                    "SAFE, re-admitted through the lease ladder",
        node_restarts=(NodeRestart("node0", 4, 7),),
    ),
    # the reboot lands *inside* the partition window [4, 9): the node
    # must sit at its RAPL backstop until the heal, then re-enter.
    "crash-in-partition": CrashScenario(
        name="crash-in-partition",
        description="node0 crashes at 5 and reboots at 7 inside its "
                    "partition (epochs 4-9): SAFE until the heal",
        node_restarts=(NodeRestart("node0", 5, 7),),
        transport="node0-partition",
    ),
    "restart-storm": CrashScenario(
        name="restart-storm",
        description="arbiter redo at epochs 4 and 8 plus staggered "
                    "node0/node1 reboots: every recovery path at once",
        arbiter_crash_epochs=(4, 8),
        node_restarts=(
            NodeRestart("node0", 3, 5),
            NodeRestart("node1", 6, 8),
        ),
    ),
}


def get_crash_scenario(name: str) -> CrashScenario:
    """Resolve a named crash scenario."""
    try:
        return CRASH_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(CRASH_SCENARIOS))
        raise FaultConfigError(
            f"unknown crash scenario {name!r}; known: {known}"
        ) from None
