"""The cluster epoch loop: arbitrate, grant, step, report, repeat.

:class:`ClusterSim` drives the whole fleet over an explicit — and
faultable — control plane:

1. at each epoch boundary it executes the configured crash schedule
   (:class:`~repro.faults.CrashScenario`): nodes enter their down
   windows, rebooted nodes re-join through the restart protocol, and
   every decision lands in the write-ahead
   :class:`~repro.cluster.journal.Journal` before its effects do,
2. it admits nodes whose join time has arrived and retires announced
   leavers,
3. it collects whichever ``demand`` envelopes the
   :class:`~repro.cluster.transport.UnreliableTransport` delivered to
   the arbiter this round (duplicates and stragglers rejected by
   sequence guard) and hands them to the
   :class:`~repro.cluster.arbiter.ClusterArbiter`, which turns them
   into next caps — reserving silent nodes' budget per their leases so
   the cap-sum invariant holds through partitions.  The decision is
   journaled *before* any grant is sent, so a seeded arbiter crash at
   this point is recovered by rebuilding the arbiter from the journal
   and resending the identical grants — byte-identical to no crash,
4. it sends each member its cap as a ``grant`` envelope; each node's
   :class:`~repro.cluster.lease.NodeLease` applies what arrives or
   steps down the GRANTED → HOLDOVER → DEGRADED → SAFE ladder (a down
   node's lease observes nothing and walks the same ladder),
5. the stepper advances every live node through the epoch under its
   *lease-effective* cap (node by node on the scalar engine, as one
   stacked batch on the array engine — byte-identical either way,
   because every transport, lease, and crash decision is taken here,
   before the step), nodes whose lease expired past its TTL run with
   the daemon's RAPL-backstop safe mode latched, and down nodes do not
   run at all, and
6. the :class:`~repro.cluster.trace.ClusterTrace` rolls the epoch up —
   transport health, lease states, restarts, crash recoveries — and
   the journal seals the epoch with a ``fence`` checkpoint.

**Restart protocol**: a node rebooting at an epoch boundary flushes its
queued envelopes (a dead NIC receives nothing), boots into SAFE with
the daemon's RAPL backstop latched, presents the journal's last fenced
epoch so pre-crash grants are fenced off, and is re-admitted by
:meth:`~repro.cluster.arbiter.ClusterArbiter.readmit` — which releases
its old reservation in the same round it bids again, so its watts are
never counted twice.  It then climbs back to GRANTED through the
ordinary lease ladder.

The cap-sum invariant is checked after every grant: granted plus
reserved watts never sum above the facility budget — including the
crash and rejoin epochs.  With no transport or crash scenario
configured the message layer is quiet and every process survives, and
the loop degenerates to PR 3's perfect-network behavior.

:func:`recover_cluster_sim` is the other half of the journal: given a
config and a journal (possibly reloaded from a torn JSONL dump), it
restores the arbiter, leases, guards, and transport from the last
fence and re-steps the node simulations through the journaled ``step``
entries, returning a sim that continues the run byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.sanitizer import (
    StateDigest,
    digest_fields,
    sanitize_enabled,
)
from repro.cluster.arbiter import Arbitration
from repro.cluster.config import ClusterConfig
from repro.cluster.journal import Journal
from repro.cluster.lease import LEASE_CODES, NodeLease
from repro.cluster.node import NodeEpochReport
from repro.cluster.stepper import make_stepper
from repro.cluster.trace import ClusterTrace
from repro.cluster.transport import (
    ARBITER,
    DEMAND,
    GRANT,
    Envelope,
    SequenceGuard,
    TransportStats,
    UnreliableTransport,
    fold_reports,
)
from repro.errors import ConfigError, SimulationError
from repro.faults.scenario import TransportScenario, get_transport_scenario
from repro.faults.telemetry import TelemetryCorruptor
from repro.fleet.arbiter import make_arbiter
from repro.fleet.topology import leaf_racks, rack_row_indices


@dataclass
class ClusterRun:
    """Everything one finished cluster run produced."""

    config: ClusterConfig
    trace: ClusterTrace
    #: per epoch: the arbitration grant that governed it.
    grants: list[Arbitration] = field(default_factory=list)
    #: per epoch: the node reports it produced.
    reports: list[dict[str, NodeEpochReport]] = field(default_factory=list)
    #: per epoch: each admitted node's lease state name at epoch end.
    lease_states: list[dict[str, str]] = field(default_factory=list)
    #: whole-run transport counters.
    transport_stats: TransportStats = field(default_factory=TransportStats)
    #: arbiter crashes recovered by journal redo during the run.
    crash_recoveries: int = 0
    #: ``(epoch, node)`` for every node reboot the run executed.
    node_restarts: list[tuple[int, str]] = field(default_factory=list)
    #: per epoch: the nodes the diurnal schedule left idle (empty sets
    #: on flat runs with no schedule).
    idle_sets: list[frozenset[str]] = field(default_factory=list)
    #: the write-ahead journal the run appended to.
    journal: Journal | None = None
    #: per-epoch state recording when the determinism sanitizer ran
    #: (``REPRO_SANITIZE=1`` or an explicit ``sanitize=True``).
    sanitizer: StateDigest | None = None

    @property
    def n_epochs(self) -> int:
        return len(self.grants)

    def max_cap_sum_w(self) -> float:
        """Largest per-epoch sum of granted caps (invariant witness)."""
        if not self.grants:
            return 0.0
        return max(grant.total_w for grant in self.grants)


class ClusterSim:
    """Seeded, deterministic driver for one cluster configuration.

    Every node steps in this process.  ``jobs`` accepts only ``None``,
    ``0`` and ``1``, which all mean exactly that; any other count
    raises :class:`~repro.errors.ConfigError`, so no caller silently
    loses the worker processes it asked for.
    """

    def __init__(
        self,
        config: ClusterConfig,
        *,
        jobs: int | None = None,
        sanitize: bool | None = None,
    ):
        if jobs not in (None, 0, 1):
            raise ConfigError(
                f"jobs={jobs!r}: cluster nodes step in one process; "
                f"pass None, 0 or 1"
            )
        self.config = config
        self.arbiter = make_arbiter(config)
        self.trace = ClusterTrace()
        self.journal = Journal()
        #: determinism sanitizer (explicit flag beats REPRO_SANITIZE):
        #: records a canonical digest of every node's epoch report so
        #: the scalar and array engines' runs can be diffed field by
        #: field instead of "bytes differ somewhere".
        if sanitize is None:
            sanitize = sanitize_enabled()
        self.sanitizer: StateDigest | None = None
        if sanitize:
            self.sanitizer = StateDigest(f"cluster/{config.engine}")
        self._admitted: set[str] = set()
        scenario = self._scenario(config)
        #: the transport seed derives from the cluster seed so a run
        #: replays byte-identically, salted away from node fault seeds.
        self.transport = UnreliableTransport(scenario, seed=config.seed)
        #: telemetry corruption (liars, stuck sensors, NaN bursts):
        #: applied between stepping and sending, so the ground-truth
        #: reports stay intact for the trace and the corrupted stream
        #: is identical across steppers.
        telemetry = config.telemetry_scenario()
        self._corruptor: TelemetryCorruptor | None = None
        if telemetry is not None and not telemetry.quiet:
            self._corruptor = TelemetryCorruptor(telemetry, seed=config.seed)
        self._arbiter_guard = SequenceGuard(self.transport.stats)
        self._leases: dict[str, NodeLease] = {}
        self._seqs: dict[str, int] = {}
        self._stepper = None
        #: crash schedule, pre-indexed by epoch boundary.
        crash = config.crash_scenario()
        self._arbiter_crashes = set(crash.arbiter_crash_epochs)
        self._crashes_at: dict[int, list[str]] = {}
        self._restarts_at: dict[int, list[str]] = {}
        for restart in crash.node_restarts:
            self._crashes_at.setdefault(restart.crash_epoch, []).append(
                restart.node
            )
            self._restarts_at.setdefault(restart.restart_epoch, []).append(
                restart.node
            )
        #: nodes currently inside a crash window.
        self._down: set[str] = set()
        self.crash_recoveries = 0
        self.node_restarts: list[tuple[int, str]] = []
        #: diurnal-schedule structure: (rack member names, row index)
        #: per rack, precomputed once; empty without a schedule.
        self._sched_racks: tuple[tuple[tuple[str, ...], int], ...] = ()
        if config.schedule is not None and config.topology is not None:
            rows = rack_row_indices(config.topology)
            self._sched_racks = tuple(
                (rack.nodes, rows[rack.name])
                for rack in leaf_racks(config.topology)
            )

    @staticmethod
    def _scenario(config: ClusterConfig) -> TransportScenario:
        """Resolve the transport: explicit config beats the crash
        scenario's companion transport beats quiet."""
        explicit = config.transport_scenario()
        if explicit is not None:
            return explicit
        companion = config.crash_scenario().transport
        if companion is not None:
            return get_transport_scenario(companion)
        return get_transport_scenario("none")

    def _next_seq(self, sender: str) -> int:
        seq = self._seqs.get(sender, 0)
        self._seqs[sender] = seq + 1
        return seq

    # -- stepper lifecycle -------------------------------------------------------

    def _ensure_stepper(self):
        if self._stepper is None:
            self._stepper = make_stepper(self.config)
        return self._stepper

    def close(self) -> None:
        """Drop the node stepper and with it every node's simulation."""
        self._stepper = None

    # -- crash schedule ----------------------------------------------------------

    def _boundary_crashes(self, epoch: int) -> frozenset[str]:
        """Execute the crash schedule at this epoch boundary.

        Nodes entering their down window go dark (journaled as
        ``crash``); nodes whose reboot is due run the restart protocol
        — flush the dead incarnation's queued envelopes, reset the
        lease to SAFE fenced at the journal's last sealed epoch, and
        re-admit with the arbiter so the old reservation is released
        the same round the node bids again.  Returns the names
        rebooting now (the stepper rebuilds their stacks boot-safe).
        """
        for name in self._crashes_at.get(epoch, ()):
            if name in self._admitted and name not in self._down:
                self._down.add(name)
                self.journal.append("crash", epoch, {"node": name})
        restarts: list[str] = []
        for name in self._restarts_at.get(epoch, ()):
            if name not in self._down:
                continue
            self._down.discard(name)
            fenced = self.journal.last_fenced_epoch
            flushed = self.transport.flush(name)
            if name in self._leases:
                self._leases[name].restart(fenced_epoch=fenced)
            self.arbiter.readmit(name, epoch)
            self.node_restarts.append((epoch, name))
            restarts.append(name)
            self.journal.append(
                "readmit",
                epoch,
                {"node": name, "fenced_epoch": fenced, "flushed": flushed},
            )
        return frozenset(restarts)

    def _recover_arbiter(self, epoch: int) -> Arbitration:
        """Redo this epoch's arbitration after a seeded arbiter crash.

        The crash lands *after* the decision hit the journal and
        *before* any grant left, so recovery rebuilds a fresh arbiter
        (and sequence guard, and send counter) from the journaled
        snapshot and re-issues the identical grants — the crash is
        invisible downstream.
        """
        entry = self.journal.last_of("arbitration")
        if entry is None or entry.epoch != epoch:
            raise SimulationError(
                f"arbiter crash at epoch {epoch} but the journal holds "
                f"no arbitration entry for it"
            )
        fresh = make_arbiter(self.config)
        fresh.restore(entry.data["arbiter"])
        self.arbiter = fresh
        guard = SequenceGuard(self.transport.stats)
        guard.restore(entry.data["guard"])
        self._arbiter_guard = guard
        self._seqs[ARBITER] = entry.data["seq"]
        self.crash_recoveries += 1
        return Arbitration(
            epoch=epoch,
            caps_w=dict(entry.data["caps"]),
            pools_w=dict(entry.data["pools"]),
            degraded=tuple(entry.data["degraded"]),
            reserved_w=dict(entry.data["reserved"]),
            shed=tuple(entry.data.get("shed", ())),
            fleet_stats=dict(entry.data.get("stats", {})),
            quarantined=tuple(entry.data.get("quarantined", ())),
            brownout=int(entry.data.get("brownout", 0)),
            trust_violations={
                name: tuple(kinds)
                for name, kinds in entry.data.get("violations", {}).items()
            },
        )

    # -- epoch phases ------------------------------------------------------------

    def _boundary_membership(self, epoch: int, t0: float, t1: float) -> None:
        """Apply announced lifecycle changes at an epoch boundary."""
        joiners = [
            spec.name
            for spec in self.config.nodes
            if spec.joins_at_s <= t0 and spec.name not in self._admitted
        ]
        if joiners:
            self.arbiter.admit(joiners)
            self._admitted.update(joiners)
            for name in joiners:
                self._leases[name] = NodeLease(
                    name,
                    floor_w=self.config.node(name).min_cap_w,
                    ttl_epochs=self.config.lease_ttl_epochs,
                    stats=self.transport.stats,
                )
            self.journal.append("admit", epoch, {"nodes": sorted(joiners)})
        leavers = [
            name
            for name in self.arbiter.members
            if (spec := self.config.node(name)).leaves_at_s is not None
            and t1 > spec.leaves_at_s
        ]
        if leavers:
            self.arbiter.retire(leavers)
            self.journal.append("retire", epoch, {"nodes": sorted(leavers)})

    def _ingest_reports(self, epoch: int) -> dict[str, NodeEpochReport]:
        """Demand envelopes the transport delivered to the arbiter."""
        envelopes = self.transport.deliver(ARBITER, epoch)
        folded = fold_reports(envelopes, self._arbiter_guard)
        reports: dict[str, NodeEpochReport] = {}
        for name, payload in folded.items():
            assert isinstance(payload, NodeEpochReport)
            reports[name] = payload
        return reports

    def _send_grants(self, epoch: int, grant: Arbitration) -> None:
        for name in sorted(grant.caps_w):
            self.transport.send(
                Envelope(
                    kind=GRANT,
                    src=ARBITER,
                    dst=name,
                    epoch=epoch,
                    seq=self._next_seq(ARBITER),
                    payload=grant.caps_w[name],
                ),
                epoch,
            )

    def _send_reports(
        self, epoch: int, reports: dict[str, NodeEpochReport]
    ) -> None:
        if self._corruptor is not None:
            reports = self._corruptor.corrupt(epoch, reports)
        for name in sorted(reports):
            self.transport.send(
                Envelope(
                    kind=DEMAND,
                    src=name,
                    dst=ARBITER,
                    epoch=epoch,
                    seq=self._next_seq(name),
                    payload=reports[name],
                ),
                epoch,
            )

    def _idle_set(
        self, epoch: int, caps_w: dict[str, float]
    ) -> frozenset[str]:
        """Nodes the diurnal schedule leaves without traffic this epoch.

        Within each rack the first ``k`` members (rack declaration
        order) are active; the rest are idle.  Pure arithmetic on the
        epoch counter, decided here rather than in the stepper so serial
        and stacked stepping see the identical set.  Down nodes and
        un-granted nodes are excluded — crash windows outrank idleness.
        """
        if not self._sched_racks:
            return frozenset()
        schedule = self.config.schedule
        assert schedule is not None
        idle: set[str] = set()
        for members, row in self._sched_racks:
            k = schedule.active_count(len(members), epoch, row)
            for name in members[k:]:
                if name in caps_w and name not in self._down:
                    idle.add(name)
        return frozenset(idle)

    def _observe_leases(
        self, epoch: int
    ) -> tuple[dict[str, float], frozenset[str]]:
        """Deliver grants to every member and step each lease ladder.

        Down nodes observe nothing — a dead machine receives no
        envelopes (its queue keeps accumulating until the reboot
        flushes it) — so their ladders walk down exactly like a
        partitioned node's.  Returns the lease-effective caps the
        nodes will enforce this epoch and the set of names whose lease
        has expired into SAFE.
        """
        members = self.arbiter.members
        for name in list(self._leases):
            if name not in members:
                del self._leases[name]
        caps: dict[str, float] = {}
        safe: set[str] = set()
        for name in sorted(members):
            lease = self._leases[name]
            if name in self._down:
                lease.observe([], epoch)
            else:
                lease.observe(self.transport.deliver(name, epoch), epoch)
            caps[name] = lease.cap_w
            if lease.safe:
                safe.add(name)
        return caps, frozenset(safe)

    # -- the loop ----------------------------------------------------------------

    def run(self, duration_s: float, *, start_epoch: int = 0) -> ClusterRun:
        """Run ``duration_s`` of cluster time (whole epochs only).

        ``start_epoch`` supports crash recovery: a sim restored by
        :func:`recover_cluster_sim` continues from the first unfenced
        epoch, and the returned run covers only the continued tail.
        """
        epoch_s = self.config.epoch_s
        n_epochs = int(round(duration_s / epoch_s))
        if n_epochs < 1:
            raise ConfigError(
                f"duration {duration_s}s is below one epoch ({epoch_s}s)"
            )
        if start_epoch < 0 or start_epoch >= n_epochs:
            raise ConfigError(
                f"start_epoch {start_epoch} outside the run's "
                f"{n_epochs} epochs"
            )
        run = ClusterRun(
            config=self.config,
            trace=self.trace,
            transport_stats=self.transport.stats,
            journal=self.journal,
            sanitizer=self.sanitizer,
        )
        stepper = self._ensure_stepper()
        try:
            for epoch in range(start_epoch, n_epochs):
                t0 = epoch * epoch_s
                t1 = t0 + epoch_s
                restarts = self._boundary_crashes(epoch)
                self._boundary_membership(epoch, t0, t1)
                delivered = self._ingest_reports(epoch)
                grant = self.arbiter.rebalance(epoch, delivered)
                self.arbiter.check_invariant()
                # write-ahead: the decision is durable before any grant
                # leaves, so an arbiter crash here is redone, not lost
                self.journal.append(
                    "arbitration",
                    epoch,
                    {
                        "caps": dict(grant.caps_w),
                        "pools": dict(grant.pools_w),
                        "degraded": list(grant.degraded),
                        "reserved": dict(grant.reserved_w),
                        "shed": list(grant.shed),
                        "stats": dict(grant.fleet_stats),
                        "quarantined": list(grant.quarantined),
                        "brownout": grant.brownout,
                        "violations": {
                            name: list(kinds)
                            for name, kinds in grant.trust_violations.items()
                        },
                        "arbiter": self.arbiter.snapshot(),
                        "guard": self._arbiter_guard.snapshot(),
                        "seq": self._seqs.get(ARBITER, 0),
                    },
                )
                if epoch in self._arbiter_crashes:
                    grant = self._recover_arbiter(epoch)
                self._send_grants(epoch, grant)
                caps_w, safe_names = self._observe_leases(epoch)
                idle = self._idle_set(epoch, caps_w)
                self.journal.append(
                    "leases",
                    epoch,
                    {
                        name: self._leases[name].snapshot()
                        for name in sorted(self._leases)
                    },
                )
                self.journal.append(
                    "step",
                    epoch,
                    {
                        "caps": dict(caps_w),
                        "safe": sorted(safe_names),
                        "down": sorted(self._down),
                        "restarts": sorted(restarts),
                        "idle": sorted(idle),
                    },
                )
                reports = stepper.step(
                    epoch,
                    t0,
                    t1,
                    caps_w,
                    safe_names,
                    frozenset(self._down),
                    restarts,
                    idle,
                )
                if self.sanitizer is not None:
                    for name in sorted(reports):
                        self.sanitizer.record(
                            epoch, name, digest_fields(reports[name])
                        )
                self._send_reports(epoch, reports)
                self.trace.record_epoch(
                    t1, reports, caps_w, self.config.budget_w
                )
                lease_states = {
                    name: self._leases[name].state.value
                    for name in sorted(self._leases)
                }
                fleet_counters = None
                if self.config.topology is not None:
                    fleet_counters = {
                        **grant.fleet_stats,
                        "shed": len(grant.shed),
                        "idle": len(idle),
                    }
                self.trace.record_control(
                    t1,
                    transport_epoch=self.transport.stats.take_epoch(epoch),
                    lease_codes={
                        name: LEASE_CODES[self._leases[name].state]
                        for name in self._leases
                    },
                    reserved_w=sum(grant.reserved_w.values()),
                    degraded_grants=len(grant.degraded),
                    restarts=len(restarts),
                    crash_recoveries=(
                        1 if epoch in self._arbiter_crashes else 0
                    ),
                    fleet=fleet_counters,
                    brownout=grant.brownout,
                    trust_violations=len(grant.trust_violations),
                    quarantined=len(grant.quarantined),
                )
                run.grants.append(grant)
                run.reports.append(reports)
                run.lease_states.append(lease_states)
                run.idle_sets.append(idle)
                self.journal.append(
                    "fence",
                    epoch,
                    {
                        "transport": self.transport.snapshot(),
                        "telemetry": (
                            self._corruptor.snapshot()
                            if self._corruptor is not None
                            else None
                        ),
                        "seqs": dict(self._seqs),
                        "admitted": sorted(self._admitted),
                        "down": sorted(self._down),
                    },
                )
        finally:
            self.close()
        run.crash_recoveries = self.crash_recoveries
        run.node_restarts = list(self.node_restarts)
        return run


def recover_cluster_sim(
    config: ClusterConfig, journal: Journal
) -> tuple[ClusterSim, int]:
    """Rebuild a :class:`ClusterSim` from a journal after a crash.

    Returns ``(sim, next_epoch)``: the control plane — arbiter, lease
    ladders, sequence guards, transport queues and RNG, send counters,
    membership — is restored from the last fence, and the node
    simulations are rebuilt by re-stepping them through the journaled
    ``step`` entries (deterministic, because every cap/safe/down/
    restart decision was journaled before its step).  Calling
    ``sim.run(duration_s, start_epoch=next_epoch)`` continues the run
    byte-identically to one that never crashed.  An empty or unfenced
    journal recovers to a cold start (``next_epoch == 0``).
    """
    state = journal.replay()
    sim = ClusterSim(config)
    sim.journal = journal
    if state.last_fenced_epoch < 0:
        return sim, 0
    sim._admitted = set(state.admitted)
    sim._down = set(state.down)
    sim._seqs = dict(state.seqs)
    if state.transport is not None:
        sim.transport.restore(state.transport)
    if state.telemetry is not None and sim._corruptor is not None:
        sim._corruptor.restore(state.telemetry)
    if state.arbiter is not None:
        sim.arbiter.restore(state.arbiter)
    guard = SequenceGuard(sim.transport.stats)
    guard.restore(state.guard)
    sim._arbiter_guard = guard
    for name, snap in state.leases.items():
        lease = NodeLease(
            name,
            floor_w=config.node(name).min_cap_w,
            ttl_epochs=config.lease_ttl_epochs,
            stats=sim.transport.stats,
        )
        lease.restore(snap)
        sim._leases[name] = lease
    epoch_s = config.epoch_s
    stepper = sim._ensure_stepper()
    for epoch, caps_w, safe, down, restarts, idle in state.steps:
        t0 = epoch * epoch_s
        # reports are discarded: their downstream effects (envelopes,
        # grants, trace) are already part of the fenced checkpoint
        stepper.step(
            epoch,
            t0,
            t0 + epoch_s,
            caps_w,
            frozenset(safe),
            frozenset(down),
            frozenset(restarts),
            frozenset(idle),
        )
    return sim, state.last_fenced_epoch + 1


def run_cluster(
    config: ClusterConfig,
    duration_s: float,
    *,
    sanitize: bool | None = None,
) -> ClusterRun:
    """Convenience one-shot: build a :class:`ClusterSim` and run it."""
    return ClusterSim(config, sanitize=sanitize).run(duration_s)
