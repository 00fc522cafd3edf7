"""In-process node stepping: node by node, or stacked into one batch.

Within one arbitration epoch the nodes are completely independent — all
coupling flows through the caps computed *before* the epoch and the
reports consumed *after* it — so one process steps the whole cluster.
:class:`SerialNodeStepper` advances each node's engine in turn: it is
the scalar engine's stepper and the per-node reference the tests hold
the stacked path to.  :class:`StackedNodeStepper` advances every array
engine together, one batch per epoch.  Both apply the same restart,
crash-window and idle decisions, all taken by the caller before the
step, to the same cap sequence, so their reports are **byte-identical**
— the equivalence tests assert it.
"""

from __future__ import annotations

from repro.cluster.config import ClusterConfig
from repro.cluster.node import ClusterNode, NodeEpochReport
from repro.sim.engine import SimEngine, run_lockstep


class SerialNodeStepper:
    """All nodes stepped in-process, ascending node index."""

    def __init__(self, config: ClusterConfig):
        self.nodes = [
            ClusterNode(config, index) for index in range(len(config.nodes))
        ]

    def step(
        self,
        epoch: int,
        t0: float,
        t1: float,
        caps_w: dict[str, float],
        safe_names: frozenset[str] = frozenset(),
        down: frozenset[str] = frozenset(),
        restarts: frozenset[str] = frozenset(),
        idle: frozenset[str] = frozenset(),
    ) -> dict[str, NodeEpochReport]:
        """Step every live node through one epoch, one after another.

        ``restarts`` names nodes rebooting at this boundary (old
        incarnation discarded, fresh stack built with the safe latch
        held); ``down`` names nodes inside a crash window — their
        simulation does not run and they file no report, exactly like a
        dead machine.  ``idle`` names nodes the diurnal schedule left
        without traffic: their simulation is frozen for the epoch and a
        synthetic idle report filed instead (see
        :meth:`ClusterNode.idle_report`).  All three sets are decided by
        the caller, so serial and stacked stepping stay byte-identical
        under crash and schedule faults.
        """
        reports: dict[str, NodeEpochReport] = {}
        for node in self.nodes:
            name = node.spec.name
            if name in restarts:
                node.restart()
            if name in down:
                continue
            if name in caps_w and node.active_in(t0, t1):
                if name in idle:
                    report = node.idle_report(epoch, caps_w[name], t0, t1)
                else:
                    report = node.step_epoch(
                        epoch,
                        caps_w[name],
                        t0,
                        t1,
                        safe_mode=name in safe_names,
                    )
                reports[report.name] = report
        return reports


class StackedNodeStepper(SerialNodeStepper):
    """Serial semantics, stacked stepping: one array batch per epoch.

    Every live node is *prepared* first (caps, safe-mode verdicts,
    crash-shortened windows), then all engines sharing an epoch length
    are gang-stepped with :func:`repro.sim.engine.run_lockstep` — their
    chips advance as one ``(ticks, nodes x cores)`` numpy batch in this
    process — and finally each node condenses its report.  Nodes are
    independent within an epoch, so interleaving their ticks is
    byte-identical to stepping them one after another (the equivalence
    tests assert stacked == serial).
    """

    def step(
        self,
        epoch: int,
        t0: float,
        t1: float,
        caps_w: dict[str, float],
        safe_names: frozenset[str] = frozenset(),
        down: frozenset[str] = frozenset(),
        restarts: frozenset[str] = frozenset(),
        idle: frozenset[str] = frozenset(),
    ) -> dict[str, NodeEpochReport]:
        idle_reports: list[NodeEpochReport] = []
        pending: list[tuple[ClusterNode, int, bool]] = []
        for node in self.nodes:
            name = node.spec.name
            if name in restarts:
                node.restart()
            if name in down:
                continue
            if name in caps_w and node.active_in(t0, t1):
                if name in idle:
                    # schedule says no traffic: skip the batch entirely
                    idle_reports.append(
                        node.idle_report(epoch, caps_w[name], t0, t1)
                    )
                    continue
                n_ticks, crashed = node.begin_epoch(
                    caps_w[name], t0, t1, safe_mode=name in safe_names
                )
                pending.append((node, n_ticks, crashed))
        # nodes crashing mid-epoch run a shorter window; gang-step each
        # distinct window length together
        gangs: dict[int, list[SimEngine]] = {}
        for node, n_ticks, _ in pending:
            assert node.stack is not None
            gangs.setdefault(n_ticks, []).append(node.stack.engine)
        for n_ticks, engines in gangs.items():
            run_lockstep(engines, n_ticks)
        reports: dict[str, NodeEpochReport] = {}
        for node, _, crashed in pending:
            report = node.finish_epoch(
                epoch, caps_w[node.spec.name], t1, crashed
            )
            reports[report.name] = report
        for report in idle_reports:
            reports[report.name] = report
        return reports


def make_stepper(config: ClusterConfig) -> SerialNodeStepper:
    """The stacked stepper on the array engine; the serial one on the
    scalar engine, whose chips never join an array batch."""
    if config.engine == "array":
        return StackedNodeStepper(config)
    return SerialNodeStepper(config)
