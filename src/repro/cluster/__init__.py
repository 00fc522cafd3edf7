"""Cluster power arbitration: hierarchical budgets across many nodes.

The paper delivers per-application power on one socket; this package
generalizes its min-funding redistribution one level up.  N simulated
nodes — each a full :func:`repro.config.build_stack` stack with its own
hardened :class:`~repro.core.daemon.PowerDaemon` — run under a
:class:`~repro.cluster.arbiter.ClusterArbiter` that owns a facility
watt budget and, on a slower epoch loop, re-splits per-node power caps
from one root pool (or a topology's domain tree) driven by each
node's demand signals (throttle pressure, headroom, parked/quarantined
cores).

* :mod:`repro.cluster.config`    — declarative fleet description,
* :mod:`repro.cluster.node`      — one node stepped in epochs,
* :mod:`repro.cluster.arbiter`   — the epoch redistribution,
* :mod:`repro.cluster.transport` — the faultable control-plane message
  layer (epoch-sequenced demand/grant envelopes),
* :mod:`repro.cluster.lease`     — TTL cap leases and the node-side
  GRANTED → HOLDOVER → DEGRADED → SAFE step-down ladder,
* :mod:`repro.cluster.stepper`   — in-process node stepping, node by
  node or stacked into one array batch,
* :mod:`repro.cluster.journal`   — epoch-fenced write-ahead journal and
  crash recovery (journal replay reconstructs byte-identical state),
* :mod:`repro.cluster.trace`     — per-node + global telemetry roll-up,
* :mod:`repro.cluster.runtime`   — the epoch loop tying it together.
"""

from repro.cluster.arbiter import Arbitration, ClusterArbiter, DEMAND_SLACK
from repro.cluster.config import (
    ClusterConfig,
    NodeSpec,
    cluster_config_from_jsonable,
    cluster_config_to_jsonable,
)
from repro.cluster.journal import Journal, JournalEntry, RecoveredState
from repro.cluster.lease import LEASE_CODES, LeaseState, NodeLease
from repro.cluster.node import ClusterNode, NodeEpochReport
from repro.cluster.runtime import (
    ClusterRun,
    ClusterSim,
    recover_cluster_sim,
    run_cluster,
)
from repro.cluster.stepper import SerialNodeStepper, make_stepper
from repro.cluster.trace import ClusterTrace
from repro.cluster.transport import (
    ARBITER,
    Envelope,
    SequenceGuard,
    TransportStats,
    UnreliableTransport,
    fold_reports,
)

__all__ = [
    "ARBITER",
    "Arbitration",
    "ClusterArbiter",
    "ClusterConfig",
    "ClusterNode",
    "ClusterRun",
    "ClusterSim",
    "ClusterTrace",
    "DEMAND_SLACK",
    "Envelope",
    "Journal",
    "JournalEntry",
    "LEASE_CODES",
    "LeaseState",
    "NodeEpochReport",
    "NodeLease",
    "NodeSpec",
    "RecoveredState",
    "SequenceGuard",
    "SerialNodeStepper",
    "TransportStats",
    "UnreliableTransport",
    "cluster_config_from_jsonable",
    "cluster_config_to_jsonable",
    "fold_reports",
    "make_stepper",
    "recover_cluster_sim",
    "run_cluster",
]
