"""Cluster arbitration experiment: fairness and safety at fleet scale.

The single-socket experiments show one daemon honouring one limit; this
experiment shows the :mod:`repro.cluster` arbiter composing many of
them under one facility budget.  A seeded N-node cluster (default: four
nodes with 2:2:1:1 shares, each running a Table-2-style mix) runs for a
warm-up plus a measurement window; the result reports, per node, the
steady mean cap and daemon-measured power, plus the run-wide safety
witnesses:

* ``max_cap_sum_w`` — the largest per-epoch sum of granted caps, which
  must never exceed the budget (the hierarchy invariant), and
* ``cap_violations`` — epochs where it did (always 0).

With a transport-fault scenario configured the result also summarizes
control-plane health: whole-run envelope counters, the number of
node-epochs spent with an expired lease (daemon safe mode latched), and
how many grants went out demand-blind (``degraded``).

The run is a pure function of its :class:`~repro.cluster.config.
ClusterConfig` plus durations, so results round-trip through the same
content-addressed cache the steady-state experiments use (see
:meth:`repro.experiments.cache.ResultCache.get_cluster`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from dataclasses import field as dataclasses_field

from repro.cluster import ClusterConfig, ClusterRun, NodeSpec, run_cluster
from repro.cluster.config import (
    cluster_config_from_jsonable,
    cluster_config_to_jsonable,
)
from repro.config import AppSpec
from repro.errors import ConfigError

#: tolerance when counting cap-sum violations, watts.
_INVARIANT_SLACK_W = 1e-6

#: throttle-pressure ceiling for the tail-latency SLO proxy: an active
#: node-epoch meeting it ran its apps within 25% of platform max
#: frequency — the paper's stand-in for "the service held its tail".
SLO_THROTTLE_CEILING = 0.25


@dataclass(frozen=True)
class NodeClusterResult:
    """One node's steady-state aggregate over the measurement window."""

    name: str
    shares: float
    mean_cap_w: float
    mean_power_w: float
    mean_throttle: float
    epochs_reported: int
    crashed: bool

    @property
    def utilization(self) -> float:
        """Fraction of the granted cap the node actually drew."""
        if self.mean_cap_w <= 0:
            return 0.0
        return self.mean_power_w / self.mean_cap_w


@dataclass(frozen=True)
class ClusterRunResult:
    """Aggregated outcome of one cluster experiment."""

    config: ClusterConfig
    duration_s: float
    warmup_s: float
    nodes: tuple[NodeClusterResult, ...]
    mean_total_power_w: float
    max_cap_sum_w: float
    cap_violations: int
    #: whole-run control-plane counters (sent/delivered/dropped/
    #: delayed/duplicated/stale); all-zero dropped..stale when quiet.
    transport: dict[str, int] = dataclasses_field(default_factory=dict)
    #: node-epochs spent in lease state SAFE (RAPL backstop latched).
    safe_node_epochs: int = 0
    #: demand-blind grants across the run (sum of per-epoch degraded).
    degraded_grants: int = 0
    #: arbiter crashes recovered by journal redo during the run.
    crash_recoveries: int = 0
    #: node reboots executed by the crash schedule during the run.
    node_restarts: int = 0
    #: grants shed to the floor under oversubscription contention
    #: (sum of per-epoch shed members; fleet runs only).
    shed_grants: int = 0
    #: node-epochs the diurnal schedule left idle (simulation skipped).
    idle_node_epochs: int = 0
    #: rack water-fills actually recomputed across the run.
    fleet_refilled: int = 0
    #: rack fills reused from the dirty-subtree cache across the run.
    fleet_reused: int = 0
    #: fraction of post-warm-up *active* node-epochs meeting the
    #: throttle SLO (1.0 when there were none, or on flat runs).
    slo_attainment: float = 1.0
    #: telemetry reports flagged by the demand validator across the run
    #: (sum of per-epoch violation records).
    trust_violations: int = 0
    #: node-epochs spent quarantined by the trust book.
    quarantined_node_epochs: int = 0
    #: epochs the facility spent at any brownout level above NORMAL.
    brownout_epochs: int = 0

    def node(self, name: str) -> NodeClusterResult:
        for result in self.nodes:
            if result.name == name:
                return result
        raise ConfigError(f"no node {name!r} in result")

    def to_rows(self) -> list[dict]:
        rows = []
        for node in self.nodes:
            rows.append(
                {
                    "node": node.name,
                    "shares": node.shares,
                    "cap_w": node.mean_cap_w,
                    "power_w": node.mean_power_w,
                    "util": node.utilization,
                    "throttle": node.mean_throttle,
                    "epochs": node.epochs_reported,
                    "crashed": node.crashed,
                }
            )
        return rows


def default_cluster_config(
    *,
    n_nodes: int = 4,
    budget_w: float = 150.0,
    seed: int = 0,
    transport: str | None = None,
    lease_ttl_epochs: int = 3,
    crash_faults: str | None = None,
    telemetry: str | None = None,
) -> ClusterConfig:
    """The canonical evaluation cluster: 2:2:1:1-style shares, six
    compute-bound apps per node so the budget genuinely contends."""
    if n_nodes < 1:
        raise ConfigError("cluster needs at least one node")
    apps = tuple(
        AppSpec("cactusBSSN", shares=50.0) if i % 2 else
        AppSpec("leela", shares=50.0)
        for i in range(6)
    )
    nodes = tuple(
        NodeSpec(
            name=f"node{i}",
            apps=apps,
            shares=2.0 if i < n_nodes // 2 else 1.0,
            min_cap_w=12.0,
        )
        for i in range(n_nodes)
    )
    return ClusterConfig(
        budget_w=budget_w,
        nodes=nodes,
        seed=seed,
        transport=transport,
        lease_ttl_epochs=lease_ttl_epochs,
        crash_faults=crash_faults,
        telemetry=telemetry,
    )


def summarize_cluster_run(
    run: ClusterRun, *, duration_s: float, warmup_s: float
) -> ClusterRunResult:
    """Aggregate a finished run's steady window into a result."""
    if warmup_s >= duration_s:
        raise ConfigError("warm-up must be shorter than the run")
    trace = run.trace
    nodes = []
    for spec in run.config.nodes:
        series_name = f"{spec.name}.power_w"
        if series_name not in trace:
            continue  # never admitted (joined after the run ended)
        power = trace.series(series_name).window(warmup_s)
        caps = trace.series(f"{spec.name}.cap_w").window(warmup_s)
        throttle = trace.series(f"{spec.name}.throttle").window(warmup_s)
        if not len(power):
            # active only before the measurement window (left/crashed)
            power = trace.series(series_name)
            caps = trace.series(f"{spec.name}.cap_w")
            throttle = trace.series(f"{spec.name}.throttle")
        crashed = any(
            reports[spec.name].crashed
            for reports in run.reports
            if spec.name in reports
        )
        nodes.append(
            NodeClusterResult(
                name=spec.name,
                shares=spec.shares,
                mean_cap_w=caps.mean(),
                mean_power_w=power.mean(),
                mean_throttle=throttle.mean(),
                epochs_reported=len(power),
                crashed=crashed,
            )
        )
    total = trace.series("cluster.power_w").window(warmup_s)
    violations = sum(
        1
        for grant in run.grants
        if grant.total_w > run.config.budget_w + _INVARIANT_SLACK_W
    )
    stats = run.transport_stats
    transport = {
        "sent": stats.sent,
        "delivered": stats.delivered,
        "dropped": stats.dropped,
        "delayed": stats.delayed,
        "duplicated": stats.duplicated,
        "stale": stats.stale,
    }
    safe_node_epochs = sum(
        1
        for states in run.lease_states
        for state in states.values()
        if state == "safe"
    )
    epoch_s = run.config.epoch_s
    slo_met = slo_total = 0
    for index, reports in enumerate(run.reports):
        if (index + 1) * epoch_s <= warmup_s:
            continue
        idle = run.idle_sets[index] if index < len(run.idle_sets) else ()
        for name in reports:
            if name in idle:
                continue
            slo_total += 1
            pressure = reports[name].throttle_pressure
            if pressure <= SLO_THROTTLE_CEILING:
                slo_met += 1
    return ClusterRunResult(
        config=run.config,
        duration_s=duration_s,
        warmup_s=warmup_s,
        nodes=tuple(nodes),
        mean_total_power_w=total.mean() if len(total) else 0.0,
        max_cap_sum_w=run.max_cap_sum_w(),
        cap_violations=violations,
        transport=transport,
        safe_node_epochs=safe_node_epochs,
        degraded_grants=sum(len(g.degraded) for g in run.grants),
        crash_recoveries=run.crash_recoveries,
        node_restarts=len(run.node_restarts),
        shed_grants=sum(len(g.shed) for g in run.grants),
        idle_node_epochs=sum(len(idle) for idle in run.idle_sets),
        fleet_refilled=sum(
            g.fleet_stats.get("refilled", 0) for g in run.grants
        ),
        fleet_reused=sum(
            g.fleet_stats.get("reused", 0) for g in run.grants
        ),
        slo_attainment=slo_met / slo_total if slo_total else 1.0,
        trust_violations=sum(
            len(g.trust_violations) for g in run.grants
        ),
        quarantined_node_epochs=sum(
            len(g.quarantined) for g in run.grants
        ),
        brownout_epochs=sum(1 for g in run.grants if g.brownout > 0),
    )


def run_cluster_experiment(
    config: ClusterConfig | None = None,
    *,
    duration_s: float = 120.0,
    warmup_s: float = 40.0,
    cache=None,
) -> ClusterRunResult:
    """Run (or fetch from cache) one cluster experiment."""
    if config is None:
        config = default_cluster_config()
    if cache is not None:
        hit = cache.get_cluster(config, duration_s, warmup_s)
        if hit is not None:
            return hit
    run = run_cluster(config, duration_s)
    result = summarize_cluster_run(
        run, duration_s=duration_s, warmup_s=warmup_s
    )
    if cache is not None:
        cache.put_cluster(config, duration_s, warmup_s, result)
    return result


# -- cache serialization ---------------------------------------------------------


def cluster_result_to_jsonable(result: ClusterRunResult) -> dict:
    return {
        "config": cluster_config_to_jsonable(result.config),
        "duration_s": result.duration_s,
        "warmup_s": result.warmup_s,
        "nodes": [asdict(node) for node in result.nodes],
        "mean_total_power_w": result.mean_total_power_w,
        "max_cap_sum_w": result.max_cap_sum_w,
        "cap_violations": result.cap_violations,
        "transport": dict(result.transport),
        "safe_node_epochs": result.safe_node_epochs,
        "degraded_grants": result.degraded_grants,
        "crash_recoveries": result.crash_recoveries,
        "node_restarts": result.node_restarts,
        "shed_grants": result.shed_grants,
        "idle_node_epochs": result.idle_node_epochs,
        "fleet_refilled": result.fleet_refilled,
        "fleet_reused": result.fleet_reused,
        "slo_attainment": result.slo_attainment,
        "trust_violations": result.trust_violations,
        "quarantined_node_epochs": result.quarantined_node_epochs,
        "brownout_epochs": result.brownout_epochs,
    }


def cluster_result_from_jsonable(data: dict) -> ClusterRunResult:
    return ClusterRunResult(
        config=cluster_config_from_jsonable(data["config"]),
        duration_s=data["duration_s"],
        warmup_s=data["warmup_s"],
        nodes=tuple(
            NodeClusterResult(**node) for node in data["nodes"]
        ),
        mean_total_power_w=data["mean_total_power_w"],
        max_cap_sum_w=data["max_cap_sum_w"],
        cap_violations=data["cap_violations"],
        transport=dict(data.get("transport", {})),
        safe_node_epochs=data.get("safe_node_epochs", 0),
        degraded_grants=data.get("degraded_grants", 0),
        crash_recoveries=data.get("crash_recoveries", 0),
        node_restarts=data.get("node_restarts", 0),
        shed_grants=data.get("shed_grants", 0),
        idle_node_epochs=data.get("idle_node_epochs", 0),
        fleet_refilled=data.get("fleet_refilled", 0),
        fleet_reused=data.get("fleet_reused", 0),
        slo_attainment=data.get("slo_attainment", 1.0),
        trust_violations=data.get("trust_violations", 0),
        quarantined_node_epochs=data.get("quarantined_node_epochs", 0),
        brownout_epochs=data.get("brownout_epochs", 0),
    )
