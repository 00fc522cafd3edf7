"""Fleet-scale experiment: a diurnal day across 1,000+ nodes.

The ROADMAP's fleet demo: a facility → row → rack → node grid
(default 4 rows x 8 racks x 32 nodes = 1,024 nodes) runs one full
diurnal period of websearch-style traffic — the cosine activation
curve of :class:`~repro.fleet.schedule.DiurnalSchedule`, phase-shifted
per row so load rolls across the fleet — under a deliberately
oversubscribed facility budget.

The budget is provisioned *statistically*: Σ node cap ceilings exceeds
it by design, but :func:`~repro.fleet.schedule.assess_oversubscription`
proves the worst single-epoch demand of the configured day still fits
(plus :data:`BUDGET_HEADROOM`).  If traffic beats the forecast anyway,
the hierarchical water-fill sheds the excess to cap floors instead of
violating the envelope — ``shed_grants`` on the result counts how
often the bet lost.

Everything rides the ordinary cluster machinery: the run is cached by
config (:func:`~repro.experiments.cluster_exp.run_cluster_experiment`),
transport faults reuse the PR-5 lease ladder, and
:func:`rack_partition` builds the rack-level partition scenario the
acceptance run uses — one rack's links severed for a window of epochs,
degrading only that subtree.
"""

from __future__ import annotations

from repro.cluster import ClusterConfig, NodeSpec
from repro.config import AppSpec
from repro.errors import ConfigError
from repro.experiments.cluster_exp import (
    ClusterRunResult,
    run_cluster_experiment,
)
from repro.faults import LinkPartition, TransportScenario
from repro.fleet import (
    DiurnalSchedule,
    DomainSpec,
    OversubscriptionReport,
    assess_oversubscription,
    grid_topology,
    leaf_racks,
)

#: per-node cap bounds for the fleet demo, watts.  The ceiling is the
#: Skylake-ish node under full compute load; the floor keeps idle
#: machines alive (uncore plus a floored core).
FLEET_MIN_CAP_W = 10.0
FLEET_MAX_CAP_W = 45.0

#: multiplicative headroom over the forecast single-epoch peak when
#: auto-sizing the facility budget: enough that the statistical bet
#: wins on the configured day, tight enough that Σ ceilings still
#: oversubscribes the budget heavily.
BUDGET_HEADROOM = 1.02

#: the default day: 24 epochs per period, 15 % of each rack active at
#: the trough, 65 % at the peak, rows phased 2 epochs apart.
DEFAULT_SCHEDULE = DiurnalSchedule()


def fleet_config(
    rows: int = 4,
    racks_per_row: int = 8,
    nodes_per_rack: int = 32,
    *,
    seed: int = 0,
    schedule: DiurnalSchedule | None = DEFAULT_SCHEDULE,
    budget_w: float | None = None,
    transport: str | TransportScenario | None = None,
    crash_faults: str | None = None,
    lease_ttl_epochs: int = 3,
    epoch_ticks: int = 10,
    engine: str | None = None,
) -> ClusterConfig:
    """A grid fleet under an auto-sized oversubscribed budget.

    ``budget_w=None`` provisions :data:`BUDGET_HEADROOM` times the
    worst single-epoch demand the schedule can present — the
    statistically-safe oversubscribed budget.  Each node runs four
    compute-bound apps (the array-stackable mix), so active nodes
    genuinely contend for watts while idle nodes are skipped outright.
    """
    topology, node_names = grid_topology(rows, racks_per_row, nodes_per_rack)
    apps = (
        AppSpec("leela", shares=50.0),
        AppSpec("cactusBSSN", shares=50.0),
        AppSpec("leela", shares=50.0),
        AppSpec("cactusBSSN", shares=50.0),
    )
    nodes = tuple(
        NodeSpec(
            name=name,
            apps=apps,
            min_cap_w=FLEET_MIN_CAP_W,
            max_cap_w=FLEET_MAX_CAP_W,
        )
        for name in node_names
    )
    if budget_w is None:
        forecast = assess_oversubscription(
            1.0,  # placeholder: only peak_demand_w is needed here
            topology,
            {name: FLEET_MIN_CAP_W for name in node_names},
            {name: FLEET_MAX_CAP_W for name in node_names},
            schedule,
        )
        budget_w = BUDGET_HEADROOM * forecast.peak_demand_w
    return ClusterConfig(
        budget_w=budget_w,
        nodes=nodes,
        topology=topology,
        schedule=schedule,
        seed=seed,
        transport=transport,
        crash_faults=crash_faults,
        lease_ttl_epochs=lease_ttl_epochs,
        epoch_ticks=epoch_ticks,
        **({} if engine is None else {"engine": engine}),
    )


def oversubscription_report(
    config: ClusterConfig,
) -> OversubscriptionReport:
    """Quantify a fleet config's oversubscription bet."""
    if config.topology is None:
        raise ConfigError("oversubscription needs a fleet topology")
    return assess_oversubscription(
        config.budget_w,
        config.topology,
        {node.name: node.min_cap_w for node in config.nodes},
        {node.name: node.resolved_max_cap_w() for node in config.nodes},
        config.schedule,
    )


def rack_partition(
    topology: DomainSpec,
    rack_name: str,
    start_epoch: int,
    end_epoch: int,
) -> TransportScenario:
    """Sever one whole rack's node↔arbiter links for an epoch window.

    The acceptance fault: every node in the rack walks the lease
    ladder down (holdover → degraded floor → SAFE backstop) while the
    rest of the fleet keeps arbitrating normally — the partition
    degrades exactly one subtree.
    """
    for rack in leaf_racks(topology):
        if rack.name == rack_name:
            return TransportScenario(
                name=f"rack-partition:{rack_name}",
                partitions=tuple(
                    LinkPartition(start_epoch, end_epoch, node)
                    for node in rack.nodes
                ),
            )
    known = ", ".join(r.name for r in leaf_racks(topology))
    raise ConfigError(
        f"no rack {rack_name!r} in the topology; known racks: {known}"
    )


def run_fleet_experiment(
    config: ClusterConfig | None = None,
    *,
    duration_s: float | None = None,
    warmup_s: float | None = None,
    cache=None,
) -> ClusterRunResult:
    """Run (or fetch from cache) one fleet experiment.

    Defaults to :func:`fleet_config` over exactly one schedule period
    (a full simulated day) with the first fifth as warm-up.
    """
    if config is None:
        config = fleet_config()
    if config.topology is None:
        raise ConfigError("the fleet experiment needs a fleet topology")
    if duration_s is None:
        period = (
            config.schedule.period_epochs if config.schedule is not None
            else 24
        )
        duration_s = period * config.epoch_s
    if warmup_s is None:
        warmup_s = duration_s / 5.0
    return run_cluster_experiment(
        config,
        duration_s=duration_s,
        warmup_s=warmup_s,
        cache=cache,
    )


def fleet_rollup(result: ClusterRunResult) -> list[dict]:
    """Per-row aggregates of a fleet result (budget flows by subtree).

    Node names are hierarchical (``row0/rack3/n017``), so the roll-up
    groups on the leading path segment.  Cap and power columns are
    sums of per-node means — the subtree's mean draw against the
    budget its domains were granted.
    """
    groups: dict[str, list] = {}
    for node in result.nodes:
        prefix = node.name.split("/", 1)[0]
        groups.setdefault(prefix, []).append(node)
    rows = []
    for prefix in sorted(groups):
        members = groups[prefix]
        rows.append(
            {
                "domain": prefix,
                "nodes": len(members),
                "cap_w": sum(m.mean_cap_w for m in members),
                "power_w": sum(m.mean_power_w for m in members),
                "throttle": (
                    sum(m.mean_throttle for m in members) / len(members)
                ),
            }
        )
    return rows
