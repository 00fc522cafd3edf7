"""Declarative cluster configuration.

A :class:`ClusterConfig` describes a fleet of simulated nodes — each one
a full single-socket stack (chip + engine + policy + ``PowerDaemon``)
exactly as :func:`repro.config.build_stack` builds it — plus the global
facility budget the :class:`~repro.cluster.arbiter.ClusterArbiter`
spreads across them.

A flat cluster is one root pool: the budget splits across *nodes* by
node shares, with the same min-funding primitive the paper uses inside
one socket.  A hierarchy is a ``topology``: a
:class:`~repro.fleet.topology.DomainSpec` tree whose domains split the
budget by domain shares before their nodes split it by node shares (two
levels, or as many as the tree has).

Node lifecycle is part of the config so runs replay deterministically:
``joins_at_s`` admits a node mid-run, ``leaves_at_s`` is an announced
departure (the arbiter reclaims its cap at the same epoch boundary), and
``crashes_at_s`` is an unannounced death the arbiter only notices when
the node's epoch report stops arriving.  Per-node fault scenarios reuse
:data:`repro.faults.SCENARIOS` unchanged — cluster chaos is node chaos,
replicated.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.config import AppSpec, POLICY_REGISTRY, default_engine
from repro.core.types import Priority
from repro.errors import ConfigError
from repro.faults import (
    CrashScenario,
    LinkPartition,
    TelemetryFault,
    TelemetryScenario,
    TransportScenario,
    get_crash_scenario,
    get_scenario,
    get_telemetry_scenario,
    get_transport_scenario,
)
from repro.fleet.schedule import DiurnalSchedule
from repro.fleet.topology import (
    DomainSpec,
    domain_from_jsonable,
    validate_topology,
)
from repro.hw.platform import get_platform

#: default lowest cap the arbiter may squeeze a node down to, watts.
#: Roughly uncore draw plus a floored core or two: a live node can never
#: usefully run below it, and the paper's no-starvation rule holds one
#: level up — member nodes are floored, not revoked to zero.
DEFAULT_MIN_CAP_W = 15.0


@dataclass(frozen=True)
class NodeSpec:
    """One node (socket + daemon) in the cluster."""

    name: str
    apps: tuple[AppSpec, ...]
    platform: str = "skylake"
    policy: str = "frequency-shares"
    shares: float = 1.0
    #: cap bounds the arbiter honours for this node; ``max_cap_w=None``
    #: defaults to the platform TDP.
    min_cap_w: float = DEFAULT_MIN_CAP_W
    max_cap_w: float | None = None
    #: lifecycle (cluster time, seconds); see module docstring.
    joins_at_s: float = 0.0
    leaves_at_s: float | None = None
    crashes_at_s: float | None = None
    #: named fault scenario injected into *this node's* daemon.
    faults: str | None = None
    #: explicit fault seed; None derives one from the cluster seed and
    #: the node's position, so every node draws a distinct schedule.
    fault_seed: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("node needs a non-empty name")
        if not self.apps:
            raise ConfigError(f"node {self.name}: needs at least one app")
        if self.policy not in POLICY_REGISTRY:
            known = ", ".join(sorted(POLICY_REGISTRY))
            raise ConfigError(
                f"node {self.name}: unknown policy {self.policy!r}; "
                f"known: {known}"
            )
        if self.shares <= 0:
            raise ConfigError(f"node {self.name}: shares must be positive")
        if self.min_cap_w <= 0:
            raise ConfigError(
                f"node {self.name}: min_cap_w must be positive"
            )
        if self.max_cap_w is not None and self.max_cap_w < self.min_cap_w:
            raise ConfigError(
                f"node {self.name}: max_cap_w {self.max_cap_w} below "
                f"min_cap_w {self.min_cap_w}"
            )
        if self.joins_at_s < 0:
            raise ConfigError(f"node {self.name}: joins_at_s is negative")
        for attr in ("leaves_at_s", "crashes_at_s"):
            when = getattr(self, attr)
            if when is not None and when <= self.joins_at_s:
                raise ConfigError(
                    f"node {self.name}: {attr}={when} is not after "
                    f"joins_at_s={self.joins_at_s}"
                )
        if self.leaves_at_s is not None and self.crashes_at_s is not None:
            raise ConfigError(
                f"node {self.name}: cannot both leave and crash"
            )
        if self.faults is not None:
            get_scenario(self.faults)  # validate the name early

    def resolved_max_cap_w(self) -> float:
        if self.max_cap_w is not None:
            return self.max_cap_w
        return get_platform(self.platform).power.tdp_watts


@dataclass(frozen=True)
class ClusterConfig:
    """The whole fleet: budget, nodes, optional topology, epoch cadence,
    seed."""

    budget_w: float
    nodes: tuple[NodeSpec, ...]
    #: arbiter epoch length in *daemon iterations* (the slower loop the
    #: issue calls for: default 10 daemon ticks per arbitration round).
    epoch_ticks: int = 10
    #: per-node daemon interval, seconds (1 s in the paper).
    interval_s: float = 1.0
    #: simulator tick; the coarse batch tick is safe at daemon cadence.
    tick_s: float = 5e-3
    #: master seed; per-node fault seeds derive from it.
    seed: int = 0
    #: control-plane fault scenario: a name from ``repro.faults.
    #: TRANSPORT_SCENARIOS`` or an inline :class:`TransportScenario`
    #: (fleet experiments build rack-partition scenarios on the fly);
    #: ``None`` keeps the transport quiet — every envelope delivered,
    #: byte-identical to the PR 3 runtime.
    transport: str | TransportScenario | None = None
    #: cap-lease TTL in arbitration epochs: how long a node keeps
    #: enforcing a grant it cannot renew before stepping down, and how
    #: long the arbiter reserves a silent node's budget.
    lease_ttl_epochs: int = 3
    #: named control-plane crash scenario (``repro.faults.
    #: CRASH_SCENARIOS``): seeded arbiter crashes (journal redo) and
    #: node crash/restart windows.  ``None`` keeps every process alive.
    crash_faults: str | None = None
    #: simulation engine for every node stack (``"array"``/``"scalar"``);
    #: bit-identical by contract, so the result cache ignores it.
    engine: str = field(default_factory=default_engine)
    #: hierarchical budget-domain tree (facility → row → rack → node);
    #: ``None`` keeps the flat one-root-pool arbitration.
    topology: DomainSpec | None = None
    #: diurnal traffic curve driving per-epoch node activation; needs a
    #: topology (rows phase the curve).  ``None`` keeps every node busy.
    schedule: DiurnalSchedule | None = None
    #: telemetry-corruption scenario: a name from ``repro.faults.
    #: TELEMETRY_SCENARIOS`` or an inline :class:`TelemetryScenario`.
    #: ``None`` keeps every report honest — byte-identical to the
    #: pre-trust runtime.  Faults targeting nodes this config does not
    #: declare are inert (a liar that never joins corrupts nothing).
    telemetry: str | TelemetryScenario | None = None

    def __post_init__(self) -> None:
        if self.budget_w <= 0:
            raise ConfigError("cluster budget must be positive")
        if not self.nodes:
            raise ConfigError("cluster needs at least one node")
        if self.epoch_ticks < 1:
            raise ConfigError("epoch_ticks must be at least 1")
        if self.interval_s <= 0 or self.tick_s <= 0:
            raise ConfigError("interval_s and tick_s must be positive")
        if self.seed < 0:
            raise ConfigError("seed cannot be negative")
        if self.lease_ttl_epochs < 1:
            raise ConfigError("lease_ttl_epochs must be at least 1")
        if self.engine not in ("scalar", "array"):
            raise ConfigError(
                f"unknown engine {self.engine!r}; "
                "expected 'scalar' or 'array'"
            )
        if isinstance(self.transport, str):
            get_transport_scenario(self.transport)  # validate early
        if isinstance(self.telemetry, str):
            get_telemetry_scenario(self.telemetry)  # validate early
        if self.crash_faults is not None:
            crash = get_crash_scenario(self.crash_faults)
            known_names = {node.name for node in self.nodes}
            for restart_node in crash.node_names():
                if restart_node not in known_names:
                    raise ConfigError(
                        f"crash scenario {self.crash_faults!r} restarts "
                        f"unknown node {restart_node!r}"
                    )
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate node names")
        # The hierarchy invariant (sum of node caps <= budget at all
        # times) needs the all-nodes floor sum to fit: min-funding
        # floors members rather than starving them, so an over-committed
        # floor set could never be honoured.
        floor_sum = sum(node.min_cap_w for node in self.nodes)
        if floor_sum > self.budget_w:
            raise ConfigError(
                f"sum of node cap floors ({floor_sum:.1f} W) exceeds the "
                f"cluster budget ({self.budget_w:.1f} W)"
            )
        if self.topology is not None:
            validate_topology(
                self.topology,
                tuple(node.name for node in self.nodes),
                {node.name: node.min_cap_w for node in self.nodes},
            )
        if self.schedule is not None and self.topology is None:
            raise ConfigError(
                "a diurnal schedule needs a topology (rows phase the "
                "traffic curve)"
            )

    @property
    def epoch_s(self) -> float:
        """Arbitration epoch length in seconds."""
        return self.epoch_ticks * self.interval_s

    def node(self, name: str) -> NodeSpec:
        # the arbiter resolves specs per member per epoch: at fleet
        # scale a linear scan here would be O(n^2) per rebalance, so
        # the index is built once and memoized on the frozen instance
        index = self.__dict__.get("_node_by_name")
        if index is None:
            index = {spec.name: spec for spec in self.nodes}
            object.__setattr__(self, "_node_by_name", index)
        try:
            return index[name]
        except KeyError:
            raise ConfigError(
                f"no node {name!r} in cluster config"
            ) from None

    def transport_scenario(self) -> TransportScenario | None:
        """Resolve the transport field (named or inline) to a scenario."""
        if isinstance(self.transport, str):
            return get_transport_scenario(self.transport)
        return self.transport

    def node_fault_seed(self, index: int, incarnation: int = 0) -> int:
        """Deterministic per-node fault seed derived from the master.

        ``incarnation`` counts reboots: a restarted node draws a
        distinct (but equally deterministic) fault schedule, like a
        machine whose post-boot entropy differs from its last life.
        """
        spec = self.nodes[index]
        if spec.fault_seed is not None:
            base = spec.fault_seed
        else:
            base = self.seed * 1000003 + index
        return base + incarnation * 7368787

    def crash_scenario(self) -> CrashScenario:
        """Resolve the configured crash scenario ("none" when unset)."""
        return get_crash_scenario(self.crash_faults or "none")

    def telemetry_scenario(self) -> TelemetryScenario | None:
        """Resolve the telemetry field (named or inline) to a scenario."""
        if isinstance(self.telemetry, str):
            return get_telemetry_scenario(self.telemetry)
        return self.telemetry


# -- cache serialization ---------------------------------------------------------
#
# The result cache keys cluster runs by a stable JSON form of the full
# config (mirroring what repro.experiments.cache does for single-socket
# configs); these helpers own the round trip so the cache module never
# reaches into cluster internals.


def cluster_config_to_jsonable(config: ClusterConfig) -> dict:
    raw = asdict(config)
    # the engine is deliberately NOT part of the cache identity: both
    # engines produce byte-identical results (the equivalence suite
    # enforces it), so a result computed by either must hit for both —
    # and keys stay byte-compatible with pre-engine cache entries.
    raw.pop("engine", None)
    # unset fleet fields are dropped so pre-fleet configs keep their
    # exact cache keys (asdict already expanded an inline transport
    # scenario and the topology/schedule dataclasses to plain dicts)
    if raw.get("topology") is None:
        raw.pop("topology", None)
    if raw.get("schedule") is None:
        raw.pop("schedule", None)
    # likewise pre-trust configs keep their keys when telemetry is unset
    if raw.get("telemetry") is None:
        raw.pop("telemetry", None)
    for node in raw["nodes"]:
        for app in node["apps"]:
            app["priority"] = app["priority"].name
    return raw


def cluster_config_from_jsonable(data: dict) -> ClusterConfig:
    nodes = []
    for node in data["nodes"]:
        apps = tuple(
            AppSpec(
                benchmark=a["benchmark"],
                shares=a["shares"],
                priority=Priority[a["priority"]],
                steady=a["steady"],
            )
            for a in node["apps"]
        )
        nodes.append(NodeSpec(**{**node, "apps": apps}))
    extra: dict = {}
    transport = data.get("transport")
    if isinstance(transport, dict):
        extra["transport"] = TransportScenario(
            **{
                **transport,
                "partitions": tuple(
                    LinkPartition(**p) for p in transport["partitions"]
                ),
            }
        )
    topology = data.get("topology")
    if topology is not None:
        extra["topology"] = domain_from_jsonable(topology)
    schedule = data.get("schedule")
    if schedule is not None:
        extra["schedule"] = DiurnalSchedule(**schedule)
    telemetry = data.get("telemetry")
    if isinstance(telemetry, dict):
        extra["telemetry"] = TelemetryScenario(
            **{
                **telemetry,
                "faults": tuple(
                    TelemetryFault(**f) for f in telemetry["faults"]
                ),
            }
        )
    return ClusterConfig(
        **{**data, "nodes": tuple(nodes), **extra}
    )
