"""Fleet topology: an arbitrary-depth tree of budget domains.

A flat cluster splits the facility budget from one root pool; a
topology is the one way to declare a hierarchy.  At fleet scale the
budget flows through the physical power-delivery hierarchy — facility
→ row → rack → node — and every level is a *budget domain* with its
own shares, an implicit floor (the sum of its members' cap floors),
and an optional watt ceiling (a breaker/PDU limit the domain can never
exceed regardless of demand).

:class:`DomainSpec` is one vertex: an **interior** domain lists child
domains, a **leaf** domain (a rack) lists the node names it powers.
Depth is arbitrary — the arbiter condenses demand bottom-up and splits
pools top-down over whatever shape the tree has — but the canonical
fleet is the three-level grid :func:`grid_topology` builds.

Everything here is pure data + traversal helpers; the arbitration
logic lives in :mod:`repro.fleet.arbiter` and the cluster wiring in
:mod:`repro.cluster.config` (``ClusterConfig.topology``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class DomainSpec:
    """One budget domain: an interior split point or a leaf rack."""

    name: str
    shares: float = 1.0
    #: child domains (interior vertex) — mutually exclusive with nodes.
    children: tuple["DomainSpec", ...] = ()
    #: member node names (leaf vertex / rack).
    nodes: tuple[str, ...] = ()
    #: hard watt ceiling for the whole subtree (breaker/PDU limit);
    #: ``None`` bounds the domain only by its members' demand.
    ceiling_w: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("domain needs a non-empty name")
        if self.shares <= 0:
            raise ConfigError(f"domain {self.name}: shares must be positive")
        if self.children and self.nodes:
            raise ConfigError(
                f"domain {self.name}: cannot hold both child domains "
                f"and nodes"
            )
        if not self.children and not self.nodes:
            raise ConfigError(
                f"domain {self.name}: needs child domains or nodes"
            )
        if self.ceiling_w is not None and self.ceiling_w <= 0:
            raise ConfigError(
                f"domain {self.name}: ceiling_w must be positive"
            )

    @property
    def is_leaf(self) -> bool:
        return bool(self.nodes)


def iter_domains(root: DomainSpec):
    """All domains, preorder (parent before children) — the canonical
    deterministic walk every fleet structure derives from."""
    stack = [root]
    while stack:
        domain = stack.pop()
        yield domain
        # reversed so children come out in declaration order
        stack.extend(reversed(domain.children))


def leaf_racks(root: DomainSpec) -> tuple[DomainSpec, ...]:
    """The leaf domains (racks), in preorder."""
    return tuple(d for d in iter_domains(root) if d.is_leaf)


def rack_of_map(root: DomainSpec) -> dict[str, str]:
    """node name -> name of the leaf rack powering it."""
    out: dict[str, str] = {}
    for rack in leaf_racks(root):
        for name in rack.nodes:
            out[name] = rack.name
    return out


def rack_row_indices(root: DomainSpec) -> dict[str, int]:
    """rack name -> index of its depth-1 ancestor (its "row").

    The diurnal schedule phases traffic per row; racks hanging directly
    off the root count as their own row.  Deeper nesting inherits the
    topmost ancestor's index, so a whole row's racks phase together.
    """
    out: dict[str, int] = {}
    for index, child in enumerate(root.children):
        for domain in iter_domains(child):
            if domain.is_leaf:
                out[domain.name] = index
    if root.is_leaf:
        out[root.name] = 0
    return out


def validate_topology(
    root: DomainSpec, node_names: tuple[str, ...],
    node_floors: dict[str, float],
) -> None:
    """Check the tree covers the fleet exactly once and floors fit.

    * domain names are unique across the tree,
    * every configured node appears in exactly one leaf, and every
      leaf node is a configured node (bijection — the arbiter must be
      able to place every member and only members),
    * every domain ceiling covers the floors beneath it, so the
      no-starvation rule survives the ceiling clamp at every depth.
    """
    seen_domains: set[str] = set()
    placed: dict[str, str] = {}
    for domain in iter_domains(root):
        if domain.name in seen_domains:
            raise ConfigError(f"duplicate domain name {domain.name!r}")
        seen_domains.add(domain.name)
        for name in domain.nodes:
            if name in placed:
                raise ConfigError(
                    f"node {name!r} appears in both {placed[name]!r} "
                    f"and {domain.name!r}"
                )
            placed[name] = domain.name
    configured = set(node_names)
    missing = configured - placed.keys()
    if missing:
        raise ConfigError(
            f"topology does not place nodes: {sorted(missing)}"
        )
    unknown = placed.keys() - configured
    if unknown:
        raise ConfigError(
            f"topology places unknown nodes: {sorted(unknown)}"
        )
    _validate_ceilings(root, node_floors)


def _validate_ceilings(root: DomainSpec, floors: dict[str, float]) -> float:
    """Post-order floor roll-up: each ceiling must cover its floors."""
    if root.is_leaf:
        floor_sum = sum(floors[name] for name in root.nodes)
    else:
        floor_sum = sum(
            _validate_ceilings(child, floors) for child in root.children
        )
    if root.ceiling_w is not None and root.ceiling_w < floor_sum:
        raise ConfigError(
            f"domain {root.name}: ceiling {root.ceiling_w:.1f} W below "
            f"the {floor_sum:.1f} W sum of member cap floors"
        )
    return floor_sum


def grid_topology(
    rows: int,
    racks_per_row: int,
    nodes_per_rack: int,
    *,
    root_name: str = "facility",
    rack_ceiling_w: float | None = None,
) -> tuple[DomainSpec, tuple[str, ...]]:
    """The canonical facility → row → rack → node grid.

    Node names are hierarchical (``row0/rack1/n03``) so roll-ups and
    rack-level fault scenarios can select subtrees by prefix.  Returns
    ``(root, node_names)`` with nodes in rack order — the order the
    diurnal schedule activates them in.
    """
    if rows < 1 or racks_per_row < 1 or nodes_per_rack < 1:
        raise ConfigError("grid dimensions must all be at least 1")
    node_names: list[str] = []
    row_specs = []
    for row in range(rows):
        rack_specs = []
        for rack in range(racks_per_row):
            prefix = f"row{row}/rack{rack}"
            members = tuple(
                f"{prefix}/n{i:03d}" for i in range(nodes_per_rack)
            )
            node_names.extend(members)
            rack_specs.append(
                DomainSpec(
                    name=prefix, nodes=members, ceiling_w=rack_ceiling_w
                )
            )
        row_specs.append(
            DomainSpec(name=f"row{row}", children=tuple(rack_specs))
        )
    root = DomainSpec(name=root_name, children=tuple(row_specs))
    return root, tuple(node_names)


# -- cache serialization ---------------------------------------------------------


def domain_from_jsonable(data: dict) -> DomainSpec:
    return DomainSpec(
        name=data["name"],
        shares=data.get("shares", 1.0),
        children=tuple(
            domain_from_jsonable(child) for child in data.get("children", ())
        ),
        nodes=tuple(data.get("nodes", ())),
        ceiling_w=data.get("ceiling_w"),
    )
