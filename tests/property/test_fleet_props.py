"""Property suite for fleet arbitration (Hypothesis).

Two families of guarantees, checked against randomly generated fleets
and randomly adversarial epochs (demand jumps, silent nodes standing in
for partitions, crashes):

* **water-filling fairness** — the exact sweep allocates max-min/
  share-proportionally: every claim strictly inside its bounds sits at
  the same per-share funding level, floors and ceilings only ever pin
  claims that the common level would push outside their bounds, and the
  filled total matches the pool exactly when the pool is feasible;
* **the hierarchy invariant at every depth** — Σ granted + Σ reserved
  never exceeds the facility budget, each domain's granted subtree sum
  never exceeds the pool the refill assigned it, rack ceilings bound
  their racks, and the incremental dirty-subtree path agrees with full
  recomputation to within the documented pool deadband on every node.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, NodeSpec
from repro.cluster.node import NodeEpochReport
from repro.config import AppSpec
from repro.core.minfund import Claim
from repro.fleet import DomainSpec, iter_domains, waterfill
from repro.fleet.arbiter import POOL_SLACK_W, FleetArbiter

APPS = tuple(AppSpec("cactusBSSN", shares=50.0) for _ in range(4))

#: slack for float comparisons against exact invariants.
TOL = 1e-6


# -- water-filling fairness -------------------------------------------------------

claim_strategy = st.tuples(
    st.floats(min_value=0.5, max_value=4.0),   # shares
    st.floats(min_value=1.0, max_value=20.0),  # lo
    st.floats(min_value=0.0, max_value=50.0),  # hi - lo
)


@settings(max_examples=200, deadline=None)
@given(
    bounds=st.lists(claim_strategy, min_size=1, max_size=12),
    pool_scale=st.floats(min_value=0.0, max_value=1.5),
)
def test_waterfill_is_max_min_fair(bounds, pool_scale):
    claims = [
        Claim(label=f"c{i}", shares=s, current=0.0, lo=lo, hi=lo + span)
        for i, (s, lo, span) in enumerate(bounds)
    ]
    lo_sum = sum(c.lo for c in claims)
    hi_sum = sum(c.hi for c in claims)
    pool = lo_sum + pool_scale * (hi_sum - lo_sum)
    fill = waterfill(pool, claims)

    for claim in claims:
        assert claim.lo - TOL <= fill[claim.label] <= claim.hi + TOL
    total = sum(fill.values())
    if pool <= lo_sum:
        assert total == sum(c.lo for c in claims)
        return
    if pool >= hi_sum:
        assert total == sum(c.hi for c in claims)
        return
    assert math.isclose(total, pool, rel_tol=1e-9, abs_tol=1e-6)
    # max-min fairness: claims strictly inside their bounds share one
    # per-share level; pinned claims are exactly the ones the common
    # level would push outside their bounds.
    inner_levels = [
        fill[c.label] / c.shares
        for c in claims
        if c.lo + TOL < fill[c.label] < c.hi - TOL
    ]
    if inner_levels:
        level = inner_levels[0]
        for other in inner_levels[1:]:
            assert math.isclose(level, other, rel_tol=1e-6, abs_tol=1e-6)
        for c in claims:
            if c.hi - c.lo <= 2 * TOL:
                continue  # zero-span claim: pinned by definition
            if fill[c.label] <= c.lo + TOL:
                assert c.lo / c.shares >= level - 1e-6
            elif fill[c.label] >= c.hi - TOL:
                assert c.hi / c.shares <= level + 1e-6


# -- the hierarchy invariant under adversarial epochs -----------------------------


def build_fleet(rack_sizes, ceilinged, budget_slack):
    """A 2-row fleet whose rack sizes/ceilings come from the strategy."""
    racks = []
    names = []
    for index, size in enumerate(rack_sizes):
        members = tuple(f"r{index}/n{i}" for i in range(size))
        names.extend(members)
        ceiling = None
        if index in ceilinged:
            # always above the floor sum, sometimes binding
            ceiling = size * 10.0 + size * 12.0
        racks.append(DomainSpec(
            name=f"r{index}",
            shares=1.0 + index % 3,
            nodes=members,
            ceiling_w=ceiling,
        ))
    half = max(len(racks) // 2, 1)
    rows = [DomainSpec(name="rowA", children=tuple(racks[:half]))]
    if racks[half:]:
        rows.append(DomainSpec(name="rowB", children=tuple(racks[half:])))
    topology = DomainSpec(name="facility", children=tuple(rows))
    nodes = tuple(
        NodeSpec(
            name=n,
            apps=APPS,
            shares=1.0 + (i % 2),
            min_cap_w=10.0,
            max_cap_w=45.0,
        )
        for i, n in enumerate(names)
    )
    budget = len(names) * 10.0 + budget_slack * len(names) * 35.0
    return ClusterConfig(
        budget_w=budget, nodes=nodes, topology=topology
    ), names


def make_report(name, epoch, power, throttle, crashed=False):
    return NodeEpochReport(
        name=name,
        epoch=epoch,
        t_end_s=(epoch + 1) * 1.0,
        cap_w=45.0,
        mean_power_w=power,
        throttle_pressure=throttle,
        headroom_w=max(45.0 - power, 0.0),
        parked_cores=0,
        quarantined_cores=0,
        samples=10,
        crashed=crashed,
    )


def subtree_nodes(domain):
    return [
        name for d in iter_domains(domain) for name in d.nodes
    ]


epoch_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),  # demand seed
        st.floats(min_value=0.0, max_value=1.0),        # silence rate
        st.floats(min_value=0.0, max_value=0.15),       # crash rate
    ),
    min_size=2,
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(
    rack_sizes=st.lists(
        st.integers(min_value=1, max_value=4), min_size=1, max_size=4
    ),
    ceilinged=st.sets(st.integers(min_value=0, max_value=3)),
    budget_slack=st.floats(min_value=0.0, max_value=1.0),
    epochs=epoch_strategy,
)
def test_hierarchy_invariant_at_every_depth(
    rack_sizes, ceilinged, budget_slack, epochs
):
    import random

    config, names = build_fleet(rack_sizes, ceilinged, budget_slack)
    incremental = FleetArbiter(config)
    full = FleetArbiter(config)
    full.incremental = False
    incremental.admit(list(names))
    full.admit(list(names))

    alive = set(names)
    for epoch, (seed, silence, crash_rate) in enumerate(epochs):
        rng = random.Random(seed)
        reports = {}
        for name in sorted(alive):
            if rng.random() < silence:
                continue  # partitioned/silent this epoch
            crashed = rng.random() < crash_rate
            reports[name] = make_report(
                name,
                epoch,
                rng.uniform(0.0, 45.0),
                rng.uniform(0.0, 1.0),
                crashed=crashed,
            )
            if crashed:
                alive.discard(name)
        a = incremental.rebalance(epoch, reports)
        b = full.rebalance(epoch, reports)

        for grant, arbiter in ((a, incremental), (b, full)):
            # depth 0: Σ granted + Σ reserved never exceeds the budget
            assert grant.total_w <= config.budget_w + TOL
            arbiter.check_invariant()
            reserved = set(grant.reserved_w)
            for domain in iter_domains(config.topology):
                members = subtree_nodes(domain)
                granted = sum(
                    grant.caps_w[n] for n in members
                    if n in grant.caps_w and n not in reserved
                )
                # every deeper domain: the live grants under it fit
                # the pool the refill assigned it
                pool = grant.pools_w.get(domain.name)
                if pool is not None:
                    assert granted <= pool + TOL
                if domain.ceiling_w is not None:
                    assert granted <= domain.ceiling_w + TOL

        # the incremental path tracks full recomputation within the
        # documented pool deadband, node by node
        assert set(a.caps_w) == set(b.caps_w)
        for name in a.caps_w:
            assert abs(a.caps_w[name] - b.caps_w[name]) <= (
                POOL_SLACK_W + TOL
            )
        # reservations freeze previously granted caps, so they inherit
        # the same deadband rather than exact equality
        assert set(a.reserved_w) == set(b.reserved_w)
        for name in a.reserved_w:
            assert abs(a.reserved_w[name] - b.reserved_w[name]) <= (
                POOL_SLACK_W + TOL
            )
        assert b.fleet_stats.get("reused", 0) == 0

    incremental.check_invariant(full=True)
    full.check_invariant(full=True)
