"""Hierarchical fleet arbitration with dirty-subtree incremental refill.

:class:`FleetArbiter` generalizes the flat PR-3
:class:`~repro.cluster.arbiter.ClusterArbiter` to an arbitrary-depth
domain tree (facility → row → rack → node): the facility budget flows
down the tree — :func:`~repro.core.minfund.refill_pool` splits each
interior domain's pool across its children by shares, and the exact
FastCap sweep (:func:`~repro.fleet.waterfill.waterfill`) splits each
rack's pool across its member nodes.  Membership, leases,
reservations, demand aging, and the cap-sum invariant are all
inherited unchanged — only the ``_arbitrate`` step is replaced.  Each
node's claim comes from the flat arbiter's
:meth:`~repro.cluster.arbiter.ClusterArbiter._claim`; the fleet only
snaps its ceiling to :data:`DEMAND_QUANTUM_W`.

**Why incremental.**  At 1,000+ nodes the naive path — build a claim
per node, bisect every rack, every epoch — dominates the control
plane.  But a fleet in steady state barely changes: idle nodes report
a constant synthetic demand, loaded nodes jitter within a watt.  The
arbiter exploits that in three layers:

1. **Demand signatures** — per node, a cheap ``(last-fresh epoch,
   age bucket)`` tuple that changes only when a new report landed or
   held-over demand is mid-fade.  Unchanged signature ⇒ the cached
   claim is exact, no recompute.
2. **Quantized claims** — a recomputed claim rounds its demand
   ceiling to :data:`DEMAND_QUANTUM_W`, so watt-level jitter maps to
   the *same* claim and the node stays clean.  Only a claim that
   actually moved marks its rack dirty.
3. **Pool deadbands** — interior splits are recomputed every epoch
   (they are O(#domains), cheap), but a *clean* rack whose new pool
   moved less than :data:`POOL_SLACK_W` from the pool its cached caps
   were filled at — and whose cached caps still fit under the new
   pool — reuses those caps wholesale.  The fit condition keeps the
   invariant inductive: reused sums never exceed assigned pools, so
   Σ granted + Σ reserved ≤ budget holds exactly at every depth.

The caches (signatures, claims, per-rack fills) ride inside
:meth:`snapshot`, so an arbiter rebuilt from the journal after a crash
makes the *same* reuse decisions and the run stays byte-identical.

**Oversubscription and shedding.**  Σ node ceilings may exceed the
budget (see :mod:`repro.fleet.schedule` for the statistical-safety
check).  When demand exceeds a pool, the water-fill pins the
lowest-entitlement members at their floors; members that wanted more
than their floor but were pinned at it are surfaced as ``shed`` on the
grant — the graceful losing branch of the bet, never a violation.
"""

from __future__ import annotations

from repro.cluster.arbiter import Arbitration, ClusterArbiter, _SUM_TOLERANCE
from repro.cluster.config import ClusterConfig
from repro.core.minfund import Claim, refill_pool
from repro.errors import ConfigError
from repro.fleet.topology import iter_domains, leaf_racks
from repro.fleet.waterfill import waterfill

#: demand-ceiling quantization, watts: jitter below this keeps a
#: node's claim — and therefore its rack — clean.
DEMAND_QUANTUM_W = 0.5

#: pool deadband, watts: a clean rack reuses its cached caps while its
#: assigned pool stays within this of the pool they were filled at.
POOL_SLACK_W = 0.5

#: margin shaved off the root pool before splitting, watts: keeps the
#: bisection/sweep float residue strictly under budget so the exact
#: trim (which would flush every reuse cache) never has to fire.
_POOL_RESIDUE_MARGIN_W = 1e-3

#: a member is shed when it wanted more than its floor but was granted
#: within this of it.
_SHED_TOLERANCE_W = 1e-6


class FleetArbiter(ClusterArbiter):
    """Budget domains all the way down, arbitrated incrementally."""

    def __init__(self, config: ClusterConfig):
        super().__init__(config)
        if config.topology is None:
            raise ConfigError("FleetArbiter needs a config with a topology")
        self.topology = config.topology
        #: full recompute mode (every rack dirty every epoch): the
        #: reference the unit and property tests compare against; no
        #: config or CLI option sets it.
        self.incremental = True
        # -- static tree structure (preorder everywhere) -----------------
        self._domains = tuple(iter_domains(self.topology))
        self._interior = tuple(d for d in self._domains if not d.is_leaf)
        self._racks = leaf_racks(self.topology)
        self._rack_names = tuple(r.name for r in self._racks)
        # -- incremental caches ------------------------------------------
        #: per node: (last_fresh, age_bucket, trust score, brownout
        #: level, top shares) the cached claim was computed under; a
        #: matching signature means the claim is exact.
        self._node_sigs: dict[str, tuple[float, ...]] = {}
        #: per node: (shares, lo, quantized hi).
        self._node_claims: dict[str, tuple[float, float, float]] = {}
        #: per rack: live membership of the last epoch (claim order).
        self._rack_live: dict[str, tuple[str, ...]] = {}
        #: per rack: condensed (lo, hi) over the live members.
        self._rack_cond: dict[str, tuple[float, float]] = {}
        #: per rack: the pool its cached caps were filled at.
        self._rack_pool: dict[str, float] = {}
        #: per rack: the cached member caps, their float sum, and the
        #: members shed at fill time.
        self._rack_caps: dict[str, dict[str, float]] = {}
        self._rack_capsum: dict[str, float] = {}
        self._rack_shed: dict[str, tuple[str, ...]] = {}

    # -- membership hooks ---------------------------------------------------------

    def retire(self, names: list[str]) -> None:
        super().retire(names)
        for name in names:
            self._node_sigs.pop(name, None)
            self._node_claims.pop(name, None)

    def _caches_invalidated(self) -> None:
        """The exact trim rewrote caps behind the rack caches: drop
        them all so the next epoch re-fills from live state."""
        self._rack_pool.clear()
        self._rack_caps.clear()
        self._rack_capsum.clear()
        self._rack_shed.clear()

    # -- checkpointing ------------------------------------------------------------

    def snapshot(self) -> dict:
        state = super().snapshot()
        state["fleet"] = {
            "sigs": {n: list(sig) for n, sig in self._node_sigs.items()},
            "claims": {
                n: list(claim) for n, claim in self._node_claims.items()
            },
            "rack_live": {
                r: list(live) for r, live in self._rack_live.items()
            },
            "rack_cond": {
                r: list(cond) for r, cond in self._rack_cond.items()
            },
            "rack_pool": dict(self._rack_pool),
            "rack_caps": {
                r: dict(caps) for r, caps in self._rack_caps.items()
            },
            "rack_capsum": dict(self._rack_capsum),
            "rack_shed": {
                r: list(shed) for r, shed in self._rack_shed.items()
            },
        }
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        fleet = state.get("fleet", {})
        # pre-trust journals carry 2-tuple signatures: they restore
        # verbatim and simply never match the 5-tuple the refresh
        # computes, forcing a clean recompute instead of stale reuse
        self._node_sigs = {
            n: tuple(sig) for n, sig in fleet.get("sigs", {}).items()
        }
        self._node_claims = {
            n: (claim[0], claim[1], claim[2])
            for n, claim in fleet.get("claims", {}).items()
        }
        self._rack_live = {
            r: tuple(live) for r, live in fleet.get("rack_live", {}).items()
        }
        self._rack_cond = {
            r: (cond[0], cond[1])
            for r, cond in fleet.get("rack_cond", {}).items()
        }
        self._rack_pool = dict(fleet.get("rack_pool", {}))
        self._rack_caps = {
            r: dict(caps) for r, caps in fleet.get("rack_caps", {}).items()
        }
        self._rack_capsum = dict(fleet.get("rack_capsum", {}))
        self._rack_shed = {
            r: tuple(shed) for r, shed in fleet.get("rack_shed", {}).items()
        }

    # -- the hierarchical arbitration ---------------------------------------------

    def _arbitrate(
        self,
        epoch: int,
        live: list[str],
        budget: float,
        caps: dict[str, float],
        degraded: list[str],
    ) -> tuple[dict[str, float], tuple[str, ...], dict[str, int], float]:
        live_set = set(live)
        dirty: set[str] = set()
        dirty_nodes = 0
        level = self.brownout.level
        top_shares = max(
            (self._node_shares[n] for n in live), default=0.0
        )
        trust_scores = self.trust.scores
        # 1. refresh claims + find dirty racks (cheap O(n) scan; the
        # per-node work is two dict lookups unless demand moved)
        for rack in self._racks:
            members = tuple(n for n in rack.nodes if n in live_set)
            if members != self._rack_live.get(rack.name):
                self._rack_live[rack.name] = members
                dirty.add(rack.name)
            for name in members:
                report = self._last_report.get(name)
                if report is None and self._admitted_at[name] != epoch:
                    degraded.append(name)
                age = self._age(name, epoch)
                bucket = 0 if age <= 1 else min(age, self.lease_ttl + 1)
                sig = (
                    float(self._last_fresh.get(name, -1)),
                    float(bucket),
                    trust_scores.get(name, 1.0),
                    float(level),
                    top_shares,
                )
                if sig != self._node_sigs.get(name):
                    self._node_sigs[name] = sig
                    lo, hi = self._claim(name, report, age, top_shares)
                    if report is not None and hi > lo:
                        # snap the ceiling to the demand quantum so
                        # watt-level jitter cannot dirty a rack
                        hi = min(
                            lo
                            + round((hi - lo) / DEMAND_QUANTUM_W)
                            * DEMAND_QUANTUM_W,
                            self._node_max[name],
                        )
                    claim = (self._node_shares[name], lo, hi)
                    if claim != self._node_claims.get(name):
                        self._node_claims[name] = claim
                        dirty.add(rack.name)
                        dirty_nodes += 1
        if not self.incremental:
            dirty.update(self._rack_names)
        # 2. condense dirty racks (live-member sums, ceiling-clamped)
        for rack in self._racks:
            if rack.name not in dirty:
                continue
            members = self._rack_live[rack.name]
            lo = sum(self._node_claims[n][1] for n in members)
            hi = sum(self._node_claims[n][2] for n in members)
            if rack.ceiling_w is not None:
                hi = min(hi, rack.ceiling_w)
            self._rack_cond[rack.name] = (lo, hi)
        # 3. condense interior domains bottom-up and split pools
        # top-down — O(#domains), recomputed every epoch
        cond: dict[str, tuple[float, float]] = {}
        for domain in reversed(self._domains):
            if domain.is_leaf:
                if self._rack_live.get(domain.name):
                    cond[domain.name] = self._rack_cond[domain.name]
                continue
            los, his = 0.0, 0.0
            empty = True
            for child in domain.children:
                child_cond = cond.get(child.name)
                if child_cond is None:
                    continue
                empty = False
                los += child_cond[0]
                his += child_cond[1]
            if not empty:
                if domain.ceiling_w is not None:
                    his = min(his, domain.ceiling_w)
                cond[domain.name] = (los, his)
        pools: dict[str, float] = {}
        stats = {
            "racks": 0,
            "refilled": 0,
            "reused": 0,
            "dirty_nodes": dirty_nodes,
        }
        if self.topology.name not in cond:
            return pools, (), stats, 0.0
        pools[self.topology.name] = max(
            budget - _POOL_RESIDUE_MARGIN_W, cond[self.topology.name][0]
        )
        for domain in self._interior:
            pool = pools.get(domain.name)
            if pool is None:
                continue
            child_claims = [
                Claim(
                    label=child.name,
                    shares=child.shares,
                    current=0.0,
                    lo=cond[child.name][0],
                    hi=cond[child.name][1],
                )
                for child in domain.children
                if child.name in cond
            ]
            pools.update(refill_pool(pool, child_claims))
        # 4. fill (or reuse) each live rack
        shed: list[str] = []
        live_sum = 0.0
        for rack in self._racks:
            members = self._rack_live[rack.name]
            if not members:
                continue
            stats["racks"] += 1
            pool = pools[rack.name]
            cached_pool = self._rack_pool.get(rack.name)
            if (
                rack.name not in dirty
                and cached_pool is not None
                and abs(pool - cached_pool) <= POOL_SLACK_W
                and self._rack_capsum[rack.name] <= pool + _SUM_TOLERANCE
            ):
                stats["reused"] += 1
                caps.update(self._rack_caps[rack.name])
                shed.extend(self._rack_shed[rack.name])
                live_sum += self._rack_capsum[rack.name]
                continue
            stats["refilled"] += 1
            claims = [
                Claim(
                    label=n,
                    shares=self._node_claims[n][0],
                    current=0.0,
                    lo=self._node_claims[n][1],
                    hi=self._node_claims[n][2],
                )
                for n in members
            ]
            fill = waterfill(pool, claims)
            capsum = sum(fill[n] for n in members)
            rack_shed = tuple(
                n
                for n in members
                if self._node_claims[n][2]
                > self._node_floor[n] + DEMAND_QUANTUM_W / 2
                and fill[n] <= self._node_floor[n] + _SHED_TOLERANCE_W
            )
            caps.update(fill)
            shed.extend(rack_shed)
            live_sum += capsum
            self._rack_pool[rack.name] = pool
            self._rack_caps[rack.name] = fill
            self._rack_capsum[rack.name] = capsum
            self._rack_shed[rack.name] = rack_shed
        return pools, tuple(shed), stats, live_sum


def make_arbiter(config: ClusterConfig) -> ClusterArbiter:
    """The arbiter matching the config: the domain tree when a
    topology is declared, the flat one-root-pool arbiter otherwise."""
    if config.topology is not None:
        return FleetArbiter(config)
    return ClusterArbiter(config)


__all__ = [
    "Arbitration",
    "DEMAND_QUANTUM_W",
    "FleetArbiter",
    "POOL_SLACK_W",
    "make_arbiter",
]
