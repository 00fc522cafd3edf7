"""Min-funding revocation distribution (paper section 5.2).

When the daemon has excess (or deficit) of a resource to spread across
applications, it distributes proportionally to shares but respects each
application's saturation bounds: an app already at its maximum cannot
usefully absorb more, one at its minimum cannot give up more.  Following
Waldspurger's min-funding revocation [54], saturated apps are removed
from the mix and the distribution re-runs over the remaining resource
and remaining apps until everything is placed or everyone saturates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ShareError


@dataclass(frozen=True)
class Claim:
    """One app's stake in a distribution round.

    ``current`` is its present allocation of the resource; ``lo``/``hi``
    bound what the allocation may become.
    """

    label: str
    shares: float
    current: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.shares <= 0:
            raise ShareError(f"{self.label}: shares must be positive")
        if self.lo > self.hi:
            raise ShareError(
                f"{self.label}: empty allocation range [{self.lo}, {self.hi}]"
            )


def distribute_min_funding(
    delta: float, claims: list[Claim], *, tolerance: float = 1e-9
) -> dict[str, float]:
    """Spread ``delta`` (positive or negative) across claims by shares.

    Returns the new allocation per label.  Guarantees:

    * every allocation stays within its ``[lo, hi]`` bounds,
    * the total distributed equals ``delta`` unless every claim
      saturates, in which case as much as possible is placed,
    * allocation is share-proportional among claims that never saturate.

    The loop terminates because each round either places the full
    remainder or permanently saturates at least one claim.
    """
    allocations = {c.label: c.current for c in claims}
    if not claims:
        return allocations
    remaining = delta
    open_claims = list(claims)
    while abs(remaining) > tolerance and open_claims:
        total_shares = sum(c.shares for c in open_claims)
        placed = 0.0
        still_open: list[Claim] = []
        for claim in open_claims:
            want = remaining * claim.shares / total_shares
            target = allocations[claim.label] + want
            clipped = min(max(target, claim.lo), claim.hi)
            placed += clipped - allocations[claim.label]
            allocations[claim.label] = clipped
            saturated = (
                (remaining > 0 and clipped >= claim.hi - tolerance)
                or (remaining < 0 and clipped <= claim.lo + tolerance)
            )
            if not saturated:
                still_open.append(claim)
        remaining -= placed
        if not still_open:
            break
        # If nothing moved this round (everyone clipped to where they
        # already were) we cannot make progress.
        if abs(placed) <= tolerance and len(still_open) == len(open_claims):
            break
        open_claims = still_open
    return allocations


def proportional_targets(
    total: float, claims: list[Claim]
) -> dict[str, float]:
    """Share-proportional split of an absolute ``total`` with bounds.

    Exact water-filling: find the common *funding level* L such that
    every claim gets ``clamp(L * shares, lo, hi)`` and the clamped
    allocations sum to ``total``.  All claims strictly inside their
    bounds therefore sit at the same allocation-per-share — the
    proportional-fairness invariant.  (A naive iterative "split the
    remainder over open claims" breaks it: a claim raised to its floor
    in one round would also share later rounds' remainders.)

    Infeasible totals degrade gracefully: below the sum of floors every
    claim gets its floor (the paper's no-starvation rule over-commits
    rather than starving); above the sum of ceilings everyone gets hi.
    """
    if not claims:
        return {}
    floor_sum, ceil_sum = pool_bounds(claims)
    if total <= floor_sum:
        return {c.label: c.lo for c in claims}
    if total >= ceil_sum:
        return {c.label: c.hi for c in claims}

    def placed(level: float) -> float:
        return left_sum(
            min(max(level * c.shares, c.lo), c.hi) for c in claims
        )

    lo_level = 0.0
    hi_level = max(c.hi / c.shares for c in claims)
    for _ in range(80):  # ~1e-24 relative precision, overkill but cheap
        mid = (lo_level + hi_level) / 2
        if placed(mid) < total:
            settled = mid == lo_level
            lo_level = mid
        else:
            settled = mid == hi_level
            hi_level = mid
        # the pass left (lo_level, hi_level) as it was, so every later
        # pass would repeat it; a zero midpoint never settles, because
        # 0.0 == -0.0 although the two states differ
        # repro-lint: disable=float-equality — exact zero test, see above
        if settled and mid != 0.0:
            break
    level = (lo_level + hi_level) / 2
    return {
        c.label: min(max(level * c.shares, c.lo), c.hi) for c in claims
    }


def pool_bounds(claims: list[Claim]) -> tuple[float, float]:
    """Feasible range of the allocation pool: sum of floors to sum of
    ceilings."""
    return (left_sum(c.lo for c in claims), left_sum(c.hi for c in claims))


def left_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...``: a plain left fold in claim order.

    Spelled out because ``sum`` of floats is compensated from Python
    3.12 on, and the lockstep daemon pass (:mod:`repro.core.gang`)
    reproduces these sums column by column in numpy, which only a plain
    fold matches bit for bit on every Python.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def refill_pool(pool_total: float, claims: list[Claim]) -> dict[str, float]:
    """Redistribution step: re-split an explicit ``pool_total``
    share-proportionally within bounds.

    This is the revocation direction done right: when the pool shrinks,
    allocations above their share-proportional entitlement (windfalls an
    app received because others were saturated) are revoked *first*;
    when it grows, under-entitled apps catch up first.  A plain
    "spread the delta by shares" would instead take the most from the
    highest-share app — the exact inversion of what proportional
    fairness wants under contraction.

    The caller owns the pool level (``pool += delta`` each iteration)
    rather than re-deriving it from the clamped allocations: floors can
    hold Σ(allocations) above the pool, and summing clamped values back
    would deadlock the controller above the power limit.
    """
    return proportional_targets(pool_total, claims)
