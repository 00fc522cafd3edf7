"""Property-based tests for min-funding distribution invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.minfund import (
    Claim,
    distribute_min_funding,
    left_sum,
    pool_bounds,
    proportional_targets,
    refill_pool,
)


@st.composite
def claims_strategy(draw, max_claims=6):
    n = draw(st.integers(min_value=1, max_value=max_claims))
    claims = []
    for i in range(n):
        lo = draw(st.floats(min_value=0.0, max_value=10.0))
        hi = lo + draw(st.floats(min_value=0.0, max_value=50.0))
        current = draw(st.floats(min_value=lo, max_value=hi))
        shares = draw(st.floats(min_value=0.1, max_value=100.0))
        claims.append(Claim(f"c{i}", shares, current, lo, hi))
    return claims


@given(claims_strategy(), st.floats(min_value=-100.0, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_distribute_respects_bounds(claims, delta):
    out = distribute_min_funding(delta, claims)
    for claim in claims:
        assert claim.lo - 1e-6 <= out[claim.label] <= claim.hi + 1e-6


@given(claims_strategy(), st.floats(min_value=-100.0, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_distribute_moves_toward_delta(claims, delta):
    """The distributed amount never overshoots delta and has its sign."""
    out = distribute_min_funding(delta, claims)
    moved = sum(out[c.label] - c.current for c in claims)
    if delta >= 0:
        assert -1e-6 <= moved <= delta + 1e-6
    else:
        assert delta - 1e-6 <= moved <= 1e-6


@given(claims_strategy(), st.floats(min_value=-100.0, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_distribute_full_delta_when_capacity_allows(claims, delta):
    capacity_up = sum(c.hi - c.current for c in claims)
    capacity_down = sum(c.current - c.lo for c in claims)
    out = distribute_min_funding(delta, claims)
    moved = sum(out[c.label] - c.current for c in claims)
    if 0 <= delta <= capacity_up or -capacity_down <= delta <= 0:
        assert moved == pytest.approx(delta, abs=1e-5)


@given(claims_strategy())
@settings(max_examples=100, deadline=None)
def test_proportional_targets_unclamped_are_proportional(claims):
    """Claims whose result is strictly inside their bounds sit at a
    common funding level (allocation/shares)."""
    total = sum(c.hi for c in claims) / 2
    out = proportional_targets(total, claims)
    ratios = [
        out[c.label] / c.shares
        for c in claims
        if c.lo + 1e-6 < out[c.label] < c.hi - 1e-6
    ]
    for a in ratios:
        for b in ratios:
            assert a == pytest.approx(b, rel=1e-4, abs=1e-6)


@given(claims_strategy(), st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=100, deadline=None)
def test_refill_pool_bounded(claims, pool):
    lo, hi = pool_bounds(claims)
    out = refill_pool(min(max(pool, lo), hi), claims)
    for claim in claims:
        assert claim.lo - 1e-6 <= out[claim.label] <= claim.hi + 1e-6


@given(claims_strategy(), st.floats(min_value=0.0, max_value=200.0),
       st.floats(min_value=0.0, max_value=200.0))
@settings(max_examples=100, deadline=None)
def test_refill_pool_monotone_in_pool(claims, pool_a, pool_b):
    """A bigger pool never gives any app less."""
    lo, hi = pool_bounds(claims)
    small, large = sorted(
        (min(max(p, lo), hi) for p in (pool_a, pool_b))
    )
    out_small = refill_pool(small, claims)
    out_large = refill_pool(large, claims)
    for claim in claims:
        assert out_large[claim.label] >= out_small[claim.label] - 1e-6


def reference_proportional_targets(total, claims):
    """``proportional_targets`` before its early exit: every one of the
    80 bisection passes runs.  Sums are the same left folds."""
    if not claims:
        return {}
    floor_sum, ceil_sum = pool_bounds(claims)
    if total <= floor_sum:
        return {c.label: c.lo for c in claims}
    if total >= ceil_sum:
        return {c.label: c.hi for c in claims}

    def placed(level):
        return left_sum(
            min(max(level * c.shares, c.lo), c.hi) for c in claims
        )

    lo_level = 0.0
    hi_level = max(c.hi / c.shares for c in claims)
    for _ in range(80):
        mid = (lo_level + hi_level) / 2
        if placed(mid) < total:
            lo_level = mid
        else:
            hi_level = mid
    level = (lo_level + hi_level) / 2
    return {
        c.label: min(max(level * c.shares, c.lo), c.hi) for c in claims
    }


bounds = st.one_of(
    st.floats(min_value=-1e4, max_value=1e4),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300]),
)


@st.composite
def wide_claims(draw, max_claims=6):
    """Claims with negative, zero and subnormal bounds too."""
    n = draw(st.integers(min_value=1, max_value=max_claims))
    claims = []
    for i in range(n):
        lo, hi = sorted((draw(bounds), draw(bounds)))
        shares = draw(st.floats(min_value=1e-3, max_value=1e3))
        claims.append(Claim(f"c{i}", shares, lo, lo, hi))
    return claims


@given(
    st.one_of(claims_strategy(), wide_claims()),
    st.one_of(st.floats(), st.floats(min_value=-10.0, max_value=300.0)),
)
@settings(max_examples=500, deadline=None)
def test_proportional_targets_early_exit_matches_all_passes(claims, total):
    """Stopping once a pass leaves the bisection interval unchanged
    gives the same bits as running all 80 passes."""
    out = proportional_targets(total, claims)
    ref = reference_proportional_targets(total, claims)
    assert {k: v.hex() for k, v in out.items()} == {
        k: v.hex() for k, v in ref.items()
    }
