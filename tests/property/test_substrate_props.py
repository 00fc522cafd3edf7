"""Property-based tests for substrate invariants: P-state quantization,
app frequency response, power model monotonicity, C-state accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cstates import CStateModel
from repro.hw.platform import ryzen_1700x, skylake_xeon_4114
from repro.sim.power_model import core_power_watts
from repro.units import percentile, quantize_down, quantize_nearest
from repro.workloads.app import AppModel

SKYLAKE = skylake_xeon_4114()
RYZEN = ryzen_1700x()

platforms = st.sampled_from([SKYLAKE, RYZEN])
frequencies = st.floats(min_value=1.0, max_value=5000.0)


@given(platforms, frequencies)
@settings(max_examples=200, deadline=None)
def test_quantize_lands_on_grid(platform, freq):
    for nearest in (False, True):
        pstate = platform.pstates.quantize(freq, nearest=nearest)
        assert pstate.frequency_mhz in platform.pstates.frequencies_mhz


def reference_quantize_nearest(value, grid):
    """``quantize_nearest`` before bisection: a full scan under the
    ``(distance, point)`` key, so ties go to the lower point."""
    return min(grid, key=lambda point: (abs(point - value), point))


grids = st.one_of(
    st.sampled_from(
        [SKYLAKE.pstates.frequencies_mhz, RYZEN.pstates.frequencies_mhz]
    ),
    # integer points make exact midpoint ties
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=30,
             unique=True).map(lambda xs: [float(x) for x in sorted(xs)]),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
             max_size=30, unique=True).map(sorted),
)


@st.composite
def grid_and_value(draw):
    grid = draw(grids)
    value = draw(st.one_of(
        st.floats(),  # NaN, infinities and the extremes included
        st.sampled_from(grid),  # exact grid points
        st.sampled_from(grid).map(lambda p: p - 1e300),  # off the bottom
        st.sampled_from(grid).map(lambda p: p + 1e300),  # off the top
        st.integers(0, len(grid) - 1).map(  # midpoints: ties
            lambda i: (grid[i] + grid[min(i + 1, len(grid) - 1)]) / 2
        ),
    ))
    return grid, value


@given(grid_and_value())
@settings(max_examples=500, deadline=None)
def test_quantize_nearest_matches_full_scan(case):
    grid, value = case
    assert quantize_nearest(value, grid) == reference_quantize_nearest(
        value, grid
    )


@given(platforms, frequencies)
@settings(max_examples=200, deadline=None)
def test_quantize_down_never_exceeds_request(platform, freq):
    pstate = platform.pstates.quantize(freq)
    assert (
        pstate.frequency_mhz <= max(freq, platform.min_frequency_mhz) + 1e-9
    )


@given(platforms, frequencies)
@settings(max_examples=200, deadline=None)
def test_nearest_is_at_least_as_close_as_down(platform, freq):
    near = platform.pstates.quantize(freq, nearest=True).frequency_mhz
    down = platform.pstates.quantize(freq).frequency_mhz
    assert abs(near - freq) <= abs(down - freq) + 1e-9


@given(
    st.floats(min_value=0.0, max_value=0.9),
    st.floats(min_value=100.0, max_value=4000.0),
    st.floats(min_value=100.0, max_value=4000.0),
)
@settings(max_examples=200, deadline=None)
def test_speedup_monotone_and_bounded(mem_fraction, f1, f2):
    app = AppModel(
        name="p", instructions=None, mem_fraction=mem_fraction,
        c_eff=1.0, base_ipc=1.0,
    )
    lo, hi = sorted((f1, f2))
    s_lo = app.speedup(lo, 3000.0)
    s_hi = app.speedup(hi, 3000.0)
    assert s_hi >= s_lo
    if mem_fraction > 0:
        assert s_hi < 1.0 / mem_fraction  # memory wall


@given(
    platforms,
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_core_power_monotone_in_frequency(platform, c_eff, busy):
    freqs = sorted(platform.pstates.frequencies_mhz)
    powers = [
        core_power_watts(platform, f, c_eff, busy, active=busy > 0)
        for f in freqs
    ]
    assert all(b >= a - 1e-9 for a, b in zip(powers, powers[1:]))


@given(st.lists(st.floats(min_value=0.0, max_value=1e6),
                min_size=1, max_size=50),
       st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_percentile_within_range(samples, pct):
    value = percentile(samples, pct)
    assert min(samples) <= value <= max(samples)


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                          st.booleans()),
                min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_cstate_residency_conserves_time(observations):
    model = CStateModel(1)
    dt = 1e-3
    for busy, parked in observations:
        model.observe(0, dt, busy, parked)
    from repro.hw.cstates import CState

    total = sum(model.residency(0, s) for s in CState)
    assert total == pytest.approx(len(observations) * dt, rel=1e-6)


@given(st.lists(st.floats(min_value=100.0, max_value=4000.0),
                min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_pstate_select_respects_budget(targets_list):
    from repro.core.pstate_select import select_pstate_levels

    targets = {f"a{i}": value for i, value in enumerate(targets_list)}
    out = select_pstate_levels(RYZEN, targets)
    assert len(set(out.values())) <= RYZEN.simultaneous_pstates
    grid = set(RYZEN.pstates.frequencies_mhz)
    assert set(out.values()) <= grid
