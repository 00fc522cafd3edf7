"""Unit helpers and small numeric utilities used across the library.

The simulator works internally in:

* frequency — megahertz (``float`` MHz),
* power — watts,
* energy — joules (RAPL counters expose micro-joule integers, as real
  hardware does),
* time — seconds for wall-clock quantities, integer *ticks* inside the
  engine (1 tick = 1 ms by default).

Keeping these conventions in one module (rather than a heavyweight unit
type system) matches how OS-level tooling such as turbostat treats the
values, while the helper functions centralise the conversions that are
easy to get wrong (kHz sysfs values, micro-joule counters with wraparound).
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

MHZ_PER_GHZ = 1000.0
KHZ_PER_MHZ = 1000.0
MICROJOULE = 1e-6

#: Default engine tick length in seconds (1 ms).  Coarse relative to real
#: DVFS transition latency (1-30 us, paper section 2.1) but far finer than
#: the 1 s daemon control period, so control-loop dynamics are preserved.
DEFAULT_TICK_SECONDS = 1e-3


def ghz(value: float) -> float:
    """Convert GHz to the library's internal MHz representation."""
    return value * MHZ_PER_GHZ


def mhz_to_ghz(value_mhz: float) -> float:
    """Convert internal MHz to GHz for display."""
    return value_mhz / MHZ_PER_GHZ


def mhz_to_khz(value_mhz: float) -> int:
    """Convert MHz to the integer kHz convention used by sysfs cpufreq."""
    return int(round(value_mhz * KHZ_PER_MHZ))


def khz_to_mhz(value_khz: int) -> float:
    """Convert sysfs kHz to MHz."""
    return value_khz / KHZ_PER_MHZ


def joules_to_uj(value_j: float) -> int:
    """Convert joules to the integer micro-joule convention of RAPL MSRs."""
    return int(round(value_j / MICROJOULE))


def uj_to_joules(value_uj: int) -> float:
    """Convert RAPL micro-joules to joules."""
    return value_uj * MICROJOULE


#: default relative tolerance for float comparisons: generous against
#: accumulated rounding over a long run, far below any physically
#: meaningful difference in watts, MHz, or seconds.
FLOAT_REL_TOL = 1e-9
#: default absolute tolerance, so comparisons against 0.0 still work.
FLOAT_ABS_TOL = 1e-12


def approx_eq(
    a: float,
    b: float,
    *,
    rel_tol: float = FLOAT_REL_TOL,
    abs_tol: float = FLOAT_ABS_TOL,
) -> bool:
    """Tolerant float equality — the approved alternative to ``==``.

    The ``float-equality`` lint rule (DESIGN.md §10.5) bans exact
    equality on float quantities; comparisons that mean "the same
    physical value" go through here (or :func:`is_zero`), so a one-ULP
    wobble from reordered arithmetic can't flip a control decision.
    """
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def is_zero(value: float, *, abs_tol: float = FLOAT_ABS_TOL) -> bool:
    """Tolerant test against zero (relative tolerance is useless there)."""
    return abs(value) <= abs_tol


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into ``[lo, hi]``.

    Raises ``ValueError`` if the interval is empty, which normally flags a
    mis-ordered P-state table rather than a caller bug.
    """
    if lo > hi:
        raise ValueError(f"empty clamp interval [{lo}, {hi}]")
    return max(lo, min(hi, value))


def quantize_down(value: float, grid: Sequence[float]) -> float:
    """Snap ``value`` to the largest grid point that is <= value.

    ``grid`` must be sorted ascending.  Values below the grid snap to the
    lowest point: hardware never runs below its minimum P-state.
    """
    if not grid:
        raise ValueError("empty frequency grid")
    chosen = grid[0]
    for point in grid:
        if point <= value + 1e-9:
            chosen = point
        else:
            break
    return chosen


def quantize_nearest(value: float, grid: Sequence[float]) -> float:
    """Snap ``value`` to the nearest grid point (ties toward the lower).

    ``grid`` must be sorted ascending.  The result is the minimum of
    the grid under the key ``(abs(point - value), point)``, found by
    bisection: rounded distances never decrease away from ``value`` on
    either side, so the best point below ``value`` is the lowest of the
    run sharing its nearest left neighbour's distance, and the best
    point at or above it is the nearest right neighbour.  (The run is
    longer than one point only when the distances round together, e.g.
    for a ``value`` of 1e300 or infinity; NaN compares false everywhere
    and yields the lowest point.)
    """
    if not grid:
        raise ValueError("empty frequency grid")
    right = bisect.bisect_left(grid, value)
    if right == 0:
        return grid[0]
    left = right - 1
    left_distance = abs(grid[left] - value)
    while left > 0 and abs(grid[left - 1] - value) <= left_distance:
        left -= 1
    if right < len(grid) and abs(grid[right] - value) < left_distance:
        return grid[right]
    return grid[left]


def weighted_mean(values: Iterable[float], weights: Iterable[float]) -> float:
    """Weighted arithmetic mean; raises on zero total weight."""
    num = 0.0
    den = 0.0
    for value, weight in zip(values, weights):
        num += value * weight
        den += weight
    # repro-lint: disable=float-equality — guarding exact-zero division only
    if den == 0.0:
        raise ValueError("zero total weight")
    return num / den


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``samples`` (pct in [0, 100]).

    Implemented locally (rather than via numpy) so telemetry code has no
    array dependency on hot paths and behaves identically on empty input
    guards.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    # lo + frac*(hi-lo) rather than a blended sum: exact when the two
    # samples are equal, so results never leave [min, max] by an ULP
    return ordered[lo] + frac * (ordered[hi] - ordered[lo])


def normalize(values: Sequence[float]) -> list[float]:
    """Scale non-negative values so they sum to 1.0."""
    total = float(sum(values))
    if total <= 0.0:
        raise ValueError("cannot normalize non-positive total")
    return [value / total for value in values]
