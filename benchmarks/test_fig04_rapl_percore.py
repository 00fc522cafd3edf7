"""Fig 4: impact of RAPL on per-core DVFS (gcc on all ten cores).

Paper shapes: (a) power saved by software-throttled cores is used by the
unconstrained cores to run faster; (b) RAPL finds a global maximum
frequency and only reduces the *unconstrained* cores' frequency — the
throttled cores keep their set-points.

Checks DESIGN §4 row Fig 4.
"""

import pytest

from repro.experiments.rapl_interference import run_fig4_percore_dvfs


def test_fig4_rapl_with_percore_dvfs(regen):
    result = regen(
        run_fig4_percore_dvfs, duration_s=14.0, warmup_s=6.0,
        limits_w=(85.0, 60.0, 50.0, 40.0),
    )
    for limit in (50.0, 40.0):
        series = result.series(limit)
        by_throttle = {p.throttled_set_mhz: p for p in series}

        # (a) deeper software throttling frees power: the unconstrained
        # group runs faster when the other half is at 800 MHz than when
        # both halves request 2.5 GHz
        assert (
            by_throttle[800.0].unconstrained_freq_mhz
            > by_throttle[2500.0].unconstrained_freq_mhz
        )
        assert (
            by_throttle[800.0].unconstrained_norm_perf
            > by_throttle[2500.0].unconstrained_norm_perf
        )

        # (b) RAPL throttles only the fastest cores: the throttled group
        # keeps its set-point whenever that is below the global cap
        for throttle in (800.0, 1200.0):
            point = by_throttle[throttle]
            assert point.throttled_freq_mhz == pytest.approx(
                throttle, rel=0.02
            )
            # while the unconstrained group is clipped below its request
            assert point.unconstrained_freq_mhz <= 2500.0 + 1.0

        # limits are enforced
        for point in series:
            assert point.package_power_w <= limit + 1.5

    # at 85 W nothing binds: both groups at their requests
    for point in result.series(85.0):
        assert point.unconstrained_freq_mhz == pytest.approx(2500.0, abs=25)
