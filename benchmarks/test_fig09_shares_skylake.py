"""Fig 9: proportional-share policies on Skylake (leela vs cactusBSSN).

Paper shapes: (1) low dynamic range — at 90/10 the low-share app gets
more than its share of frequency and power, because the 800 MHz floor
binds; (2) frequency shares and performance shares give very similar
results, the paper's argument for the simpler policy.

Checks DESIGN §4 row Fig 9.
"""

import pytest

from repro.experiments.shares_exp import run_fig9_shares_skylake


def test_fig9_shares_skylake(regen):
    result = regen(
        run_fig9_shares_skylake,
        limits_w=(50.0, 40.0),
        duration_s=45.0,
        warmup_s=20.0,
    )

    for policy in ("frequency-shares", "performance-shares"):
        for limit in (50.0, 40.0):
            # monotone: more shares, more resource
            fractions = [
                result.cell(policy, limit, ld).ld_frequency_fraction
                for ld in (10, 30, 50, 70, 90)
            ]
            # non-decreasing: ties happen where the floor/ceiling binds
            assert all(
                b >= a - 0.02 for a, b in zip(fractions, fractions[1:])
            )
            assert fractions[-1] > fractions[0] + 0.2

            # mid-range ratios are honoured
            mid = result.cell(policy, limit, 50.0)
            assert mid.ld_frequency_fraction == pytest.approx(0.5, abs=0.06)

            # low dynamic range: at 90/10 the HD app exceeds its 10%
            edge = result.cell(policy, limit, 90.0)
            assert 1.0 - edge.ld_frequency_fraction > 0.10

            # limits respected
            for ld in (10, 50, 90):
                cell = result.cell(policy, limit, ld)
                assert cell.package_power_w <= limit + 2.0

    # frequency shares ~= performance shares (the paper's headline)
    for limit in (50.0, 40.0):
        for ld in (30, 50, 70):
            freq_cell = result.cell("frequency-shares", limit, ld)
            perf_cell = result.cell("performance-shares", limit, ld)
            assert freq_cell.ld_performance_fraction == pytest.approx(
                perf_cell.ld_performance_fraction, abs=0.07
            )
