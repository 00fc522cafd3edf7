"""Fig 6: time-shared power consumption on a single Ryzen core.

Paper shape: with cactusBSSN (HD) and gcc (LD) time sharing one core at
3.4 GHz, average core power is the residency-weighted sum of the two
apps' standalone draws — linear in the varied CPU quota, anchored by the
two 100%-alone measurements.

Checks DESIGN §4 row Fig 6.
"""

import pytest

from repro.experiments.timeshare_exp import (
    expected_mixture_power_w,
    run_fig6_timeshare,
)


def test_fig6_timeshare_power(regen):
    result = regen(run_fig6_timeshare, duration_s=10.0)

    hd, ld = "cactusBSSN", "gcc"
    # standalone anchor: HD draws more than LD at the same frequency
    assert result.alone_power_w[hd] > result.alone_power_w[ld]

    for fixed, varied in ((hd, ld), (ld, hd)):
        series = result.series(varied)
        powers = [p.core_power_w for p in series]
        quotas = [p.varied_quota for p in series]
        # monotone in the varied quota
        assert all(b > a for a, b in zip(powers, powers[1:]))
        # linear: interior points sit on the chord between the endpoints
        slope = (powers[-1] - powers[0]) / (quotas[-1] - quotas[0])
        for quota, power in zip(quotas, powers):
            predicted = powers[0] + slope * (quota - quotas[0])
            assert power == pytest.approx(predicted, rel=0.03)
        # and close to the residency-weighted mixture model
        for point in series:
            expected = expected_mixture_power_w(
                result, fixed, varied, point.varied_quota
            )
            assert point.core_power_w == pytest.approx(expected, rel=0.10)

    # the two 50/50 mixes coincide (same residency split)
    hd_series = {p.varied_quota: p for p in result.series(hd)}
    ld_series = {p.varied_quota: p for p in result.series(ld)}
    assert hd_series[0.5].core_power_w == pytest.approx(
        ld_series[0.5].core_power_w, rel=0.02
    )
