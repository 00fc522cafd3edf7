"""Fig 7 (and Table 2): priority policy vs RAPL on Skylake.

Paper shapes, per mix and limit:

* at 50 W LP apps run only when there are <= 5 HP apps; at 40 W only in
  the 1H9L mix;
* with 3 HP apps at 40 W the policy starves LP and boosts HP *above*
  their 85 W performance (opportunistic scaling);
* under RAPL there is no distinction: HP and LP share the same frequency
  and suffer the same loss.

Checks DESIGN §4 rows Fig 7 and Table 2.
"""

import pytest

from repro.experiments.priority_exp import (
    TABLE2_MIXES,
    run_fig7_priority_skylake,
)


def test_fig7_priority_vs_rapl(regen):
    result = regen(
        run_fig7_priority_skylake,
        limits_w=(85.0, 50.0, 40.0),
        duration_s=45.0,
        warmup_s=20.0,
    )

    # Table 2 mixes drive the experiment
    assert set(TABLE2_MIXES) == {"10H0L", "7H3L", "5H5L", "3H7L", "1H9L"}

    # -- starvation pattern at 50 W (priority policy)
    assert result.cell("7H3L", 50.0, "priority").lp_parked_fraction > 0.8
    for mix in ("5H5L", "3H7L", "1H9L"):
        assert result.cell(mix, 50.0, "priority").lp_parked_fraction < 0.2

    # -- starvation pattern at 40 W
    for mix in ("7H3L", "5H5L", "3H7L"):
        assert result.cell(mix, 40.0, "priority").lp_parked_fraction > 0.8
    assert result.cell("1H9L", 40.0, "priority").lp_parked_fraction < 0.2

    # -- opportunistic boost: 3H7L at 40 W beats 85 W for HP
    boosted = result.cell("3H7L", 40.0, "priority").hp_norm_perf
    full_power = result.cell("3H7L", 85.0, "priority").hp_norm_perf
    assert boosted > full_power

    # -- HP isolation: priority keeps HP far faster than RAPL does
    for limit in (50.0, 40.0):
        for mix in ("5H5L", "3H7L"):
            prio = result.cell(mix, limit, "priority").hp_norm_perf
            rapl = result.cell(mix, limit, "rapl").hp_norm_perf
            assert prio > rapl + 0.05

    # -- RAPL is priority-blind: HP and LP at the same frequency
    for limit in (50.0, 40.0):
        cell = result.cell("5H5L", limit, "rapl")
        assert cell.hp_freq_mhz == pytest.approx(cell.lp_freq_mhz, rel=0.03)

    # -- at 85 W everything runs fast under either policy
    assert result.cell("10H0L", 85.0, "priority").hp_norm_perf > 0.8

    # -- limits respected in steady state
    for mix in TABLE2_MIXES:
        for limit in (50.0, 40.0):
            cell = result.cell(mix, limit, "priority")
            assert cell.package_power_w <= limit + 2.0
