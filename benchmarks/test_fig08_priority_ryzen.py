"""Fig 8: priority policy on Ryzen (software-enforced limits).

Paper shapes: results mirror Skylake — at 50 W LP jobs run only with
<= 4 HP jobs, at 40 W only with 2 HP jobs — plus per-class core power
(Ryzen exposes per-core energy), where the HD high-priority class draws
several times the parked/minimum LP class.

Checks DESIGN §4 row Fig 8.
"""

import pytest

from repro.experiments.priority_exp import RYZEN_MIXES, run_fig8_priority_ryzen


def test_fig8_priority_ryzen(regen):
    result = regen(
        run_fig8_priority_ryzen,
        limits_w=(95.0, 50.0, 40.0),
        duration_s=45.0,
        warmup_s=20.0,
    )
    assert set(RYZEN_MIXES) == {"8H0L", "6H2L", "4H4L", "2H6L"}

    # -- at 50 W: LP run when <= 4 HP
    assert result.cell("6H2L", 50.0, "priority").lp_parked_fraction > 0.8
    assert result.cell("4H4L", 50.0, "priority").lp_parked_fraction < 0.2
    assert result.cell("2H6L", 50.0, "priority").lp_parked_fraction < 0.2

    # -- at 40 W: LP run only when 2 HP
    assert result.cell("4H4L", 40.0, "priority").lp_parked_fraction > 0.8
    assert result.cell("2H6L", 40.0, "priority").lp_parked_fraction < 0.2

    # -- per-class core power is reported and ordered (HP >> parked LP)
    cell = result.cell("4H4L", 40.0, "priority")
    assert cell.hp_core_power_w is not None
    assert cell.lp_core_power_w is not None
    assert cell.hp_core_power_w > 3.0 * cell.lp_core_power_w

    # -- HP performance degrades gracefully with the limit
    for mix in RYZEN_MIXES:
        hp95 = result.cell(mix, 95.0, "priority").hp_norm_perf
        hp40 = result.cell(mix, 40.0, "priority").hp_norm_perf
        assert hp95 >= hp40 - 0.02

    # -- software enforcement holds the limit without hardware RAPL
    for mix in RYZEN_MIXES:
        for limit in (50.0, 40.0):
            cell = result.cell(mix, limit, "priority")
            assert cell.package_power_w <= limit + 2.0
