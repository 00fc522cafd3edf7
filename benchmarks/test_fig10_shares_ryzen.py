"""Fig 10: proportional shares on Ryzen — frequency, performance, and
power shares side by side.

Paper shapes: the daemon shares resources accurately in the 30/70-70/30
band but cannot push an app below ~20% of the resource (the 800 MHz
daemon floor); frequency shares give the most accurate performance
control; power shares provide the worst performance isolation.

Checks DESIGN §4 row Fig 10.
"""

import pytest

from repro.experiments.shares_exp import run_fig10_shares_ryzen


def test_fig10_shares_ryzen(regen):
    result = regen(
        run_fig10_shares_ryzen,
        limits_w=(50.0, 40.0),
        duration_s=45.0,
        warmup_s=20.0,
    )

    policies = ("frequency-shares", "performance-shares", "power-shares")

    # accurate sharing in the 30/70..70/30 band, per managed resource.
    # At 40 W no app saturates and the split is honoured everywhere; at
    # 50 W the 70-share leela class reaches its all-core turbo ceiling
    # and min-funding revocation hands the surplus to the other class
    # (work conservation over strict proportionality, paper section 5.2),
    # so the 70/30 point reads lower than 0.70 there by design.
    metric = {
        "frequency-shares": lambda c: c.ld_frequency_fraction,
        "performance-shares": lambda c: c.ld_performance_fraction,
        "power-shares": lambda c: c.ld_power_fraction,
    }
    for policy in policies:
        for ld in (30, 50, 70):
            cell = result.cell(policy, 40.0, ld)
            assert metric[policy](cell) == pytest.approx(
                ld / 100.0, abs=0.06
            )
        for ld in (30, 50):
            cell = result.cell(policy, 50.0, ld)
            assert metric[policy](cell) == pytest.approx(
                ld / 100.0, abs=0.06
            )
        saturated = result.cell(policy, 50.0, 70.0)
        assert 0.58 <= metric[policy](saturated) <= 0.76
        # the saturated class still runs at its achievable ceiling
        assert saturated.ld_norm_perf > 0.85

    # ~20% floor: 10 shares cannot buy less than about a fifth of the
    # frequency (the paper's 800 MHz floor observation)
    for policy in policies:
        cell = result.cell(policy, 40.0, 10.0)
        assert cell.ld_frequency_fraction > 0.15

    # power shares isolate performance worst: their perf fraction
    # deviates most from the share split at the asymmetric ratio
    def perf_deviation(policy, ld):
        cell = result.cell(policy, 40.0, ld)
        return abs(cell.ld_performance_fraction - ld / 100.0)

    assert perf_deviation("power-shares", 30.0) > (
        perf_deviation("frequency-shares", 30.0) + 0.03
    )

    # power shares track *power* precisely even while perf drifts
    cell = result.cell("power-shares", 40.0, 30.0)
    assert cell.ld_power_fraction == pytest.approx(0.30, abs=0.04)

    # per-core power telemetry present on every cell (Ryzen feature)
    for policy in policies:
        assert result.cell(policy, 50.0, 50.0).ld_power_fraction is not None
