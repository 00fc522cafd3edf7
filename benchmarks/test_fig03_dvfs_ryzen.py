"""Fig 3: effect of DVFS on Ryzen for the SPEC2017 workloads.

Paper shapes: performance rises nearly linearly with frequency (smaller
anomalies than Skylake), and package power jumps at 3.5 GHz where
Precision Boost / XFR voltage levels take effect.

Checks DESIGN §4 row Fig 3.
"""

import pytest

from repro.experiments.dvfs_sweep import run_dvfs_sweep
from repro.workloads.spec import spec_names


def test_fig3_dvfs_sweep_ryzen(regen):
    result = regen(
        run_dvfs_sweep, "ryzen", duration_s=6.0, tick_s=10e-3
    )
    assert result.reference_mhz == 3000.0

    for benchmark in spec_names():
        series = sorted(
            result.series(benchmark), key=lambda p: p.set_frequency_mhz
        )
        at_ref = next(p for p in series if p.set_frequency_mhz == 3000.0)
        assert at_ref.normalized_runtime == pytest.approx(1.0, abs=0.03)
        runtimes = [p.normalized_runtime for p in series]
        assert all(b <= a * 1.02 for a, b in zip(runtimes, runtimes[1:]))

    # near-linear scaling for the frequency-sensitive exchange2:
    # 0.4 -> 3.4 GHz is an 8.5x clock ratio; speedup should be close
    exchange = {p.set_frequency_mhz: p for p in result.series("exchange2")}
    speedup = exchange[400.0].normalized_runtime / (
        exchange[3400.0].normalized_runtime
    )
    assert speedup > 6.0

    # power jump at 3.5 GHz (Precision Boost voltage step)
    leela_power = {p.set_frequency_mhz: p.package_power_w
                   for p in result.series("leela")}
    boost_slope_w_per_mhz = (
        leela_power[3500.0] - leela_power[3400.0]
    ) / 100.0
    nominal_slope_w_per_mhz = (
        leela_power[3400.0] - leela_power[3000.0]
    ) / 400.0
    # the 100 MHz into boost is much steeper than the nominal slope
    assert boost_slope_w_per_mhz > 2.0 * nominal_slope_w_per_mhz

    # the Ryzen AVX cap (3.0 GHz) saturates cam4/lbm above it
    cam4 = {p.set_frequency_mhz: p for p in result.series("cam4")}
    assert cam4[3400.0].normalized_runtime == pytest.approx(
        cam4[3000.0].normalized_runtime, rel=0.02
    )
