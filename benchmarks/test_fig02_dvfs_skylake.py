"""Fig 2: effect of DVFS on Skylake for the SPEC2017 workloads.

Paper shapes: normalized runtime falls as frequency rises with a wide
spread across benchmarks; the AVX apps (lbm, imagick, cam4) are power
outliers whose performance saturates around the AVX cap; package power
jumps by ~5 W when the sweep enters the TurboBoost bins.

Checks DESIGN §4 row Fig 2.
"""

import pytest

from repro.experiments.dvfs_sweep import run_dvfs_sweep
from repro.workloads.spec import spec_names


def test_fig2_dvfs_sweep_skylake(regen):
    result = regen(
        run_dvfs_sweep, "skylake", duration_s=6.0, tick_s=10e-3
    )
    assert result.reference_mhz == 2200.0

    for benchmark in spec_names():
        series = sorted(
            result.series(benchmark), key=lambda p: p.set_frequency_mhz
        )
        runtimes = [p.normalized_runtime for p in series]
        # runtime normalized to 2.2 GHz: ~1.0 at the reference
        at_ref = next(
            p for p in series if p.set_frequency_mhz == 2200.0
        )
        assert at_ref.normalized_runtime == pytest.approx(1.0, abs=0.03)
        # monotone non-increasing runtime with frequency (within noise)
        assert all(b <= a * 1.02 for a, b in zip(runtimes, runtimes[1:]))

    # AVX apps saturate: moving 2.2 -> 3.0 GHz buys them nothing
    for avx_app in ("cam4", "lbm", "imagick"):
        series = {p.set_frequency_mhz: p for p in result.series(avx_app)}
        assert series[3000.0].normalized_runtime == pytest.approx(
            series[2200.0].normalized_runtime, rel=0.02
        )
        assert series[3000.0].effective_frequency_mhz <= 1700.0
    # while gcc keeps speeding up
    gcc = {p.set_frequency_mhz: p for p in result.series("gcc")}
    assert gcc[3000.0].normalized_runtime < gcc[2200.0].normalized_runtime

    # AVX apps are among the highest-power at a common frequency
    at_17 = {p.benchmark: p.package_power_w
             for p in result.at_frequency(1700.0)}
    median = sorted(at_17.values())[len(at_17) // 2]
    assert at_17["cam4"] > median

    # turbo power jump: entering the boost bins costs extra watts beyond
    # the frequency increment itself
    gcc_power = {p.set_frequency_mhz: p.package_power_w
                 for p in result.series("gcc")}
    jump = gcc_power[2600.0] - gcc_power[2200.0]
    pre_jump = gcc_power[2200.0] - gcc_power[2000.0]
    assert jump > 2.0 * pre_jump

    # box-plot summary is well-formed at every swept frequency
    box = result.power_boxplot(2200.0)
    assert box["p1"] <= box["q1"] <= box["median"] <= box["q3"] <= box["p99"]
