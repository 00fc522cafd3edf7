"""Ablation: RAPL firmware-controller constants.

Past work the paper cites (Zhang & Hoffman) reports RAPL settles fast
and stably.  Our emulated limiter should too, across a range of
controller gains and averaging windows — and the ablation documents
where the design space degrades (tiny gain = slow settling).

Checks DESIGN §4 row Ablation: RAPL controller.
"""

import pytest

from repro.hw.platform import skylake_xeon_4114
from repro.hw.rapl import RaplLimiterConfig
from repro.sim.chip import Chip
from repro.sim.core import BatchCoreLoad
from repro.sim.engine import SimEngine
from repro.workloads.app import RunningApp
from repro.workloads.spec import spec_app


def run_step_response(gain: float, tau: float) -> tuple[float, float]:
    """Apply a 40 W limit to a hot 10-core workload; return (settling
    time, steady power)."""
    platform = skylake_xeon_4114()
    chip = Chip(
        platform,
        tick_s=1e-3,
        rapl_config=RaplLimiterConfig(
            gain_mhz_per_w=gain, averaging_tau_s=tau
        ),
    )
    engine = SimEngine(chip)
    for core_id in range(10):
        app = RunningApp(spec_app("cactusBSSN", steady=True),
                         instance=core_id)
        chip.assign_load(core_id, BatchCoreLoad(app, 2200.0))
        chip.set_requested_frequency(core_id, 2200.0)
    chip.set_rapl_limit(40.0)
    settle_s = None
    powers = []
    for step in range(4000):  # 4 simulated seconds
        engine.run_ticks(1)
        power = chip.last_package_power_w
        powers.append(power)
        if settle_s is None and power <= 41.0:
            settle_s = chip.time_s
    steady = sum(powers[-500:]) / 500
    return settle_s, steady


def test_ablation_rapl_controller(regen):
    sweep = regen(
        lambda: {
            (gain, tau): run_step_response(gain, tau)
            for gain in (1.0, 4.0, 16.0)
            for tau in (0.005, 0.010, 0.050)
        }
    )
    for (gain, tau), (settle, steady) in sweep.items():
        # every configuration eventually enforces the limit
        assert settle is not None, f"gain={gain} tau={tau} never settled"
        assert steady <= 41.5
        # and none collapses below it (no violent undershoot)
        assert steady >= 35.0

    # higher gain settles faster at a fixed window
    assert sweep[(16.0, 0.010)][0] <= sweep[(1.0, 0.010)][0]
    # the default configuration settles within tens of milliseconds,
    # matching the measured behaviour of real RAPL
    assert sweep[(4.0, 0.010)][0] < 0.2
