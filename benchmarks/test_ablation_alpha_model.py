"""Ablation: robustness of the naive alpha translation model.

The paper's share policies convert power deltas to resource deltas with
``alpha = PowerDelta / MaxPower`` and admit the model is simplistic:
"the error becomes smaller when the system is near the target power" and
"since we dynamically adjust the values later, modeling errors do not
affect steady state behavior".  This ablation proves that claim on the
reproduction: mis-calibrating MaxPower by -50% / +100% changes settling
dynamics but not the steady state.

Checks DESIGN §4 row Ablation: alpha model.
"""

import pytest

from repro.config import AppSpec, ExperimentConfig, build_stack
from repro.core.policy import PolicyConfig
from repro.core.frequency_shares import FrequencySharesPolicy
from repro.core.daemon import PowerDaemon
from repro.core.types import ManagedApp
from repro.hw.platform import skylake_xeon_4114
from repro.sched.pinning import pin_apps
from repro.sim.chip import Chip
from repro.sim.engine import SimEngine
from repro.workloads.spec import spec_app


def run_with_max_power(max_power_w: float) -> tuple[float, float]:
    platform = skylake_xeon_4114()
    chip = Chip(platform, tick_s=5e-3)
    engine = SimEngine(chip)
    placements = pin_apps(
        chip,
        [spec_app("leela", steady=True)] * 5
        + [spec_app("cactusBSSN", steady=True)] * 5,
    )
    managed = [
        ManagedApp(label=p.label, core_id=p.core_id,
                   shares=70.0 if i < 5 else 30.0)
        for i, p in enumerate(placements)
    ]
    policy = FrequencySharesPolicy(
        platform, managed, 45.0,
        config=PolicyConfig(max_power_w=max_power_w),
    )
    daemon = PowerDaemon(chip, policy)
    daemon.attach(engine)
    engine.run(70.0)
    window = [s for s in daemon.history if s.time_s >= 45.0]
    steady_power = sum(s.package_power_w for s in window) / len(window)
    ld = sum(s.app_frequency_mhz["leela#0"] for s in window) / len(window)
    hd = sum(
        s.app_frequency_mhz["cactusBSSN#0"] for s in window
    ) / len(window)
    return steady_power, ld / (ld + hd)


def test_ablation_alpha_model_error(regen):
    sweep = regen(
        lambda: {m: run_with_max_power(m) for m in (42.5, 85.0, 170.0)}
    )
    correct_power, correct_split = sweep[85.0]
    for max_power, (steady, split) in sweep.items():
        # steady state is immune to the model error (the paper's claim);
        # a mis-calibrated alpha only changes how fast the loop walks in
        assert steady == pytest.approx(correct_power, abs=3.0)
        assert split == pytest.approx(correct_split, abs=0.05)
        assert steady <= 45.0 + 1.5  # the limit holds regardless
