"""Ablation: control stability under program phases (paper section 6.2).

The paper's argument for frequency shares over performance shares is
stability: "frequency is stable while running, while performance is
measured as IPS ... Small phase changes can affect performance, leading
to control operations to rebalance power."

This ablation makes the phases big — an app whose IPC swings ±25% on a
half-minute period — and measures how much each policy's frequency
programming churns in steady state.  Frequency shares should hold the
operating point; performance shares chase the phase.

Checks DESIGN §4 row Ablation: phase stability.
"""

import dataclasses

import pytest

from repro.core.daemon import PowerDaemon
from repro.core.frequency_shares import FrequencySharesPolicy
from repro.core.performance_shares import PerformanceSharesPolicy
from repro.core.types import ManagedApp
from repro.hw.platform import skylake_xeon_4114
from repro.sched.pinning import pin_apps
from repro.sim.chip import Chip
from repro.sim.engine import SimEngine
from repro.sim.perf_model import max_standalone_ips
from repro.workloads.app import AppPhase
from repro.workloads.spec import spec_app


def phased_app():
    """deepsjeng with exaggerated phase behaviour."""
    base = spec_app("deepsjeng", steady=True)
    return dataclasses.replace(
        base,
        name="deepsjeng-phased",
        phase=AppPhase(ipc_amplitude=0.25, power_amplitude=0.05,
                       period_s=30.0),
    )


def run_policy(policy_cls):
    platform = skylake_xeon_4114()
    chip = Chip(platform, tick_s=5e-3)
    engine = SimEngine(chip)
    apps = [phased_app()] * 5 + [spec_app("leela", steady=True)] * 5
    placements = pin_apps(chip, apps)
    managed = [
        ManagedApp(
            label=p.label,
            core_id=p.core_id,
            shares=50.0,
            baseline_ips=max_standalone_ips(platform, p.app.model),
        )
        for p in placements
    ]
    policy = policy_cls(platform, managed, 45.0)
    daemon = PowerDaemon(chip, policy)
    daemon.attach(engine)
    engine.run(90.0)
    window = [s for s in daemon.history if s.time_s >= 30.0]
    # churn: mean absolute per-iteration change of the programmed target
    # for the phased app
    label = "deepsjeng-phased#0"
    targets = [s.targets_mhz[label] for s in window]
    churn = sum(
        abs(b - a) for a, b in zip(targets, targets[1:])
    ) / max(len(targets) - 1, 1)
    power = sum(s.package_power_w for s in window) / len(window)
    return churn, power


def test_ablation_phase_stability(regen):
    results = regen(
        lambda: {
            "frequency-shares": run_policy(FrequencySharesPolicy),
            "performance-shares": run_policy(PerformanceSharesPolicy),
        }
    )
    freq_churn, freq_power = results["frequency-shares"]
    perf_churn, perf_power = results["performance-shares"]

    # both hold the limit
    assert freq_power == pytest.approx(45.0, abs=2.5)
    assert perf_power == pytest.approx(45.0, abs=2.5)
    # performance shares chase the phases; frequency shares do not —
    # the paper's core argument for the simpler policy
    assert perf_churn > 3.0 * freq_churn
    assert freq_churn < 40.0  # MHz per iteration: essentially parked
