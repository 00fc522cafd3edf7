"""Ablation: the Ryzen simultaneous-P-state budget (paper sections 2.1/5).

The Ryzen 1700X supports only 3 distinct voltage/frequency pairs at
once; the paper's selection utility reduces per-core targets to 3
levels.  This ablation re-runs a 4-level share mix with the level budget
forced to 1, 2, 3, and 8 and measures how much share fidelity the
restriction costs: with one level shares collapse entirely; three levels
recover most of the unrestricted fidelity — evidence for the paper's
claim that the workaround is adequate.

Checks DESIGN §4 row Ablation: P-state levels.
"""

import dataclasses

import pytest

from repro.core.daemon import PowerDaemon
from repro.core.frequency_shares import FrequencySharesPolicy
from repro.core.types import ManagedApp
from repro.hw.platform import ryzen_1700x
from repro.sched.pinning import pin_apps
from repro.sim.chip import Chip
from repro.sim.engine import SimEngine
from repro.workloads.spec import spec_app

SHARES = (80.0, 60.0, 40.0, 20.0, 80.0, 60.0, 40.0, 20.0)


def run_with_levels(levels: int) -> dict[float, float]:
    """Returns share value -> mean granted frequency."""
    platform = dataclasses.replace(ryzen_1700x(),
                                   simultaneous_pstates=levels)
    chip = Chip(platform, tick_s=5e-3)
    engine = SimEngine(chip)
    placements = pin_apps(chip, [spec_app("leela", steady=True)] * 8)
    managed = [
        ManagedApp(label=p.label, core_id=p.core_id, shares=share)
        for p, share in zip(placements, SHARES)
    ]
    policy = FrequencySharesPolicy(platform, managed, 40.0)
    daemon = PowerDaemon(chip, policy)
    daemon.attach(engine)
    engine.run(35.0)
    window = [s for s in daemon.history if s.time_s >= 18.0]
    out: dict[float, list[float]] = {}
    for app in managed:
        out.setdefault(app.shares, []).append(
            sum(s.app_frequency_mhz[app.label] for s in window)
            / len(window)
        )
    return {share: sum(v) / len(v) for share, v in out.items()}


def share_error(freqs: dict[float, float]) -> float:
    """RMS deviation of frequency fractions from share fractions."""
    total_shares = sum(SHARES)
    total_freq = sum(freqs[s] * SHARES.count(s) for s in freqs)
    err = 0.0
    for share, freq in freqs.items():
        target = share / total_shares
        actual = freq / total_freq
        err += (target - actual) ** 2
    return (err / len(freqs)) ** 0.5


def test_ablation_simultaneous_pstate_levels(regen):
    results = regen(
        lambda: {k: run_with_levels(k) for k in (1, 2, 3, 8)}
    )
    errors = {k: share_error(freqs) for k, freqs in results.items()}

    # one level cannot differentiate at all: every share level runs at
    # the same frequency
    one_level = results[1]
    assert max(one_level.values()) - min(one_level.values()) < 30.0

    # more levels, monotonically better (or equal) fidelity
    assert errors[1] >= errors[2] >= errors[3] - 1e-9
    assert errors[3] >= errors[8] - 1e-9

    # three levels recover most of the unrestricted fidelity — the
    # paper's workaround is adequate
    assert errors[3] <= errors[8] + 0.02
    # and beat one level decisively
    assert errors[1] > 2.0 * errors[3]
