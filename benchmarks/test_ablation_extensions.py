"""Ablations for the paper's discussed extensions.

* **Highest-useful-frequency** (section 4.4): capping memory-bound apps
  at their useful frequency should save power with negligible
  performance loss.
* **Game-ability** (section 8): NOP-padding must have "an overall larger
  negative impact on performance than any benefit" under performance
  shares — the paper's soundness criterion.
* **LP consolidation** (section 4.4): time-slicing starved LP apps on
  the affordable cores trades a little HP boost for non-zero LP
  progress.

Checks DESIGN §4 row Ablation: extensions.
"""

import pytest

from repro.config import AppSpec, ExperimentConfig, build_stack
from repro.experiments.consolidation_exp import run_consolidation_experiment
from repro.experiments.gaming_exp import run_gaming_experiment


def _run_useful_mode(useful: bool):
    config = ExperimentConfig(
        platform="skylake", policy="frequency-shares", limit_w=85.0,
        apps=tuple([AppSpec("omnetpp")] * 5 + [AppSpec("lbm")] * 5),
        useful_frequency_mode=useful, tick_s=5e-3,
    )
    stack = build_stack(config)
    stack.engine.run(30.0)
    window = [s for s in stack.daemon.history if s.time_s >= 15.0]
    n = len(window)
    power = sum(s.package_power_w for s in window) / n
    ips = sum(
        sum(s.app_ips[label] for label in stack.labels) for s in window
    ) / n
    return power, ips


def test_ablation_useful_frequency_mode(regen):
    results = regen(
        lambda: {mode: _run_useful_mode(mode) for mode in (False, True)}
    )
    power_off, ips_off = results[False]
    power_on, ips_on = results[True]
    # meaningful power savings for the memory-bound mix...
    assert power_on < power_off * 0.92
    # ...at a small throughput cost
    assert ips_on > ips_off * 0.90
    # net: better energy efficiency (instructions per joule)
    assert ips_on / power_on > ips_off / power_off


def test_ablation_gaming_payoff(regen):
    sweep = regen(
        lambda: {
            g: run_gaming_experiment(
                nop_fraction=g, duration_s=30.0, warmup_s=15.0
            )
            for g in (0.2, 0.4, 0.6)
        }
    )
    payoffs = [sweep[g].gaming_payoff for g in (0.2, 0.4, 0.6)]
    # gaming never pays under performance shares
    assert all(p < 1.0 for p in payoffs)
    # and the harder you game, the worse it gets
    assert payoffs[0] > payoffs[2]


def test_ablation_lp_consolidation(regen):
    results = regen(
        lambda: {
            mode: run_consolidation_experiment(
                consolidate=mode, duration_s=20.0
            )
            for mode in (False, True)
        }
    )
    starved, packed = results[False], results[True]
    assert starved.lp_norm_perf == 0.0
    assert packed.lp_norm_perf > 0.03
    # the HP cost of waking LP cores is bounded
    assert packed.hp_norm_perf > starved.hp_norm_perf - 0.15
    # both respect the limit
    assert starved.package_power_w <= 41.0
    assert packed.package_power_w <= 41.0
