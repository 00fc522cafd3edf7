"""Ablation: the two admission orders of paper section 4.1.

The paper describes both priority flavours — starve LP so HP can boost
(what its implementation does) and "first allocate the minimum required
power to all cores to execute" (floor-first).  This ablation runs the
3H7L @ 40 W scenario under both and quantifies the trade: floor-first
buys LP liveness with the HP turbo headroom.

Checks DESIGN §4 row Ablation: floor-first priority.
"""

import pytest

from repro.core.daemon import PowerDaemon
from repro.core.priority import PriorityConfig, PriorityPolicy
from repro.core.types import ManagedApp, Priority
from repro.hw.platform import skylake_xeon_4114
from repro.sched.pinning import pin_apps
from repro.sim.chip import Chip
from repro.sim.engine import SimEngine
from repro.workloads.spec import spec_app


def run_variant(floor_first: bool):
    platform = skylake_xeon_4114()
    chip = Chip(platform, tick_s=5e-3)
    engine = SimEngine(chip)
    apps = (
        [spec_app("cactusBSSN", steady=True)] * 2
        + [spec_app("leela", steady=True)]
        + [spec_app("cactusBSSN", steady=True)] * 3
        + [spec_app("leela", steady=True)] * 4
    )
    placements = pin_apps(chip, apps)
    managed = [
        ManagedApp(
            label=p.label, core_id=p.core_id,
            priority=Priority.HIGH if i < 3 else Priority.LOW,
        )
        for i, p in enumerate(placements)
    ]
    policy = PriorityPolicy(
        platform, managed, 40.0,
        priority_config=PriorityConfig(floor_first=floor_first),
    )
    daemon = PowerDaemon(chip, policy)
    daemon.attach(engine)
    engine.run(40.0)
    window = [s for s in daemon.history if s.time_s >= 20.0]
    n = len(window)
    hp_freq = sum(
        s.app_frequency_mhz["cactusBSSN#0"] for s in window
    ) / n
    lp_parked = sum(s.app_parked["leela#1"] for s in window) / n
    lp_freq = sum(s.app_frequency_mhz["leela#1"] for s in window) / n
    power = sum(s.package_power_w for s in window) / n
    return hp_freq, lp_parked, lp_freq, power


def test_ablation_priority_floor_first(regen):
    results = regen(
        lambda: {mode: run_variant(mode) for mode in (False, True)}
    )
    starve_hp, starve_parked, _starve_lp, starve_power = results[False]
    floor_hp, floor_parked, floor_lp, floor_power = results[True]

    # the paper's implementation: LP parked, HP boosted above nominal
    assert starve_parked > 0.8
    assert starve_hp > 2500.0

    # floor-first: LP alive at or above the floor, HP loses the boost
    assert floor_parked < 0.1
    assert floor_lp >= 790.0
    assert floor_hp < starve_hp - 300.0

    # both enforce the limit
    assert starve_power <= 41.0
    assert floor_power <= 41.5
