"""Ablation: daemon control-loop period (paper section 5).

The paper's daemon iterates once per second; its alpha-model step is
*per iteration*, so the control period sets the effective loop gain.
The steady-state operating point sits between quantized P-state bins
(the turbo voltage cliff), so the loop occasionally probes the next bin
up, overshoots, and rolls back — the frequency-shares policy backs those
probes off geometrically, leaving isolated single-iteration excursions
whose cadence decays over time.

This ablation verifies, for 0.5 s / 1 s / 2 s periods:

* mean power tracks the limit regardless of period,
* limit excursions are isolated probes (never sustained), and
* probing gets rarer as the backoff doubles.

Checks DESIGN §4 row Ablation: daemon period.
"""

import pytest

from repro.config import AppSpec, ExperimentConfig, build_stack

APPS = tuple(
    [AppSpec("leela", shares=70)] * 5 + [AppSpec("cactusBSSN", shares=30)] * 5
)
LIMIT = 45.0


def run_interval(interval_s: float):
    config = ExperimentConfig(
        platform="skylake", policy="frequency-shares", limit_w=LIMIT,
        apps=APPS, interval_s=interval_s, tick_s=5e-3,
    )
    stack = build_stack(config)
    stack.engine.run(90.0)
    return [
        (s.time_s, s.package_power_w)
        for s in stack.daemon.history
        if s.time_s >= 15.0
    ]


def test_ablation_daemon_interval(regen):
    traces = regen(
        lambda: {i: run_interval(i) for i in (0.5, 1.0, 2.0)}
    )
    for interval, trace in traces.items():
        powers = [p for _, p in trace]
        mean = sum(powers) / len(powers)
        # the limit is tracked on average at every period
        assert mean == pytest.approx(LIMIT, abs=2.5), f"interval {interval}"
        # excursions above the limit are isolated probe iterations:
        # never two consecutive samples more than 3 W over
        over = [p > LIMIT + 3.0 for p in powers]
        assert not any(a and b for a, b in zip(over, over[1:])), (
            f"interval {interval}: sustained violation"
        )
        # probes are rare: under 10% of samples
        assert sum(over) / len(over) < 0.10

    # probe cadence decays: the second half of the 1 s trace has no more
    # probes than the first half (geometric backoff)
    trace = traces[1.0]
    half = len(trace) // 2
    first = sum(p > LIMIT + 3.0 for _, p in trace[:half])
    second = sum(p > LIMIT + 3.0 for _, p in trace[half:])
    assert second <= first
