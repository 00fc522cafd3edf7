"""Fig 13: active frequencies for the latency-sensitive experiment under
the proportional frequency policy.

Paper shape: the websearch cores hold a high frequency while the cpuburn
core is pinned at the minimum — the low dynamic range of available
frequencies is what limits the recovery to ~10% at the lowest limits.

Checks DESIGN §4 row Fig 13.
"""

from repro.experiments.latency_exp import run_fig12_policies


def test_fig13_active_frequencies(regen):
    result = regen(
        run_fig12_policies,
        limits_w=(45.0, 40.0, 35.0),
        policies=("frequency-shares",),
        duration_s=40.0,
        warmup_s=15.0,
    )
    for limit in (45.0, 40.0, 35.0):
        run = result.run("frequency-shares", limit, True)
        # cpuburn pinned at (or near) the 800 MHz floor
        assert run.cpuburn_freq_mhz < 900.0
        # websearch cores far above it
        assert run.websearch_freq_mhz > 2.0 * run.cpuburn_freq_mhz

    # under RAPL, by contrast, the two classes are indistinguishable
    for limit in (40.0, 35.0):
        rapl = result.run("rapl", limit, True)
        assert abs(
            rapl.websearch_freq_mhz - rapl.cpuburn_freq_mhz
        ) < 120.0

    # websearch frequency falls with the limit (power conservation)
    freqs = [
        result.run("frequency-shares", limit, True).websearch_freq_mhz
        for limit in (45.0, 40.0, 35.0)
    ]
    assert freqs[0] >= freqs[1] >= freqs[2]
