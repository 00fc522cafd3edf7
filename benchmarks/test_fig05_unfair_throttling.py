"""Fig 5: effect of co-location under RAPL (websearch + cpuburn).

Paper shape: the latency-sensitive websearch suffers a dramatic
90th-percentile latency increase from one co-located power virus under
low RAPL limits — less than 50% of standalone performance below ~40 W —
while running alone it degrades only mildly.

Checks DESIGN §4 row Fig 5.
"""

from repro.experiments.latency_exp import run_fig5_unfair_throttling


def test_fig5_unfair_throttling(regen):
    result = regen(
        run_fig5_unfair_throttling,
        limits_w=(85.0, 50.0, 40.0, 35.0),
        duration_s=40.0,
        warmup_s=15.0,
    )

    def ratio(limit):
        alone = result.run("rapl", limit, False).p90_latency_s
        together = result.run("rapl", limit, True).p90_latency_s
        return together / alone

    # no meaningful interference at the TDP limit
    assert ratio(85.0) < 1.15
    # monotically worsening interference as the limit drops
    assert ratio(40.0) > ratio(50.0) > ratio(85.0) - 0.05
    # dramatic loss below 40 W (paper: performance less than half alone)
    assert ratio(35.0) > 1.5

    # mechanism check: under RAPL the virus core and the websearch cores
    # are throttled to about the same frequency (no differentiation)
    run40 = result.run("rapl", 40.0, True)
    assert abs(run40.websearch_freq_mhz - run40.cpuburn_freq_mhz) < 120.0

    # websearch alone keeps most of its latency even at 35 W
    alone35 = result.run("rapl", 35.0, False).p90_latency_s
    alone85 = result.run("rapl", 85.0, False).p90_latency_s
    assert alone35 < alone85 * 1.6
