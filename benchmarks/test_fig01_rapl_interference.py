"""Fig 1: performance interference between applications under RAPL.

Paper shape: gcc (low demand, fast clock) is throttled *first* and
proportionally harder than cam4 (high demand, AVX-capped); at the lowest
limits both converge to the same frequency, where gcc's relative
frequency loss (~48% in the paper) far exceeds cam4's (~25%).

Checks DESIGN §4 row Fig 1.
"""

from repro.experiments.rapl_interference import run_fig1_rapl_interference


def test_fig1_rapl_interference(regen):
    result = regen(
        run_fig1_rapl_interference, duration_s=20.0, warmup_s=8.0
    )
    gcc = {p.limit_w: p for p in result.series("gcc")}
    cam4 = {p.limit_w: p for p in result.series("cam4")}

    # at 85 W both run unthrottled: gcc at its turbo, cam4 at its AVX cap
    assert gcc[85.0].active_frequency_mhz > cam4[85.0].active_frequency_mhz
    assert gcc[85.0].normalized_performance > 0.85
    assert cam4[85.0].normalized_performance > 0.85

    # the cap hits gcc first: by 60 W gcc is throttled, cam4 untouched
    assert gcc[60.0].active_frequency_mhz < gcc[85.0].active_frequency_mhz
    assert cam4[60.0].active_frequency_mhz == (
        cam4[85.0].active_frequency_mhz
    )

    # at 40 W both sit at the same frequency...
    assert abs(
        gcc[40.0].active_frequency_mhz - cam4[40.0].active_frequency_mhz
    ) < 50.0
    # ...which costs gcc a much larger fraction of its standalone speed
    gcc_loss = 1 - gcc[40.0].active_frequency_mhz / (
        gcc[85.0].active_frequency_mhz
    )
    cam4_loss = 1 - cam4[40.0].active_frequency_mhz / (
        cam4[85.0].active_frequency_mhz
    )
    assert gcc_loss > cam4_loss + 0.15
    # performance ordering matches (paper: gcc ends far below cam4)
    assert (
        gcc[40.0].normalized_performance
        < cam4[40.0].normalized_performance
    )
