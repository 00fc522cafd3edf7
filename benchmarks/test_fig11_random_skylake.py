"""Fig 11 (and Table 3): random-mix share experiments on Skylake.

Paper shapes: for set A, resource and performance rise with shares, with
exchange2 (A3) under-performing and perlbench (A1) over-performing their
shares under performance shares (frequency sensitivity); for set B the
AVX apps (B3 cam4, B4 lbm) saturate and cannot reach full frequency even
at 85 W; at 40 W the shrunken dynamic range compresses proportionality.

Checks DESIGN §4 rows Fig 11 and Table 3.
"""

import pytest

from repro.experiments.random_exp import run_fig11_random_skylake


def test_fig11_random_mixes(regen):
    result = regen(
        run_fig11_random_skylake,
        limits_w=(85.0, 50.0, 40.0),
        duration_s=45.0,
        warmup_s=20.0,
    )

    # --- set A at 50 W: frequency fractions rise with shares
    for policy in ("frequency-shares", "performance-shares"):
        series = result.series("A", policy, 50.0)
        fractions = [c.frequency_fraction for c in series]
        assert all(b >= a - 0.01 for a, b in zip(fractions, fractions[1:]))

    # --- performance shares: exchange2 (A3) runs *slower* relative to
    # its shares than perlbench (A1) does, despite holding more shares;
    # normalized perf per share reveals the sensitivity gap
    series = {c.benchmark: c
              for c in result.series("A", "performance-shares", 50.0)}
    exchange = series["exchange2"]
    perlbench = series["perlbench"]
    assert (
        perlbench.norm_perf / perlbench.shares
        > exchange.norm_perf / exchange.shares
    )

    # --- set B at 85 W: the AVX apps saturate below full frequency
    series = {c.benchmark: c
              for c in result.series("B", "frequency-shares", 85.0)}
    assert series["cam4"].mean_frequency_mhz <= 1700.0 + 10.0
    assert series["lbm"].mean_frequency_mhz <= 1700.0 + 10.0
    # while the top-share non-AVX app runs way above the AVX cap
    assert series["lbm"].shares == 100.0  # B4 holds the top shares
    non_avx_top = max(
        c.mean_frequency_mhz
        for c in result.series("B", "frequency-shares", 85.0)
        if c.benchmark not in ("cam4", "lbm")
    )
    assert non_avx_top > 2000.0

    # --- compressed dynamic range at 40 W: the spread of frequency
    # fractions between the lowest and highest share is narrower than
    # the share spread itself
    series = result.series("A", "frequency-shares", 40.0)
    spread = series[-1].frequency_fraction - series[0].frequency_fraction
    share_spread = (series[-1].shares - series[0].shares) / sum(
        c.shares for c in series
    )
    assert spread < share_spread

    # --- limits respected
    for app_set in ("A", "B"):
        for limit in (50.0, 40.0):
            cells = result.series(app_set, "frequency-shares", limit)
            assert cells[0].package_power_w <= limit + 2.0
