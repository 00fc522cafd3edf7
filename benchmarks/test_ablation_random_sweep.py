"""Ablation: many random mixes, not just Table 3's two.

The paper drew two random benchmark subsets for generality (section
6.3); the simulator affords more.  Across several seeded draws of the
Fig 11 methodology, higher shares must never buy *less* frequency — up
to quantisation ties and the legitimate AVX-saturation exception the
paper's own set B exhibits.

Checks DESIGN §4 row Ablation: random sweep.
"""

import pytest

from repro.experiments.random_sweep import SHARE_LEVELS, run_random_sweep


def test_ablation_random_sweep(regen):
    result = regen(
        run_random_sweep,
        n_seeds=5, duration_s=35.0, warmup_s=15.0, limit_w=45.0,
    )
    assert len(result.mixes) == 5
    # all five draws distinct (the generator actually randomises)
    assert len({m.benchmarks for m in result.mixes}) >= 4

    # monotone share -> frequency ordering in every mix
    assert result.total_ordering_violations() == 0

    for mix in result.mixes:
        # the top share level always gets meaningfully more than the
        # bottom one
        assert mix.freq_by_level_mhz[-1] > mix.freq_by_level_mhz[0] + 400
        # the limit is enforced for every random mix
        assert mix.package_power_w <= result.limit_w + 1.5
        # the floor binds at the bottom (low dynamic range, paper 6.2)
        assert mix.freq_by_level_mhz[0] == pytest.approx(800.0, abs=120.0)
