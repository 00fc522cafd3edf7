"""Fig 12: latency-sensitive experiment with the paper's policies.

Paper shape: at 90/10 shares (websearch cores 90, cpuburn 10) the
proportional policies recover most of the RAPL co-location loss —
"reaching performance comparable to websearch running alone in some
cases" — with both frequency and performance shares behaving similarly.

Checks DESIGN §4 row Fig 12.
"""

import pytest

from repro.experiments.latency_exp import (
    normalized_latency,
    run_fig12_policies,
)


def test_fig12_policy_latencies(regen):
    result = regen(
        run_fig12_policies,
        limits_w=(45.0, 40.0, 35.0),
        duration_s=45.0,
        warmup_s=15.0,
    )
    for limit in (40.0, 35.0):
        rapl = normalized_latency(result, "rapl", limit)
        freq = normalized_latency(result, "frequency-shares", limit)
        perf = normalized_latency(result, "performance-shares", limit)

        # RAPL co-location hurts badly at low limits
        assert rapl > 1.3
        # the policies recover most of the loss
        assert freq < rapl - 0.2
        assert perf < rapl - 0.2
        # and approach running alone (paper: comparable in some cases)
        assert freq < 1.25
        # performance shares provide similar improvements (section 6.4)
        assert perf < 1.6

    # throughput is also protected
    for limit in (40.0, 35.0):
        policy_rps = result.run("frequency-shares", limit, True).throughput_rps
        rapl_rps = result.run("rapl", limit, True).throughput_rps
        assert policy_rps >= rapl_rps - 10.0
