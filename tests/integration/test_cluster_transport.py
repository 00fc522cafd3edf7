"""Integration tests: the cluster under control-plane faults.

The acceptance criteria of the unreliable-transport work, end to end on
real simulated nodes: under every curated fault scenario the cap-sum
invariant holds at every epoch (``check_invariant`` inside the loop
never trips), a fully partitioned node walks its lease ladder to SAFE
within ``lease_ttl + 1`` epochs, the healed node is re-admitted to its
share within two epochs, and serial vs stacked steppers stay
byte-identical because every transport and lease decision lives in the
epoch loop, outside the stepper.
"""

import dataclasses
import json

import pytest

from repro.cluster import run_cluster
from repro.experiments.cluster_exp import default_cluster_config
from repro.faults import TRANSPORT_SCENARIOS

pytestmark = pytest.mark.partition


def trace_bytes(run) -> bytes:
    return json.dumps(run.trace.to_jsonable(), sort_keys=True).encode()


class TestInvariantUnderFaults:
    @pytest.mark.parametrize("scenario", sorted(TRANSPORT_SCENARIOS))
    def test_cap_sum_never_exceeds_budget(self, scenario):
        # check_invariant runs inside the epoch loop: completing the
        # run at all proves it never tripped.  The explicit sweep below
        # re-asserts the witness from the recorded grants.
        config = default_cluster_config(
            n_nodes=3, transport=scenario, seed=7
        )
        run = run_cluster(config, 140.0)
        assert run.n_epochs == 14
        for epoch, grant in enumerate(run.grants):
            total = grant.total_w + sum(
                grant.reserved_w.get(name, 0.0)
                for name in grant.reserved_w
                if name not in grant.caps_w
            )
            assert total <= config.budget_w + 1e-6, (
                f"{scenario}: cap sum {total} over budget at epoch {epoch}"
            )

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_storm_is_noisy_but_safe(self, seed):
        config = default_cluster_config(
            n_nodes=3, transport="transport-storm", seed=seed
        )
        run = run_cluster(config, 140.0)
        # the storm genuinely interferes ...
        assert run.transport_stats.dropped > 0
        # ... yet never breaks the budget
        assert run.max_cap_sum_w() <= config.budget_w + 1e-6


class TestPartitionLadder:
    def test_partitioned_node_reaches_safe_within_ttl_plus_one(self):
        # node0-partition severs node0's link for epochs 4-8
        config = default_cluster_config(
            n_nodes=3, transport="node0-partition", seed=0
        )
        run = run_cluster(config, 140.0)
        start, ttl = 4, config.lease_ttl_epochs
        states = [st["node0"] for st in run.lease_states]
        assert "safe" in states[start:start + ttl + 2]
        # the ladder is walked strictly downward: holdover before
        # degraded before safe
        outage = states[start:start + ttl + 2]
        assert outage.index("safe") > outage.index("degraded")

    def test_arbiter_reserves_silent_nodes_budget(self):
        config = default_cluster_config(
            n_nodes=3, transport="node0-partition", seed=0
        )
        run = run_cluster(config, 140.0)
        # while node0 is silent past its first missed renewal, the
        # arbiter carries a reservation for it instead of a live grant
        reserved_epochs = [
            epoch for epoch, grant in enumerate(run.grants)
            if "node0" in grant.reserved_w
        ]
        assert reserved_epochs
        # silent from epoch 4 (first missed report) until the heal's
        # own report lands at epoch 10
        assert reserved_epochs == list(range(4, 10))

    def test_healed_node_readmitted_within_two_epochs(self):
        config = default_cluster_config(
            n_nodes=3, transport="node0-partition", seed=0
        )
        run = run_cluster(config, 140.0)
        heal = 9
        floor = config.node("node0").min_cap_w
        states = [st["node0"] for st in run.lease_states]
        readmitted = [
            epoch
            for epoch in range(heal, min(heal + 2, run.n_epochs))
            if states[epoch] == "granted"
        ]
        assert readmitted, f"states after heal: {states[heal:heal + 2]}"
        # and within one more epoch the node is back above its floor
        assert any(
            run.grants[epoch].caps_w.get("node0", 0.0) > floor
            for epoch in range(heal, min(heal + 3, run.n_epochs))
        )

    def test_safe_node_latches_daemon_backstop(self):
        config = default_cluster_config(
            n_nodes=3, transport="node0-partition", seed=0
        )
        run = run_cluster(config, 140.0)
        safe_epochs = [
            epoch for epoch, st in enumerate(run.lease_states)
            if st["node0"] == "safe"
        ]
        assert safe_epochs
        # the trace carries the lease ladder for post-hoc analysis
        codes = run.trace.series("node0.lease")
        assert max(codes.values) == 3.0  # SAFE
        assert codes.values[safe_epochs[0]] == 3.0

    def test_full_arbiter_partition_degrades_everyone(self):
        config = default_cluster_config(
            n_nodes=3, transport="arbiter-partition", seed=0
        )
        run = run_cluster(config, 140.0)
        # epochs 5-7 sever every link: all nodes leave GRANTED ...
        mid = run.lease_states[7]
        assert all(state != "granted" for state in mid.values())
        # ... and all win their grants back after the heal
        final = run.lease_states[-1]
        assert all(state == "granted" for state in final.values())
        assert run.max_cap_sum_w() <= config.budget_w + 1e-6


class TestDeterminismUnderFaults:
    def test_same_seed_replays_byte_identically(self):
        config = default_cluster_config(
            n_nodes=3, transport="flaky-links", seed=5
        )
        a = run_cluster(config, 120.0)
        b = run_cluster(config, 120.0)
        assert trace_bytes(a) == trace_bytes(b)
        assert a.lease_states == b.lease_states

    def test_stacked_matches_serial(self, serial_stepping):
        # every transport and lease decision happens in the epoch loop,
        # so the stepper cannot perturb the control plane
        config = dataclasses.replace(
            default_cluster_config(
                n_nodes=3, transport="transport-storm", seed=5
            ),
            engine="array",
        )
        stacked = run_cluster(config, 120.0)
        with serial_stepping():
            serial = run_cluster(config, 120.0)
        assert trace_bytes(serial) == trace_bytes(stacked)
        assert serial.grants == stacked.grants
        assert serial.lease_states == stacked.lease_states

    def test_different_transport_seeds_diverge(self):
        a = run_cluster(default_cluster_config(
            n_nodes=3, transport="transport-storm", seed=5), 120.0)
        b = run_cluster(default_cluster_config(
            n_nodes=3, transport="transport-storm", seed=6), 120.0)
        assert trace_bytes(a) != trace_bytes(b)


class TestQuietTransportCompatibility:
    def test_explicit_none_matches_no_transport(self):
        # transport="none" routes every envelope perfectly: the run is
        # byte-identical to the pre-transport perfect-network loop
        base = run_cluster(default_cluster_config(n_nodes=3, seed=3), 120.0)
        quiet = run_cluster(default_cluster_config(
            n_nodes=3, transport="none", seed=3), 120.0)
        assert trace_bytes(base) == trace_bytes(quiet)
        assert base.grants == quiet.grants

    def test_quiet_runs_stay_granted(self):
        run = run_cluster(default_cluster_config(n_nodes=3, seed=3), 120.0)
        for st in run.lease_states:
            assert set(st.values()) == {"granted"}
        assert run.transport_stats.dropped == 0
        assert run.transport_stats.stale == 0


class TestTraceAndExperiment:
    def test_trace_records_transport_health(self):
        config = default_cluster_config(
            n_nodes=3, transport="lossy-links", seed=2
        )
        run = run_cluster(config, 120.0)
        dropped = run.trace.series("transport.dropped")
        assert sum(dropped.values) == run.transport_stats.dropped > 0
        reserved = run.trace.series("cluster.reserved_w")
        assert len(reserved.values) == run.n_epochs

    def test_experiment_summary_reports_control_plane(self):
        from repro.experiments.cluster_exp import run_cluster_experiment

        config = default_cluster_config(
            n_nodes=3, transport="node0-partition", seed=0
        )
        result = run_cluster_experiment(
            config, duration_s=140.0, warmup_s=40.0, cache=None
        )
        assert result.transport["dropped"] > 0
        assert result.safe_node_epochs > 0
        assert result.degraded_grants > 0
        assert result.cap_violations == 0
