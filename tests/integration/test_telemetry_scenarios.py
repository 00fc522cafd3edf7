"""Integration tests: the cluster under corrupted telemetry.

The acceptance criteria of the untrusted-telemetry work, end to end on
real simulated nodes, for every curated scenario in
:data:`~repro.faults.telemetry.TELEMETRY_SCENARIOS`:

* the cap-sum invariant holds every epoch and no non-finite value ever
  reaches a grant — a lie can corrupt one node's claim, never the
  facility envelope;
* honest nodes' delivered power stays within 5 % of the corruption-free
  run under the ``liar-storm`` acceptance scenario;
* offenders are quarantined within the documented bound (two violating
  epochs of first detection) and recover trust after a bounded fault;
* a partitioned node is never double-penalized: silence is the lease
  ladder's jurisdiction, so trust scores are judged only on delivered
  fresh reports;
* serial and stacked stepping stay byte-identical, and crash
  recovery from the journal replays trust decisions byte-identically.
"""

import dataclasses
import functools
import json
import math

import pytest

from repro.cluster import recover_cluster_sim, run_cluster
from repro.cluster.journal import Journal
from repro.experiments.cluster_exp import default_cluster_config
from repro.faults.telemetry import TELEMETRY_SCENARIOS

pytestmark = pytest.mark.partition

DURATION_S = 140.0  # 14 epochs at the default cadence
WARMUP_S = 40.0
BUDGET_W = 150.0
SLACK_W = 1e-9


def telemetry_config(scenario, *, seed=0, transport=None):
    return default_cluster_config(
        n_nodes=4, telemetry=scenario, transport=transport, seed=seed
    )


@functools.lru_cache(maxsize=None)
def cached_run(scenario, seed=0, transport=None):
    """One full run per config, shared across tests (runs are pure
    functions of the config, so sharing cannot couple tests)."""
    return run_cluster(
        telemetry_config(scenario, seed=seed, transport=transport),
        DURATION_S,
    )


def trace_bytes(run) -> bytes:
    return json.dumps(run.trace.to_jsonable(), sort_keys=True).encode()


def grants_of(run):
    return [grant.caps_w for grant in run.grants]


class TestInvariants:
    @pytest.mark.parametrize("scenario", sorted(TELEMETRY_SCENARIOS))
    def test_cap_sum_holds_every_epoch(self, scenario):
        run = cached_run(scenario)
        assert run.max_cap_sum_w() <= BUDGET_W + SLACK_W
        for grant in run.grants:
            assert grant.total_w <= BUDGET_W + SLACK_W

    @pytest.mark.parametrize("scenario", sorted(TELEMETRY_SCENARIOS))
    def test_no_nan_ever_reaches_a_grant(self, scenario):
        run = cached_run(scenario)
        for grant in run.grants:
            for cap in grant.caps_w.values():
                assert math.isfinite(cap) and cap > 0

    def test_quiet_scenario_matches_no_telemetry_config(self):
        # telemetry="none" is byte-identical to no telemetry at all:
        # the defense layer is exactly free on an honest fleet
        quiet = cached_run("none")
        bare = run_cluster(
            default_cluster_config(n_nodes=4, seed=0), DURATION_S
        )
        assert trace_bytes(quiet) == trace_bytes(bare)
        assert grants_of(quiet) == grants_of(bare)


class TestHonestNodesProtected:
    def test_liar_storm_honest_power_within_five_percent(self):
        clean = cached_run("none")
        storm = cached_run("liar-storm")
        # node0 inflates, node1 sticks; node2/node3 are honest
        for name in ("node2", "node3"):
            clean_mean = clean.trace.node_mean_power_w(
                name, after_s=WARMUP_S
            )
            storm_mean = storm.trace.node_mean_power_w(
                name, after_s=WARMUP_S
            )
            # one-sided: the defense may hand honest nodes *more*
            # budget (the liar is quarantined to its floor), it must
            # not starve them by more than 5 %
            assert storm_mean >= 0.95 * clean_mean

    def test_greedy_node_cannot_hold_its_inflated_cap(self):
        run = cached_run("greedy-node")
        caps = [g.caps_w["node0"] for g in run.grants]
        spec = run.config.nodes[0]
        # once quarantined, the liar's demand is pinned at its floor
        quarantined_epochs = [
            g.epoch for g in run.grants if "node0" in g.quarantined
        ]
        assert quarantined_epochs
        for epoch in quarantined_epochs:
            assert caps[epoch] <= spec.min_cap_w + SLACK_W


class TestQuarantineBound:
    @pytest.mark.parametrize(
        "scenario", ["greedy-node", "flapping-demand", "liar-storm"]
    )
    def test_offender_quarantined_within_two_violating_epochs(
        self, scenario
    ):
        run = cached_run(scenario)
        first_violation = next(
            g.epoch
            for g in run.grants
            if "node0" in g.trust_violations
        )
        first_quarantine = next(
            g.epoch for g in run.grants if "node0" in g.quarantined
        )
        assert first_quarantine <= first_violation + 2

    def test_nan_burst_recovers_trust_after_the_fault(self):
        # the burst ends at epoch 8; the tail must see node0 back in
        # the fill (clean epochs first serve probation, then recover)
        run = cached_run("nan-burst")
        last_grant = run.grants[-1]
        assert "node0" not in last_grant.trust_violations
        burst = [g for g in run.grants if 4 <= g.epoch < 8]
        assert any("node0" in g.trust_violations for g in burst)


class TestNoDoublePenalty:
    def test_partition_alone_never_dents_trust(self):
        # node0 is cut off for epochs [4, 9): the lease ladder handles
        # the silence; trust must stay untouched for the whole run
        run = cached_run("none", transport="node0-partition")
        for grant in run.grants:
            assert grant.trust_violations == {}
            assert grant.quarantined == ()

    def test_partitioned_liar_is_not_judged_while_silent(self):
        # node0 inflates from epoch 2 AND is partitioned [4, 9): trust
        # verdicts may only land on epochs where a fresh report was
        # actually delivered
        run = cached_run("greedy-node", transport="node0-partition")
        for grant in run.grants:
            if 4 <= grant.epoch < 9:
                assert "node0" not in grant.trust_violations
        # detection happened before the partition...
        assert any(
            "node0" in g.trust_violations
            for g in run.grants
            if g.epoch < 4
        )
        # ...and the frozen score still quarantines after the heal
        assert any(
            "node0" in g.quarantined
            for g in run.grants
            if g.epoch >= 9
        )

    def test_honest_nodes_never_flagged(self):
        for scenario in ("greedy-node", "stuck-sensor", "nan-burst"):
            run = cached_run(scenario)
            for grant in run.grants:
                for name in ("node2", "node3"):
                    assert name not in grant.trust_violations
                    assert name not in grant.quarantined


class TestDeterminism:
    @pytest.mark.parametrize("scenario", sorted(TELEMETRY_SCENARIOS))
    def test_serial_and_parallel_byte_identical(
        self, scenario, serial_stepping
    ):
        config = dataclasses.replace(
            telemetry_config(scenario, seed=5), engine="array"
        )
        stacked = run_cluster(config, DURATION_S)
        with serial_stepping():
            serial = run_cluster(config, DURATION_S)
        assert trace_bytes(serial) == trace_bytes(stacked)
        assert grants_of(serial) == grants_of(stacked)
        assert serial.journal.to_jsonl() == stacked.journal.to_jsonl()

    def test_reseeded_garbage_changes_the_schedule(self):
        a = cached_run("liar-storm", seed=0)
        b = cached_run("liar-storm", seed=1)
        assert trace_bytes(a) != trace_bytes(b)


class TestCrashReplay:
    def _truncate_at_fence(self, journal, epoch):
        kept = Journal()
        for entry in journal.entries:
            kept.append(entry.kind, entry.epoch, entry.data)
            if entry.kind == "fence" and entry.epoch == epoch:
                break
        return kept

    @pytest.mark.parametrize("fence", [3, 7])
    @pytest.mark.parametrize(
        "scenario", ["liar-storm", "nan-burst", "stuck-sensor"]
    )
    def test_replay_continues_trust_decisions_byte_identically(
        self, scenario, fence
    ):
        config = telemetry_config(scenario, seed=3)
        full = cached_run(scenario, seed=3)
        journal = self._truncate_at_fence(full.journal, fence)
        sim, nxt = recover_cluster_sim(config, journal)
        assert nxt == fence + 1
        tail = sim.run(DURATION_S, start_epoch=nxt)
        assert grants_of(tail) == grants_of(full)[nxt:]
        assert tail.reports == full.reports[nxt:]
        # trust verdicts and quarantine sets replay exactly
        assert [
            (g.trust_violations, g.quarantined, g.brownout)
            for g in tail.grants
        ] == [
            (g.trust_violations, g.quarantined, g.brownout)
            for g in full.grants[nxt:]
        ]
