"""Integration tests: crash recovery on the cluster control plane.

The acceptance criteria of the crash-recovery work, end to end on real
simulated nodes:

* an arbiter crash mid-epoch is redone from the write-ahead journal and
  is **invisible** — grants, reports, lease states, and every trace
  series except the recovery counter are byte-identical to a run that
  never crashed;
* a node crash-and-restart walks the restart protocol: silence while
  down, boot into SAFE with the backstop latched, re-admission through
  the lease ladder with no reservation double-count, GRANTED again
  within ``ttl + 2`` epochs of the reboot;
* killing the whole supervisor at any epoch fence and rebuilding it
  from the journal (:func:`~repro.cluster.runtime.recover_cluster_sim`)
  continues the run byte-identically — including through a journal that
  was dumped to disk and torn mid-record;
* serial and stacked stepping stay byte-identical under every curated
  crash scenario, because every crash/restart decision is rolled in
  the epoch loop, before the step.
"""

import dataclasses
import functools
import json

import pytest

from repro.cluster import (
    ClusterSim,
    Journal,
    recover_cluster_sim,
    run_cluster,
)
from repro.experiments.cluster_exp import default_cluster_config
from repro.faults import CRASH_SCENARIOS, get_crash_scenario

pytestmark = pytest.mark.partition

DURATION_S = 140.0  # 14 epochs at the default cadence


def crash_config(scenario, *, seed=0, n_nodes=3):
    return default_cluster_config(
        n_nodes=n_nodes, crash_faults=scenario, seed=seed
    )


@functools.lru_cache(maxsize=None)
def cached_run(scenario, seed=0):
    """One full run per (scenario, seed), shared across tests (runs are
    pure functions of the config, so sharing cannot couple tests)."""
    return run_cluster(crash_config(scenario, seed=seed), DURATION_S)


def trace_bytes(run) -> bytes:
    return json.dumps(run.trace.to_jsonable(), sort_keys=True).encode()


def grants_of(run):
    return [grant.caps_w for grant in run.grants]


class TestArbiterCrashRedo:
    def test_arbiter_crash_is_invisible_except_the_counter(self):
        quiet = cached_run(None)
        crashed = cached_run("arbiter-crash")
        assert crashed.crash_recoveries == 1
        assert grants_of(crashed) == grants_of(quiet)
        assert crashed.reports == quiet.reports
        assert crashed.lease_states == quiet.lease_states
        a, b = quiet.trace.to_jsonable(), crashed.trace.to_jsonable()
        differing = sorted(
            k for k in set(a) | set(b) if a.get(k) != b.get(k)
        )
        assert differing == ["cluster.crash_recoveries"]

    def test_redo_preserves_sequence_numbers(self):
        # the rebuilt arbiter resends with the journaled send counter,
        # so downstream guards see the exact envelopes of the uncrashed
        # run — no stale rejections, no gaps
        quiet = cached_run(None)
        crashed = cached_run("arbiter-crash")
        assert (
            crashed.transport_stats.stale == quiet.transport_stats.stale
        )
        assert crashed.transport_stats.sent == quiet.transport_stats.sent


class TestNodeRestartProtocol:
    def test_restart_window_and_readmission(self):
        config = crash_config("node-restart")
        run = cached_run("node-restart")
        scenario = get_crash_scenario("node-restart")
        window = scenario.node_restarts[0]
        # silence while down
        for epoch in range(window.crash_epoch, window.restart_epoch):
            assert "node0" not in run.reports[epoch]
        # reboot recorded, and GRANTED above the floor within ttl + 2
        assert run.node_restarts == [(window.restart_epoch, "node0")]
        ttl = config.lease_ttl_epochs
        floor = config.node("node0").min_cap_w
        states = [st.get("node0") for st in run.lease_states]
        tail = range(
            window.restart_epoch,
            min(window.restart_epoch + ttl + 2, len(states)),
        )
        assert any(
            states[e] == "granted"
            and run.grants[e].caps_w.get("node0", 0.0) > floor
            for e in tail
        )

    def test_restarted_node_boots_with_safe_latch(self):
        # the rebooted stack must come up with the daemon's safe-mode
        # latch held before its first tick: drive the node layer
        # directly and inspect the daemon before the lease releases it
        from repro.cluster.node import ClusterNode

        config = crash_config("node-restart")
        node = ClusterNode(config, 0)
        node.step_epoch(0, 50.0, 0.0, 10.0)
        assert node.stack.daemon.mode.value == "normal"
        node.restart()
        assert node.stack is None
        node.step_epoch(1, 50.0, 10.0, 20.0, safe_mode=True)
        assert node.stack.daemon.mode.value == "safe"
        assert node.stack.daemon.safe_latched

    def test_restart_draws_a_fresh_fault_seed(self):
        config = crash_config("node-restart")
        assert config.node_fault_seed(0, 0) != config.node_fault_seed(0, 1)
        assert config.node_fault_seed(0, 1) == config.node_fault_seed(0, 1)

    @pytest.mark.parametrize(
        "scenario", sorted(name for name in CRASH_SCENARIOS if name != "none")
    )
    def test_cap_sum_holds_through_crash_and_rejoin(self, scenario):
        config = crash_config(scenario, seed=11)
        run = run_cluster(config, DURATION_S)
        for epoch, grant in enumerate(run.grants):
            total = grant.total_w + sum(
                w
                for name, w in grant.reserved_w.items()
                if name not in grant.caps_w
            )
            assert total <= config.budget_w + 1e-6, (
                f"{scenario}: cap sum {total} over budget at epoch {epoch}"
            )

    def test_no_reservation_double_count_at_rejoin(self):
        # at the reboot epoch the node bids as a new member: its old
        # reservation must be gone, not held alongside the fresh grant
        run = cached_run("node-restart")
        scenario = get_crash_scenario("node-restart")
        reboot = scenario.node_restarts[0].restart_epoch
        grant = run.grants[reboot]
        assert "node0" not in grant.reserved_w
        assert grant.total_w <= run.config.budget_w + 1e-6


class TestCrashInPartition:
    def test_node_stays_safe_until_heal_then_rejoins(self):
        # node0 reboots at epoch 7 while its partition (epochs 4-9)
        # still severs the link: it must sit in SAFE until the heal,
        # then be re-granted within two epochs
        config = crash_config("crash-in-partition")
        run = cached_run("crash-in-partition")
        states = [st.get("node0") for st in run.lease_states]
        heal = 9
        for epoch in range(7, heal):
            assert states[epoch] == "safe", (
                f"epoch {epoch}: {states[epoch]} inside the partition"
            )
        assert "granted" in states[heal:heal + 2]
        assert run.max_cap_sum_w() <= config.budget_w + 1e-6


class TestSupervisorRecovery:
    def _truncate_at_fence(self, journal: Journal, epoch: int) -> Journal:
        """A copy of the journal as if the supervisor died right after
        sealing ``epoch`` (everything later lost)."""
        kept = Journal()
        for entry in journal.entries:
            kept.append(entry.kind, entry.epoch, entry.data)
            if entry.kind == "fence" and entry.epoch == epoch:
                break
        return kept

    @pytest.mark.parametrize("fence", [2, 6, 9])
    @pytest.mark.parametrize(
        "scenario", ["none", "node-restart", "crash-in-partition"]
    )
    def test_replay_continues_byte_identically(self, scenario, fence):
        config = crash_config(scenario, seed=3)
        full = cached_run(scenario, seed=3)
        journal = self._truncate_at_fence(full.journal, fence)
        sim, nxt = recover_cluster_sim(config, journal)
        assert nxt == fence + 1
        tail = sim.run(DURATION_S, start_epoch=nxt)
        assert grants_of(tail) == grants_of(full)[nxt:]
        assert tail.reports == full.reports[nxt:]
        assert tail.lease_states == full.lease_states[nxt:]
        # the continued journal tail matches the uncrashed one entry
        # for entry (seq offsets differ; kinds, epochs, data match)
        full_tail = [
            (e.kind, e.epoch, e.data)
            for e in full.journal.entries
            if e.epoch > fence
        ]
        cont_tail = [
            (e.kind, e.epoch, e.data)
            for e in tail.journal.entries
            if e.epoch > fence
        ]
        assert cont_tail == full_tail

    def test_recovery_from_torn_disk_dump(self, tmp_path):
        # dump to disk, tear the final record mid-line (crash during
        # append), reload, recover, continue: still byte-identical
        config = crash_config("node-restart", seed=9)
        full = cached_run("node-restart", seed=9)
        journal = self._truncate_at_fence(full.journal, 5)
        journal.append("crash", 6, {"node": "node0"})  # unfenced suffix
        path = tmp_path / "journal.jsonl"
        text = journal.to_jsonl()
        path.write_text(text[:-9], encoding="utf-8")
        reloaded = Journal.load(path)
        assert reloaded.last_fenced_epoch == 5
        sim, nxt = recover_cluster_sim(config, reloaded)
        tail = sim.run(DURATION_S, start_epoch=nxt)
        assert grants_of(tail) == grants_of(full)[nxt:]
        assert tail.lease_states == full.lease_states[nxt:]

    def test_empty_journal_recovers_to_cold_start(self):
        config = crash_config("none", seed=2)
        sim, nxt = recover_cluster_sim(config, Journal())
        assert nxt == 0
        rerun = sim.run(DURATION_S)
        fresh = run_cluster(config, DURATION_S)
        assert trace_bytes(rerun) == trace_bytes(fresh)


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("scenario", sorted(CRASH_SCENARIOS))
    def test_byte_identical_under_crash_faults(
        self, scenario, serial_stepping
    ):
        config = dataclasses.replace(
            crash_config(scenario, seed=5), engine="array"
        )
        stacked = run_cluster(config, DURATION_S)
        with serial_stepping():
            serial = run_cluster(config, DURATION_S)
        assert trace_bytes(serial) == trace_bytes(stacked)
        assert grants_of(serial) == grants_of(stacked)
        assert serial.lease_states == stacked.lease_states
        assert (
            serial.journal.to_jsonl() == stacked.journal.to_jsonl()
        )


class TestConfigPlumbing:
    def test_unknown_crash_scenario_rejected(self):
        with pytest.raises(Exception, match="crash scenario"):
            crash_config("no-such-drill")

    def test_crash_scenario_must_name_known_nodes(self):
        from repro.errors import ConfigError

        config = crash_config("node-restart")
        with pytest.raises(ConfigError, match="unknown node"):
            dataclasses.replace(
                config, nodes=tuple(
                    dataclasses.replace(n, name=f"host{i}")
                    for i, n in enumerate(config.nodes)
                )
            )

    def test_companion_transport_applies_only_without_explicit(self):
        with_companion = ClusterSim(crash_config("crash-in-partition"))
        assert not with_companion.transport.scenario.quiet
        explicit = ClusterSim(
            dataclasses.replace(
                crash_config("crash-in-partition"), transport="none"
            )
        )
        assert explicit.transport.scenario.quiet
