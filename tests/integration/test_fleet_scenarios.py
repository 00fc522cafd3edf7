"""Integration tests for fleet-scale hierarchical arbitration.

The acceptance criteria of the fleet layer, end to end on real
simulated nodes: byte-identical traces across serial and stacked
stepping, a rack-level partition degrading exactly its own subtree,
idle nodes never building simulation stacks, arbiter crashes invisible
through the fleet caches, and the experiment + CLI wiring.
"""

import functools
import json

import pytest

from repro.cli import main
from repro.cluster import ClusterSim, run_cluster
from repro.experiments.cluster_exp import (
    cluster_result_from_jsonable,
    cluster_result_to_jsonable,
)
from repro.experiments.fleet_exp import (
    fleet_config,
    fleet_rollup,
    oversubscription_report,
    rack_partition,
    run_fleet_experiment,
)
from repro.fleet import DiurnalSchedule

pytestmark = pytest.mark.partition

#: 2 rows x 2 racks x 2 nodes: small enough for tier-1, deep enough
#: that budget flows through two interior levels.
GRID = dict(rows=2, racks_per_row=2, nodes_per_rack=2)
SCHEDULE = DiurnalSchedule(
    period_epochs=8,
    base_active_fraction=0.5,
    peak_active_fraction=1.0,
    row_phase_epochs=1,
)


def tiny_fleet(**kwargs):
    kwargs.setdefault("schedule", SCHEDULE)
    kwargs.setdefault("epoch_ticks", 2)
    return fleet_config(**GRID, **kwargs)


def duration_of(config, periods=1.0):
    return periods * SCHEDULE.period_epochs * config.epoch_s


def trace_bytes(run) -> bytes:
    return json.dumps(run.trace.to_jsonable(), sort_keys=True).encode()


@functools.lru_cache(maxsize=None)
def cached_clean_run():
    config = tiny_fleet()
    return run_cluster(config, duration_of(config))


class TestDeterminism:
    def test_serial_scalar_matches_stacked_array(self):
        scalar = tiny_fleet(engine="scalar")
        array = tiny_fleet(engine="array")
        a = run_cluster(scalar, duration_of(scalar))
        b = run_cluster(array, duration_of(array))
        assert trace_bytes(a) == trace_bytes(b)
        assert [g.caps_w for g in a.grants] == [g.caps_w for g in b.grants]
        assert a.idle_sets == b.idle_sets

    def test_serial_matches_stacked(self, serial_stepping):
        config = tiny_fleet(engine="array")
        stacked = run_cluster(config, duration_of(config))
        with serial_stepping():
            serial = run_cluster(config, duration_of(config))
        assert trace_bytes(serial) == trace_bytes(stacked)
        assert serial.grants == stacked.grants

    def test_two_runs_byte_identical(self):
        config = tiny_fleet()
        assert trace_bytes(run_cluster(config, duration_of(config))) == (
            trace_bytes(cached_clean_run())
        )


class TestInvariant:
    def test_cap_sum_bounded_every_epoch(self):
        run = cached_clean_run()
        budget = run.config.budget_w
        for grant in run.grants:
            assert grant.total_w <= budget + 1e-6

    def test_fleet_stats_flow_into_grants_and_trace(self):
        run = cached_clean_run()
        assert any(g.fleet_stats.get("reused", 0) > 0 for g in run.grants)
        assert "fleet.reused" in run.trace
        assert "fleet.idle" in run.trace


PARTITIONED_RACK = "row1/rack0"


@functools.lru_cache(maxsize=None)
def cached_partitioned_run():
    topology = tiny_fleet().topology
    scenario = rack_partition(topology, PARTITIONED_RACK, 2, 5)
    config = tiny_fleet(transport=scenario)
    return run_cluster(config, duration_of(config))


class TestRackPartition:
    RACK = PARTITIONED_RACK

    def partitioned_run(self):
        return cached_partitioned_run()

    def test_partitioned_rack_walks_the_lease_ladder(self):
        run = self.partitioned_run()
        inside = {
            name for name in (s.name for s in run.config.nodes)
            if name.startswith(self.RACK)
        }
        degraded_states = set()
        for states in run.lease_states:
            for name, state in states.items():
                if name in inside:
                    degraded_states.add(state)
        assert degraded_states - {"granted"}  # the ladder engaged

    def test_partition_contained_to_its_subtree(self):
        run = self.partitioned_run()
        inside = {
            name for name in (s.name for s in run.config.nodes)
            if name.startswith(self.RACK)
        }
        # every other node's lease never leaves GRANTED...
        for states in run.lease_states:
            for name, state in states.items():
                if name not in inside:
                    assert state == "granted"
        # ...and every demand-blind grant named a partitioned node
        for grant in run.grants:
            assert set(grant.degraded) <= inside

    def test_rack_recovers_after_the_heal(self):
        run = self.partitioned_run()
        final = run.lease_states[-1]
        for name in (s.name for s in run.config.nodes):
            assert final[name] == "granted"

    def test_invariant_holds_through_the_partition(self):
        run = self.partitioned_run()
        for grant in run.grants:
            assert grant.total_w <= run.config.budget_w + 1e-6


class TestIdleSkipping:
    def test_always_idle_nodes_never_build_stacks(self):
        # constant 50% activation: the second half of each rack is
        # idle every epoch and must never pay stack construction
        config = tiny_fleet(schedule=DiurnalSchedule(
            period_epochs=8,
            base_active_fraction=0.5,
            peak_active_fraction=0.5,
            row_phase_epochs=0,
        ))
        sim = ClusterSim(config)
        # hold the stepper: sim.run() releases it when the run ends
        stepper = sim._ensure_stepper()
        run = sim.run(duration_of(config))
        always_idle = set.intersection(
            *(set(idle) for idle in run.idle_sets)
        )
        assert always_idle  # half the fleet never woke
        by_name = {node.spec.name: node for node in stepper.nodes}
        for name in always_idle:
            assert by_name[name].stack is None
        active = set(by_name) - always_idle
        for name in active:
            assert by_name[name].stack is not None

    def test_idle_reports_are_synthetic_and_lease_preserving(self):
        run = cached_clean_run()
        assert run.idle_sets and any(run.idle_sets)
        spec = run.config.nodes[0]
        idle_power = 0.6 * spec.min_cap_w
        for reports, idle in zip(run.reports, run.idle_sets):
            for name in idle:
                report = reports[name]
                assert report.mean_power_w == pytest.approx(idle_power)
                assert report.throttle_pressure == 0.0
                assert report.samples == run.config.epoch_ticks
        # synthetic reports keep leases GRANTED: idle is not a fault
        for states, idle in zip(run.lease_states, run.idle_sets):
            for name in idle:
                assert states[name] == "granted"


class TestCrashRecovery:
    def test_arbiter_crash_is_invisible_through_fleet_caches(self):
        clean = cached_clean_run()
        config = tiny_fleet(crash_faults="arbiter-crash")
        crashed = run_cluster(config, duration_of(config))
        assert crashed.crash_recoveries == 1
        assert [g.caps_w for g in crashed.grants] == (
            [g.caps_w for g in clean.grants]
        )
        assert [g.fleet_stats for g in crashed.grants] == (
            [g.fleet_stats for g in clean.grants]
        )
        assert crashed.reports == clean.reports
        a = clean.trace.to_jsonable()
        b = crashed.trace.to_jsonable()
        differing = sorted(
            k for k in set(a) | set(b) if a.get(k) != b.get(k)
        )
        assert differing == ["cluster.crash_recoveries"]


class TestExperimentWiring:
    def test_experiment_summary_and_cache_round_trip(self):
        config = tiny_fleet()
        result = run_fleet_experiment(config)
        assert result.cap_violations == 0
        assert 0.0 <= result.slo_attainment <= 1.0
        assert result.idle_node_epochs > 0
        assert result.fleet_reused > 0
        rows = fleet_rollup(result)
        assert [r["domain"] for r in rows] == ["row0", "row1"]
        assert sum(r["nodes"] for r in rows) == len(config.nodes)
        wire = json.loads(json.dumps(cluster_result_to_jsonable(result)))
        assert cluster_result_from_jsonable(wire) == result

    def test_oversubscription_report_is_consistent(self):
        # the default diurnal day never activates the whole fleet, so
        # the auto-sized budget genuinely oversubscribes Σ ceilings
        config = fleet_config(**GRID, epoch_ticks=2)
        report = oversubscription_report(config)
        assert report.ratio > 1.0  # the fleet is oversubscribed
        assert report.safe  # ...but statistically safe by construction
        assert report.margin_w >= 0.0


class TestFleetCli:
    ARGS = [
        "fleet", "--rows", "1", "--racks", "2", "--rack-nodes", "4",
        "--epoch-ticks", "2", "--period", "8", "--no-cache",
    ]

    def test_fleet_command(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "oversubscribed facility budget" in out
        assert "violations 0" in out
        assert "SLO attainment" in out

    def test_fleet_command_with_partition(self, capsys):
        assert main(self.ARGS + [
            "--partition-rack", "row0/rack1",
            "--partition-start", "2", "--partition-end", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "rack partition row0/rack1" in out

    def test_unknown_rack_fails_cleanly(self, capsys):
        assert main(self.ARGS + ["--partition-rack", "row9/rack9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_faults_json_is_machine_readable(self, capsys):
        assert main(["faults", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "daemon", "transport", "crash", "telemetry"
        }
        partition = payload["transport"]["node0-partition"]
        assert partition["partitions"][0]["node"] == "node0"
        assert "arbiter-crash" in payload["crash"]
        assert all("name" in s for s in payload["daemon"].values())
        assert "liar-storm" in payload["telemetry"]
        assert all(
            "faults" in s for s in payload["telemetry"].values()
        )
