"""Integration tests for the cluster arbitration subsystem.

The acceptance criteria of the cluster layer, end to end on real
simulated nodes: seeded determinism (byte-identical traces), the
stacked node stepper matching serial exactly, proportional power
delivery across nodes, crash/join lifecycle, and the experiment +
cache + CLI wiring.
"""

import json

import pytest

from repro.cluster import ClusterConfig, NodeSpec, run_cluster
from repro.config import AppSpec

BUSY = tuple(AppSpec("cactusBSSN", shares=50.0) for _ in range(6))


def two_node_config(**kwargs):
    kwargs.setdefault("budget_w", 75.0)
    kwargs.setdefault("seed", 3)
    return ClusterConfig(
        nodes=(
            NodeSpec("hi", apps=BUSY, shares=2.0, min_cap_w=12.0),
            NodeSpec("lo", apps=BUSY, shares=1.0, min_cap_w=12.0),
        ),
        **kwargs,
    )


def trace_bytes(run) -> bytes:
    return json.dumps(run.trace.to_jsonable(), sort_keys=True).encode()


class TestDeterminism:
    def test_two_serial_runs_byte_identical(self):
        config = two_node_config()
        a = run_cluster(config, 40.0)
        b = run_cluster(config, 40.0)
        assert trace_bytes(a) == trace_bytes(b)

    def test_stacked_stepper_matches_serial_exactly(self, serial_stepping):
        config = two_node_config(engine="array")
        stacked = run_cluster(config, 40.0)
        with serial_stepping():
            serial = run_cluster(config, 40.0)
        assert trace_bytes(serial) == trace_bytes(stacked)
        assert serial.grants == stacked.grants

    def test_faulty_runs_replay_deterministically(self, serial_stepping):
        config = ClusterConfig(
            budget_w=75.0,
            nodes=(
                NodeSpec("a", apps=BUSY, shares=1.0, min_cap_w=12.0,
                         faults="flaky-msr"),
                NodeSpec("b", apps=BUSY, shares=1.0, min_cap_w=12.0,
                         faults="flaky-msr"),
            ),
            seed=11,
            engine="array",
        )
        a = run_cluster(config, 40.0)
        with serial_stepping():
            b = run_cluster(config, 40.0)
        assert trace_bytes(a) == trace_bytes(b)


class TestProportionalDelivery:
    def test_two_to_one_shares_deliver_two_to_one_power(self):
        run = run_cluster(two_node_config(), 80.0)
        hi = run.trace.node_mean_power_w("hi", after_s=30.0)
        lo = run.trace.node_mean_power_w("lo", after_s=30.0)
        assert hi / lo == pytest.approx(2.0, rel=0.05)

    def test_caps_never_sum_above_budget(self):
        run = run_cluster(two_node_config(), 80.0)
        assert run.max_cap_sum_w() <= 75.0 + 1e-9
        for grant in run.grants:
            assert grant.total_w <= 75.0 + 1e-9


class TestLifecycle:
    def test_crash_detected_and_cap_redistributed(self):
        config = ClusterConfig(
            budget_w=75.0,
            nodes=(
                NodeSpec("a", apps=BUSY, shares=1.0, min_cap_w=12.0),
                NodeSpec("b", apps=BUSY, shares=1.0, min_cap_w=12.0,
                         crashes_at_s=35.0),
            ),
            seed=3,
        )
        run = run_cluster(config, 80.0)
        # epoch 3 carries b's crashed report; from epoch 4 on b is gone
        assert any(
            r["b"].crashed for r in run.reports if "b" in r
        )
        final = run.grants[-1]
        assert "b" not in final.caps_w
        # the survivor inherits the freed budget up to its demand
        first_cap = run.grants[0].caps_w["a"]
        assert final.caps_w["a"] > first_cap
        assert run.max_cap_sum_w() <= 75.0 + 1e-9

    def test_announced_leave_reclaims_cap_at_boundary(self):
        config = ClusterConfig(
            budget_w=75.0,
            nodes=(
                NodeSpec("a", apps=BUSY, shares=1.0, min_cap_w=12.0),
                NodeSpec("b", apps=BUSY, shares=1.0, min_cap_w=12.0,
                         leaves_at_s=40.0),
            ),
            seed=3,
        )
        run = run_cluster(config, 80.0)
        # b steps epochs ending at or before 40 s, never after
        b_times = run.trace.series("b.power_w").times
        assert b_times and max(b_times) <= 40.0
        assert "b" not in run.grants[-1].caps_w

    def test_late_join_admitted_at_boundary(self):
        config = ClusterConfig(
            budget_w=75.0,
            nodes=(
                NodeSpec("a", apps=BUSY, shares=1.0, min_cap_w=12.0),
                NodeSpec("b", apps=BUSY, shares=1.0, min_cap_w=12.0,
                         joins_at_s=20.0),
            ),
            seed=3,
        )
        run = run_cluster(config, 60.0)
        b_times = run.trace.series("b.power_w").times
        # admitted at the first boundary >= 20 s: first sample at 30 s
        assert min(b_times) == pytest.approx(30.0)
        assert "b" not in run.grants[0].caps_w
        assert "b" in run.grants[-1].caps_w


class TestExperimentAndCache:
    def test_cluster_experiment_roundtrips_through_cache(self, tmp_path):
        from repro.experiments.cache import ResultCache
        from repro.experiments.cluster_exp import (
            default_cluster_config,
            run_cluster_experiment,
        )

        config = default_cluster_config(n_nodes=2, budget_w=75.0)
        cache = ResultCache(tmp_path)
        cold = run_cluster_experiment(
            config, duration_s=40.0, warmup_s=15.0, cache=cache
        )
        assert cache.stats.misses == 1 and cache.stats.stores == 1
        warm = run_cluster_experiment(
            config, duration_s=40.0, warmup_s=15.0, cache=cache
        )
        assert cache.stats.hits == 1
        assert warm == cold
        assert cold.cap_violations == 0
        assert cold.max_cap_sum_w <= config.budget_w + 1e-9

    def test_cluster_and_socket_keys_disjoint(self):
        from repro.experiments.cache import cache_key, cluster_cache_key
        from repro.experiments.cluster_exp import default_cluster_config

        cluster_key = cluster_cache_key(
            default_cluster_config(), 40.0, 15.0
        )
        assert len(cluster_key) == 64
        socket_key = cache_key(
            __import__("repro.config", fromlist=["ExperimentConfig"])
            .ExperimentConfig(
                platform="skylake", policy="frequency-shares",
                limit_w=50.0, apps=BUSY,
            ),
            40.0,
            15.0,
        )
        assert cluster_key != socket_key


class TestCli:
    def test_cluster_command(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        from repro.cli import main

        assert main([
            "cluster", "--nodes", "2", "--budget", "75",
            "--duration", "40", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "node0" in out and "node1" in out
        assert "cap violations 0" in out

    def test_cluster_command_with_crash(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        from repro.cli import main

        assert main([
            "cluster", "--nodes", "2", "--budget", "75",
            "--duration", "60", "--crash-node", "1",
            "--crash-at", "35", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "yes" in out  # the crashed column
