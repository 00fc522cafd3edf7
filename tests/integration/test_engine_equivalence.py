"""Integration tests: scalar and array engines are byte-identical.

The acceptance bar for the batched array engine, end to end on real
stacks: a full experiment run — daemon, policy, fault injection,
cluster arbitration, control-plane faults, crash recovery — must
serialize to the **same bytes** whichever engine stepped the
simulation, and (for clusters) however the nodes were scheduled:
serial scalar, stacked array, or the array engine stepped node by
node.

These tests compare JSON-serialized results/traces rather than floats
with tolerances: the array engine's contract is bit-exactness, so any
drift at all is a failure.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config import AppSpec, ExperimentConfig, Priority
from repro.experiments.cache import result_to_jsonable
from repro.experiments.cluster_exp import default_cluster_config
from repro.experiments.runner import run_steady


def steady_bytes(engine: str, *, platform="skylake",
                 policy="frequency-shares", faults=None) -> bytes:
    config = ExperimentConfig(
        platform=platform,
        policy=policy,
        limit_w=50.0,
        apps=(
            AppSpec("cactusBSSN", shares=75.0, priority=Priority.HIGH),
            AppSpec("leela", shares=100.0, priority=Priority.HIGH),
            AppSpec("omnetpp", shares=25.0, priority=Priority.LOW),
            AppSpec("leela", shares=50.0, priority=Priority.LOW),
        ),
        faults=faults,
        fault_seed=7,
        engine=engine,
    )
    result = run_steady(config, duration_s=60.0, warmup_s=20.0)
    return json.dumps(result_to_jsonable(result), sort_keys=True).encode()


def cluster_trace_bytes(engine: str, *, transport=None,
                        crash_faults=None) -> bytes:
    from repro.cluster import run_cluster

    config = dataclasses.replace(
        default_cluster_config(
            n_nodes=3, transport=transport, crash_faults=crash_faults
        ),
        engine=engine,
    )
    run = run_cluster(config, 120.0)
    return json.dumps(run.trace.to_jsonable(), sort_keys=True).encode()


def gated_cluster_run(engine: str) -> tuple[bytes, list[int]]:
    """Trace bytes of a 3-node cluster whose nodes run the
    ``full-storm`` chip faults (a tick gate on every daemon), and each
    node engine's segment count."""
    from repro.cluster import ClusterSim

    base = default_cluster_config(n_nodes=3)
    config = dataclasses.replace(
        base,
        nodes=tuple(
            dataclasses.replace(node, faults="full-storm")
            for node in base.nodes
        ),
        engine=engine,
    )
    sim = ClusterSim(config)
    stepper = sim._ensure_stepper()
    run = sim.run(120.0)
    segments = [node.stack.engine.batched_segments for node in stepper.nodes]
    trace = json.dumps(run.trace.to_jsonable(), sort_keys=True).encode()
    return trace, segments


class TestSingleSocket:
    @pytest.mark.parametrize(
        "platform,policy",
        [
            ("skylake", "frequency-shares"),
            ("skylake", "rapl"),
            ("ryzen", "power-shares"),
        ],
    )
    def test_steady_runs_match(self, platform, policy):
        assert steady_bytes(
            "scalar", platform=platform, policy=policy
        ) == steady_bytes("array", platform=platform, policy=policy)

    def test_steady_runs_match_under_faults(self):
        """Fault scenario: the daemon's tick gate and the MSR faults draw
        their streams at the same deadlines on both engines, and the
        array engine steps the gaps between them like any other run."""
        assert steady_bytes("scalar", faults="full-storm") == (
            steady_bytes("array", faults="full-storm")
        )

    def test_steady_runs_match_under_app_crashes(self):
        """App crashes flip ``finished`` from outside the chip — the one
        mutation no dirty flag marks; the dynamic running mask must
        carry it into the batch."""
        assert steady_bytes("scalar", faults="app-crash") == (
            steady_bytes("array", faults="app-crash")
        )


class TestCluster:
    def test_scalar_stacked_and_serial_match(self, serial_stepping):
        scalar = cluster_trace_bytes("scalar")
        stacked = cluster_trace_bytes("array")
        with serial_stepping():
            serial = cluster_trace_bytes("array")
        assert scalar == stacked
        assert scalar == serial

    def test_engines_match_with_gated_nodes(self):
        """Chip faults gate every node's daemon; the stacked array batch
        still steps those nodes, and matches the scalar engine."""
        scalar, _ = gated_cluster_run("scalar")
        stacked, segments = gated_cluster_run("array")
        assert scalar == stacked
        assert all(count > 0 for count in segments)

    def test_engines_match_under_transport_faults(self):
        """Control-plane scenario: lost/duplicated grant envelopes and
        lease step-downs must land on identical epochs either way."""
        assert cluster_trace_bytes(
            "scalar", transport="flaky-links"
        ) == cluster_trace_bytes("array", transport="flaky-links")

    def test_engines_match_under_crash_faults(self):
        """Crash scenario: node restarts rebuild mid-run stacks (fresh
        chips, boot-safe latch) whose epochs the stacked stepper gangs
        by window length."""
        assert cluster_trace_bytes(
            "scalar", crash_faults="node-restart"
        ) == cluster_trace_bytes("array", crash_faults="node-restart")

    def test_engines_match_under_crash_and_transport(self):
        assert cluster_trace_bytes(
            "scalar", transport="lossy-links", crash_faults="arbiter-crash"
        ) == cluster_trace_bytes(
            "array", transport="lossy-links", crash_faults="arbiter-crash"
        )
