"""Integration tests: all four fault families at once.

Every other cluster suite drives one fault family at a time.  Here a
12-node cluster runs chip faults (``flaky-msr`` on every third node),
control-plane faults (``flaky-links``), crash faults (``restart-storm``:
two arbiter redos and two node reboots) and telemetry faults
(``liar-storm``: an inflating liar, a stuck sensor and background
garbage) in one run.  Twelve nodes is more than
:data:`~repro.core.gang.DAEMON_GANG_MIN`, so the stacked stepper's
lockstep daemon pass runs too.  Under the composition:

* stacked stepping writes the same journal and trace bytes as the
  per-node serial stepper;
* granted plus reserved watts stay within the facility budget at every
  epoch;
* a supervisor rebuilt from the journal at a fence continues with the
  full run's grants, reports and lease states.
"""

import dataclasses
import functools
import json

import pytest

from repro.cluster import Journal, recover_cluster_sim, run_cluster
from repro.core.gang import DAEMON_GANG_MIN
from repro.experiments.cluster_exp import default_cluster_config

pytestmark = pytest.mark.partition

N_NODES = 12
BUDGET_W = 480.0
DURATION_S = 140.0  # 14 epochs at the default cadence
SLACK_W = 1e-9


def composed_config(engine="array"):
    base = default_cluster_config(
        n_nodes=N_NODES,
        budget_w=BUDGET_W,
        seed=5,
        transport="flaky-links",
        crash_faults="restart-storm",
        telemetry="liar-storm",
    )
    nodes = tuple(
        dataclasses.replace(spec, faults="flaky-msr") if i % 3 == 0
        else spec
        for i, spec in enumerate(base.nodes)
    )
    return dataclasses.replace(base, nodes=nodes, engine=engine)


@functools.lru_cache(maxsize=None)
def stacked_run():
    """The stacked run, shared across tests (a pure function of the
    config, so sharing cannot couple tests)."""
    return run_cluster(composed_config(), DURATION_S)


def trace_bytes(run) -> bytes:
    return json.dumps(run.trace.to_jsonable(), sort_keys=True).encode()


def truncate_at_fence(journal, epoch):
    kept = Journal()
    for entry in journal.entries:
        kept.append(entry.kind, entry.epoch, entry.data)
        if entry.kind == "fence" and entry.epoch == epoch:
            break
    return kept


def assert_recovers_from(fence):
    full = stacked_run()
    sim, nxt = recover_cluster_sim(
        composed_config(), truncate_at_fence(full.journal, fence)
    )
    assert nxt == fence + 1
    tail = sim.run(DURATION_S, start_epoch=nxt)
    assert tail.grants == full.grants[nxt:]
    assert tail.reports == full.reports[nxt:]
    assert tail.lease_states == full.lease_states[nxt:]


class TestComposition:
    def test_every_family_fires(self):
        run = stacked_run()
        assert N_NODES > DAEMON_GANG_MIN
        assert sum(1 for spec in run.config.nodes if spec.faults) == 4
        assert run.transport_stats.dropped > 0
        assert run.crash_recoveries == 2
        assert [name for _, name in run.node_restarts] == ["node0", "node1"]
        assert any(grant.trust_violations for grant in run.grants)
        assert any(grant.quarantined for grant in run.grants)


class TestInvariants:
    def test_stacked_matches_serial(self, serial_stepping):
        stacked = stacked_run()
        with serial_stepping():
            serial = run_cluster(composed_config(), DURATION_S)
        assert serial.journal.to_jsonl() == stacked.journal.to_jsonl()
        assert trace_bytes(serial) == trace_bytes(stacked)

    def test_granted_plus_reserved_within_budget(self):
        run = stacked_run()
        assert run.n_epochs == 14
        for grant in run.grants:
            granted = sum(
                cap for name, cap in grant.caps_w.items()
                if name not in grant.reserved_w
            )
            reserved = sum(grant.reserved_w.values())
            assert granted + reserved <= BUDGET_W + SLACK_W

    @pytest.mark.parametrize("fence", [2, 6, 9])
    def test_recovery_continues_the_run(self, fence):
        assert_recovers_from(fence)


@pytest.mark.soak
class TestSoak:
    def test_recovery_from_every_fence(self):
        for fence in range(stacked_run().n_epochs - 1):
            assert_recovers_from(fence)

    def test_scalar_engine_matches(self):
        scalar = run_cluster(composed_config("scalar"), DURATION_S)
        assert trace_bytes(scalar) == trace_bytes(stacked_run())
