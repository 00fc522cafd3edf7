"""The lockstep daemon pass is bit-identical to per-node iterations.

:func:`repro.core.gang.step_daemons` runs one frequency-shares pass for
every daemon due at a lockstep boundary and falls back to
:meth:`PowerDaemon.iteration` for the rest.  These tests step one
population with :func:`run_lockstep` (pass engaged) and an identical
population engine by engine with :meth:`SimEngine.run_ticks` (per-node
iterations only), and require every observable to match after every
boundary: samples, policy and daemon state, MSR registers, chip
requests, parking and dirty flags, and the turbostat baseline.

Engines are built with ``engine="array"`` explicitly: only array
engines gang-step, so the suite keeps testing the pass when CI forces
the ambient engine to the scalar reference.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.gang as gang
from repro.cluster import ClusterSim
from repro.config import AppSpec, ExperimentConfig, Priority, build_stack
from repro.core.frequency_shares import FrequencySharesPolicy
from repro.core.minfund import Claim, proportional_targets
from repro.experiments.fleet_exp import fleet_config
from repro.hw.platform import ryzen_1700x, skylake_xeon_4114
from repro.sim.engine import run_lockstep
from repro.units import quantize_nearest
from tests.unit.test_array_kernel import chip_fingerprint

SKYLAKE = skylake_xeon_4114()
RYZEN = ryzen_1700x()

TICK_S = 5e-3
PERIOD_TICKS = 200  # one 1 s daemon period at 5 ms ticks
BOUNDARIES = 30
SHARES = (25.0, 50.0, 75.0, 100.0)
#: cap offsets from each node's last measured package power, watts: big
#: and small headroom (climbs), overshoots (halve, rollback-and-hold),
#: sub-deadband offsets and long positive runs (held, then expired).
OFFSETS = (20.0, -4.0, 6.0, -2.0, 0.3, 3.0, 3.0, 3.0, 2.0, 2.5, -0.2,
           12.0, -1.5, 1.0, 4.0)
BRANCHES = {"climb", "halve", "rollback-hold", "deadband", "held",
            "hold-expired"}


def _config(index: int, **overrides) -> ExperimentConfig:
    rng = random.Random(index)
    fields = dict(
        platform="skylake",
        policy="frequency-shares",
        limit_w=40.0 + index,
        apps=tuple(
            AppSpec(name, shares=rng.choice(SHARES))
            for name in ("leela", "cactusBSSN", "leela", "cactusBSSN")
        ),
        tick_s=TICK_S,
        engine="array",
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def build_population():
    """Eligible frequency-shares nodes mixed with ineligible ones."""
    eligible = gang.DAEMON_GANG_MIN + 4
    configs = [_config(i) for i in range(eligible)]
    configs += [
        _config(eligible, faults="flaky-msr", fault_seed=3),  # MSR proxy
        _config(eligible + 1, platform="ryzen"),  # k-means per node
        _config(  # not frequency shares
            eligible + 2,
            policy="priority",
            apps=(
                AppSpec("leela", priority=Priority.HIGH),
                AppSpec("cactusBSSN", priority=Priority.LOW),
            ),
        ),
        _config(eligible + 3),  # safe-latched below
        # eligible, except where its crash one-shot (at 15 s) lands on
        # a daemon deadline
        _config(eligible + 4, faults="app-crash"),
    ]
    stacks = [build_stack(config) for config in configs]
    stacks[-2].daemon.force_safe_mode()
    return stacks


#: the boundary whose deadline shares the app-crash node's one-shot.
CRASH_BOUNDARY = 14
#: before this boundary node 1's first core is parked from outside (the
#: next iteration unparks it) ...
PARK_BOUNDARY = 5
#: ... node 2's turbostat baseline is skewed so its next sample fails
#: validation (holdover) ...
GARBAGE_BOUNDARY = 8
#: ... and the safe-latched node is released, to recover into the pass
#: with a safe-mode entry on its record.
RELEASE_BOUNDARY = 12


def park_first_app(stack) -> None:
    stack.chip.park(stack.daemon.policy.apps[0].core_id, True)


def skew_baseline(stack) -> None:
    turbostat = stack.daemon.turbostat
    previous = turbostat._previous
    turbostat._previous = dataclasses.replace(
        previous,
        aperf=tuple((a - 10**13) % 2**64 for a in previous.aperf),
    )


def release_latch(stack) -> None:
    stack.daemon.release_safe_mode()


def clamp_rapl(stack) -> None:
    stack.chip.set_rapl_limit(RAPL_CLAMP_W)


def lift_rapl(stack) -> None:
    # disabling the limit also resets its cap, a chip output
    stack.chip.set_rapl_limit(None)


#: node 0's hardware limit binds from this boundary ...
CLAMP_BOUNDARY = 17
#: ... to this one, when it is switched off
LIFT_BOUNDARY = 19
RAPL_CLAMP_W = 30.0

#: boundary -> (node index, the outside event applied to it)
EVENTS = {
    PARK_BOUNDARY: (1, park_first_app),
    GARBAGE_BOUNDARY: (2, skew_baseline),
    RELEASE_BOUNDARY: (-2, release_latch),
    CLAMP_BOUNDARY: (0, clamp_rapl),
    LIFT_BOUNDARY: (0, lift_rapl),
}


def disturb(stacks, boundary: int) -> None:
    """The same outside events, applied to either population."""
    if boundary in EVENTS:
        index, event = EVENTS[boundary]
        event(stacks[index])


def observable(stack) -> dict:
    daemon, chip = stack.daemon, stack.chip
    plumbing = {"chip", "policy", "cpufreq", "turbostat", "msr", "history",
                "resilience"}
    return {
        "history": repr(daemon.history),
        "daemon": repr(
            {k: v for k, v in vars(daemon).items() if k not in plumbing}
        ),
        "policy": repr(
            {k: v for k, v in vars(daemon.policy).items() if k != "platform"}
        ),
        "msr": dict(chip.msr._values),
        "requested": [core.requested_mhz for core in chip.cores],
        "parked": [core.parked for core in chip.cores],
        "dirty": chip._dirty,
        "previous": repr(daemon.turbostat._previous),
    }


def set_caps(stacks, boundary: int) -> None:
    for index, stack in enumerate(stacks):
        history = stack.daemon.history
        if not history:
            continue
        offset = OFFSETS[(boundary + 3 * index) % len(OFFSETS)]
        stack.daemon.policy.limit_w = max(
            history[-1].package_power_w + offset, 15.0
        )


def branch_of(policy: FrequencySharesPolicy, power_error_w, iteration):
    """Which arm of ``step_pool`` this call takes (the test's oracle)."""
    error_w = policy.scaled_step(power_error_w)
    if error_w < 0.0 and policy._last_move_up:
        step = policy._pool_mhz - policy._pool_before_move
        dither = 1.5 * policy.platform.step_mhz * len(policy.apps)
        return "halve" if step > dither else "rollback-hold"
    if error_w > 0.0:
        if iteration < policy._hold_until:
            return "held"
        return "hold-expired" if policy._hold_until else "climb"
    if error_w == 0.0:
        return "deadband"
    return "descend"


@pytest.fixture
def spies(monkeypatch):
    """Record the daemons each pass commits and the branch every
    ``step_pool`` call takes."""
    committed: list[set[int]] = []
    branches: dict[int, str] = {}
    run_pass = gang._run_pass

    def spy_run_pass(lanes, window):
        rest = run_pass(lanes, window)
        left = {id(lane[0]) for lane in rest}
        committed[-1].update(
            id(lane[0]) for lane in lanes if id(lane[0]) not in left
        )
        return rest

    step_pool = FrequencySharesPolicy.step_pool

    def spy_step_pool(self, power_error_w, iteration, lo, hi):
        branches[id(self)] = branch_of(self, power_error_w, iteration)
        return step_pool(self, power_error_w, iteration, lo, hi)

    monkeypatch.setattr(gang, "_run_pass", spy_run_pass)
    monkeypatch.setattr(FrequencySharesPolicy, "step_pool", spy_step_pool)
    return committed, branches


def test_pass_matches_per_node_iterations_after_every_boundary(spies):
    committed, branches = spies
    lockstep = build_population()
    per_node = build_population()
    assert sum(
        gang._joins(stack.daemon) for stack in lockstep
    ) > gang.DAEMON_GANG_MIN
    covered: Counter[str] = Counter()
    for boundary in range(BOUNDARIES):
        for stacks in (lockstep, per_node):
            set_caps(stacks, boundary)
            disturb(stacks, boundary)
        committed.append(set())
        branches.clear()
        run_lockstep([stack.engine for stack in lockstep], PERIOD_TICKS)
        for stack in lockstep:
            daemon = stack.daemon
            if id(daemon) in committed[-1]:
                covered[branches[id(daemon.policy)]] += 1
        for stack in per_node:
            stack.engine.run_ticks(PERIOD_TICKS)
        for index, (a, b) in enumerate(zip(lockstep, per_node)):
            assert observable(a) == observable(b), (boundary, index)
    # the pass engaged at every boundary, never for an ineligible node
    assert all(len(ids) >= gang.DAEMON_GANG_MIN for ids in committed)

    def left_out(stack) -> list[int]:
        return [
            b for b, ids in enumerate(committed)
            if id(stack.daemon) not in ids
        ]

    for stack in lockstep[-5:-2]:  # MSR proxy, Ryzen, priority
        assert left_out(stack) == list(range(BOUNDARIES))
    assert left_out(lockstep[1]) == []  # unparked by the pass
    assert left_out(lockstep[2]) == [GARBAGE_BOUNDARY]
    assert left_out(lockstep[-1]) == [CRASH_BOUNDARY]
    # in the pass from its release on: its good samples while latched
    # already met the recovery streak
    recovered = lockstep[-2]
    assert left_out(recovered) == list(range(RELEASE_BOUNDARY))
    assert recovered.daemon.history[-1].health.safe_mode_entries == 1
    assert BRANCHES <= set(covered), covered


#: daemon periods per lockstep window, as in a fleet-day epoch.
WINDOW_PERIODS = 5


def schedule_events(stacks, window: int) -> None:
    """:func:`disturb`'s events of one window as one-shots, half a
    period into the period they precede, so each fires mid-window
    between two deadlines."""
    first = window * WINDOW_PERIODS
    for boundary in range(first, first + WINDOW_PERIODS):
        if boundary in EVENTS:
            index, event = EVENTS[boundary]
            stack = stacks[index]
            stack.engine.at(
                boundary + 0.5, lambda now_s, s=stack, e=event: e(s)
            )


def test_multi_deadline_windows_match_per_node_stepping(spies):
    """Fleet-day's shape: 5-period lockstep windows, outside events
    fired mid-window as one-shots.  After every window the windowed
    population, one written back at every deadline (1-period windows)
    and one stepped node by node agree on every observable and every
    chip float."""
    committed, _ = spies
    windowed = build_population()
    per_deadline = build_population()
    per_node = build_population()
    populations = (windowed, per_deadline, per_node)
    for window in range(BOUNDARIES // WINDOW_PERIODS):
        for stacks in populations:
            set_caps(stacks, window)
            schedule_events(stacks, window)
        committed.append(set())
        run_lockstep(
            [stack.engine for stack in windowed],
            WINDOW_PERIODS * PERIOD_TICKS,
        )
        for _ in range(WINDOW_PERIODS):
            run_lockstep(
                [stack.engine for stack in per_deadline], PERIOD_TICKS
            )
        for stack in per_node:
            stack.engine.run_ticks(WINDOW_PERIODS * PERIOD_TICKS)
        assert len(committed[-1]) >= gang.DAEMON_GANG_MIN
        for index, stacks in enumerate(zip(*populations)):
            expected = observable(stacks[-1])
            chip = chip_fingerprint(stacks[-1].chip)
            for stack in stacks[:-1]:
                assert observable(stack) == expected, (window, index)
                assert chip_fingerprint(stack.chip) == chip, (window, index)
    # the latch release fired mid-window and the node recovered
    assert windowed[-2].daemon.history[-1].health.safe_mode_entries == 1
    assert windowed[-2].daemon.mode.value == "normal"


def test_narrow_population_takes_the_per_node_path(spies):
    committed, _ = spies
    stacks = [_config(i) for i in range(gang.DAEMON_GANG_MIN - 1)]
    lockstep = [build_stack(config) for config in stacks]
    per_node = [build_stack(config) for config in stacks]
    for _ in range(3):
        committed.append(set())
        run_lockstep([stack.engine for stack in lockstep], PERIOD_TICKS)
        for stack in per_node:
            stack.engine.run_ticks(PERIOD_TICKS)
    assert not set().union(*committed)
    for a, b in zip(lockstep, per_node):
        assert observable(a) == observable(b)


def test_fleet_grid_stacked_journal_matches_serial(spies, serial_stepping):
    """A fleet wider than the constant, every node active: the stacked
    stepper (pass engaged) and the serial stepper (per-node iterations)
    write the same journal."""
    committed, _ = spies
    config = fleet_config(1, 2, 6, seed=5, schedule=None, engine="array")
    assert len(config.nodes) > gang.DAEMON_GANG_MIN
    config = dataclasses.replace(
        config,
        nodes=tuple(
            dataclasses.replace(
                spec,
                apps=tuple(
                    dataclasses.replace(app, shares=SHARES[(i + j) % 4])
                    for j, app in enumerate(spec.apps)
                ),
            )
            for i, spec in enumerate(config.nodes)
        ),
    )
    duration_s = 4 * config.epoch_s
    committed.append(set())
    stacked = ClusterSim(config).run(duration_s)
    assert len(committed[-1]) == len(config.nodes)
    committed.append(set())
    with serial_stepping():
        serial = ClusterSim(config).run(duration_s)
    assert not committed[-1]
    assert stacked.journal.to_jsonl() == serial.journal.to_jsonl()


def test_ryzen_kmeans_stays_per_node(spies):
    """Four apps on three simultaneous P-states: even a group wider than
    the constant keeps its per-node k-means reduction."""
    committed, _ = spies
    configs = [
        _config(i, platform="ryzen") for i in range(gang.DAEMON_GANG_MIN)
    ]
    lockstep = [build_stack(config) for config in configs]
    per_node = [build_stack(config) for config in configs]
    for _ in range(3):
        committed.append(set())
        run_lockstep([stack.engine for stack in lockstep], PERIOD_TICKS)
        for stack in per_node:
            stack.engine.run_ticks(PERIOD_TICKS)
    assert not set().union(*committed)
    for a, b in zip(lockstep, per_node):
        assert observable(a) == observable(b)


# -- the array kernels against their scalar oracles ----------------------------


@st.composite
def targets_on_grid(draw):
    grid = draw(st.sampled_from(
        [SKYLAKE.pstates.frequencies_mhz, RYZEN.pstates.frequencies_mhz]
    ))
    value = st.one_of(
        st.floats(),  # NaN and infinities included
        st.floats(min_value=grid[0] - 500.0, max_value=grid[-1] + 500.0),
        st.sampled_from(grid),  # exact points
        st.integers(0, len(grid) - 2).map(  # midpoints: ties
            lambda i: (grid[i] + grid[i + 1]) / 2
        ),
    )
    rows = draw(st.lists(
        st.lists(value, min_size=3, max_size=3), min_size=1, max_size=6
    ))
    return grid, rows


@given(targets_on_grid())
@settings(max_examples=300, deadline=None)
def test_quantize_matches_quantize_nearest(case):
    grid, rows = case
    index = gang._quantize(np.array(rows), grid)
    assert [[grid[i] for i in row] for row in index.tolist()] == [
        [quantize_nearest(v, grid) for v in row] for row in rows
    ]


def test_refill_checks_the_floor_before_the_ceiling():
    """Where the two sums round together, a total at both gets the
    floors, as in ``proportional_targets``."""
    lo = np.full((1, 2), 1e16)
    hi = np.array([[1e16, 1e16 + 2.0]])
    floor_sum, ceil_sum = gang._left_fold(lo), gang._left_fold(hi)
    assert floor_sum.tolist() == ceil_sum.tolist() == [2e16]
    out = gang._refill(np.array([2e16]), np.ones((1, 2)), lo, hi,
                       floor_sum, ceil_sum)
    assert out.tolist() == lo.tolist()


@st.composite
def refill_rows(draw):
    n_apps = draw(st.integers(1, 5))
    floor = draw(st.sampled_from([800.0, 1000.0]))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        shares = [draw(st.sampled_from(SHARES + (1.0, 3.0))) for _ in
                  range(n_apps)]
        ceilings = [draw(st.floats(floor, 3000.0)) for _ in range(n_apps)]
        total = draw(st.one_of(
            st.floats(0.0, 4000.0 * n_apps),
            st.sampled_from([floor * n_apps, sum(ceilings)]),
        ))
        rows.append((total, shares, ceilings))
    return floor, rows


@given(refill_rows())
@settings(max_examples=300, deadline=None)
def test_refill_matches_proportional_targets(case):
    floor, rows = case
    total = np.array([t for t, _, _ in rows])
    shares = np.array([s for _, s, _ in rows])
    hi = np.array([c for _, _, c in rows])
    lo = np.broadcast_to(np.full((len(rows), 1), floor), hi.shape)
    out = gang._refill(
        total, shares, lo, hi, gang._left_fold(lo), gang._left_fold(hi)
    )
    for (t, s, c), got in zip(rows, out.tolist()):
        claims = [
            Claim(f"a{j}", s[j], floor, floor, c[j]) for j in range(len(s))
        ]
        want = list(proportional_targets(t, claims).values())
        assert [v.hex() for v in got] == [v.hex() for v in want]
