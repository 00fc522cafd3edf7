"""The lockstep window against chip-by-chip stepping, as a state machine.

The array engine keeps a gang's state in one :class:`~repro.sim.soa.\
Window` from gather to write-back, and the lockstep daemon pass
(:mod:`repro.core.gang`) steers the chips it holds.  Every part of that
protocol — the gather, the batch, the fused stretch, the daemon pass,
and the write-backs on a ``done`` flip, on a placement change, for a
per-node consumer and at window close — must leave what the scalar
reference leaves.  The fixed-schedule tests reach each part alone; this
machine interleaves them.

It holds the same nodes twice, each a chip with a started
frequency-shares daemon:

* the **window** side stacks every chip in one open ``soa.Window`` and
  runs a daemon deadline through :func:`repro.core.gang.step_daemons`,
  firing what the pass leaves in place after :meth:`Window.release`, as
  :func:`repro.sim.engine.run_lockstep` does;
* the **scalar** side steps each chip alone through ``Chip.tick`` and
  runs every deadline with :meth:`PowerDaemon.iteration`.

Members repeat three Skylake templates of one daemon shape, enough of
them (:data:`repro.core.gang.DAEMON_GANG_MIN`) for a deadline to run
the pass, and a Ryzen template that stays per node, so gangs are wide,
mix platforms and carry duplicate lanes.  Two of the Skylake templates
differ only in the platform's leakage coefficient (a test-local
platform variant), so their lanes differ in that one lane-column
constant alone; Skylake and Ryzen lanes also differ in
``c_eff_scale``.  The rules advance k ticks, fire a deadline, assign,
replace or unload an app, park or unpark a core, program a RAPL limit
(one low enough to clip), start a budgeted app that finishes within a
batch, release a chip to a consumer, and close the window and open a
new one.

After every rule both sides must agree on every chip float, the
P-state requests and their registers, the P-state view, and every
daemon's samples, state and turbostat baseline.  The window side is
read through a copy whose window is closed, so the check writes
nothing back into the window it checks.
"""

from __future__ import annotations

import dataclasses
import pickle
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.config import AppSpec, ExperimentConfig, build_stack
from repro.core import gang
from repro.hw import msr as msrdef
from repro.hw.platform import PLATFORM_REGISTRY, PlatformSpec, get_platform
from repro.sim import soa
from repro.sim.core import BatchCoreLoad, IdleLoad
from repro.workloads.app import RunningApp
from repro.workloads.spec import spec_app

from tests.unit.test_array_kernel import chip_fingerprint

TICK_S = 5e-3


def leaky_skylake() -> PlatformSpec:
    """Skylake with every constant kept but a higher leakage
    coefficient."""
    spec = get_platform("skylake")
    return dataclasses.replace(
        spec,
        name="skylake-leaky",
        power=dataclasses.replace(spec.power, leak_coeff_w_per_v=0.6),
    )


SKY_A = ExperimentConfig(
    platform="skylake",
    policy="frequency-shares",
    limit_w=40.0,
    apps=(AppSpec("leela", shares=100.0),
          AppSpec("cactusBSSN", shares=50.0),
          AppSpec("omnetpp", shares=25.0),
          AppSpec("gcc", shares=75.0)),
    tick_s=TICK_S,
    engine="array",
)

#: three Skylake templates of one daemon shape (four apps, one of them
#: AVX-capped), two of them apart in leakage alone, and a Ryzen one of
#: three apps, which its P-state limit admits to the pass but whose
#: group is always too narrow for it
TEMPLATES = {
    "sky-a": SKY_A,
    "sky-a-leaky": dataclasses.replace(SKY_A, platform="skylake-leaky"),
    "sky-b": ExperimentConfig(
        platform="skylake",
        policy="frequency-shares",
        limit_w=46.0,
        apps=(AppSpec("imagick", shares=50.0),
              AppSpec("leela", shares=25.0),
              AppSpec("gcc", shares=100.0),
              AppSpec("omnetpp", shares=50.0)),
        tick_s=TICK_S,
        engine="array",
    ),
    "ryzen": ExperimentConfig(
        platform="ryzen",
        policy="frequency-shares",
        limit_w=45.0,
        apps=(AppSpec("leela", shares=50.0),
              AppSpec("cactusBSSN", shares=100.0),
              AppSpec("gcc", shares=25.0)),
        tick_s=TICK_S,
        engine="array",
    ),
}
#: the members, each template repeated; the Skylake ones are one pass
#: group of exactly the pass's minimum width
MEMBERS = (
    ["sky-a", "sky-b"] * (gang.DAEMON_GANG_MIN // 2 - 1)
    + ["sky-a-leaky"] * 2
    + ["ryzen"] * 2
)
#: cores every member has (Ryzen has 8, Skylake 10)
CORES = 8

#: benchmarks spanning compute-bound, memory-bound, AVX and phased models
BENCHMARKS = ("leela", "cactusBSSN", "omnetpp", "gcc", "imagick")
#: instruction budgets from well under one tick's work (on an idle or
#: parked core such an app finishes on its first tick without flipping
#: ``done``) to some dozens of ticks' (a tick retires up to about 3e7)
BUDGETS = (1e5, 1e6, 3e6, 3e7, 6e8)
#: Skylake limits: in range and clipping, or the limiter switched off
RAPL_LIMITS = (None, 20.0, 25.0, 38.0, 55.0, 85.0)

#: a few ticks, or up to a whole batch
short_ticks = st.integers(1, 24)
ticks = st.one_of(short_ticks, st.integers(1, soa.MAX_BATCH_TICKS))
members = st.integers(0, len(MEMBERS) - 1)
cores = st.integers(0, CORES - 1)


def build_side() -> list:
    with mock.patch.dict(PLATFORM_REGISTRY, {"skylake-leaky": leaky_skylake}):
        return [build_stack(TEMPLATES[name]) for name in MEMBERS]


def batch_load(platform, core_id: int, name: str, budget: float | None):
    model = spec_app(name, steady=budget is None)
    if budget is not None:
        model = model.with_instructions(budget)
    return BatchCoreLoad(
        RunningApp(model, instance=core_id), platform.reference_frequency_mhz
    )


def requests_of(chip) -> list:
    """The P-state requests and the registers that carry them."""
    address = (
        msrdef.IA32_PERF_CTL if chip.platform.vendor == "intel"
        else msrdef.MSR_AMD_PSTATE_CTL
    )
    values = chip.msr._values
    registers = [values[(cpu, address)] for cpu in range(len(chip.cores))]
    limit = (
        values.get((0, msrdef.MSR_PKG_POWER_LIMIT))
        if chip.platform.vendor == "intel" else None
    )
    return [
        [core.requested_mhz for core in chip.cores],
        registers,
        limit,
        chip._dirty,
        list(chip._base_effective_mhz),
        chip._view_generation,
        chip._placement_generation,
    ]


def daemon_state(daemon) -> list:
    plumbing = {"chip", "policy", "cpufreq", "turbostat", "msr", "history",
                "resilience"}
    return [
        repr(daemon.history),
        repr({k: v for k, v in vars(daemon).items() if k not in plumbing}),
        repr({k: v for k, v in vars(daemon.policy).items()
              if k != "platform"}),
        repr(daemon.turbostat._previous),
    ]


def observe(chips, daemons) -> list:
    return [
        (chip_fingerprint(chip), requests_of(chip), daemon_state(daemon))
        for chip, daemon in zip(chips, daemons)
    ]


class WindowMachine(RuleBasedStateMachine):
    """One open window over every member against the scalar loop."""

    parked = Bundle("parked")

    def __init__(self):
        super().__init__()
        self.window_side = build_side()
        self.scalar_side = build_side()
        self.chips = [stack.chip for stack in self.window_side]
        self.daemons = [stack.daemon for stack in self.window_side]
        self.window = soa.Window(self.chips)

    def pairs(self, member: int):
        return self.window_side[member], self.scalar_side[member]

    def load_core(self, member: int, core: int) -> int:
        """``core``, or on a platform that runs fewer simultaneous
        P-states than it has cores one of the daemon's app cores: a load
        on an idle core there would add a distinct active request past
        the limit, which both sides reject alike."""
        chip = self.chips[member]
        if chip.platform.simultaneous_pstates >= len(chip.cores):
            return core
        apps = self.daemons[member].policy.apps
        return apps[core % len(apps)].core_id

    # -- the rules ------------------------------------------------------------

    @initialize(lead=short_ticks)
    def run_in(self, lead):
        """Every node has run a little before the machine starts, so
        each core's last sample is a real one."""
        self.advance(lead)

    @rule(n=ticks)
    def advance(self, n):
        soa.advance_chips(self.chips, n, self.window)
        for stack in self.scalar_side:
            stack.chip.advance_ticks(n)

    @rule(n=short_ticks)
    def deadline(self, n):
        """``n`` ticks, then every daemon due at once: the lockstep pass
        on the window side (the rest in place), its own iteration on the
        scalar one."""
        self.advance(n)
        due = [
            (daemon.iteration, self.window.time_s(daemon.chip))
            for daemon in self.daemons
        ]
        for callback, now_s in gang.step_daemons(due, self.window):
            chip = callback.__self__.chip
            self.window.release(chip)
            chip.flush_counters()
            callback(now_s)
        for stack in self.scalar_side:
            stack.chip.flush_counters()
            stack.daemon.iteration(stack.chip.time_s)

    @rule(member=members, core=cores,
          name=st.one_of(st.none(), st.sampled_from(BENCHMARKS)))
    def assign(self, member, core, name):
        """Assign, replace or (``None``) unload a steady app."""
        core = self.load_core(member, core)
        for stack in self.pairs(member):
            chip = stack.chip
            chip.assign_load(
                core,
                IdleLoad() if name is None
                else batch_load(chip.platform, core, name, None),
            )

    @rule(target=parked, member=members, core=cores)
    def park(self, member, core):
        for stack in self.pairs(member):
            stack.chip.park(core, True)
        return (member, core)

    @rule(where=consumes(parked))
    def unpark(self, where):
        member, core = where
        for stack in self.pairs(member):
            stack.chip.park(core, False)

    @rule(member=members, core=cores, name=st.sampled_from(BENCHMARKS),
          budget=st.sampled_from(BUDGETS))
    def budgeted(self, member, core, name, budget):
        """An app with a budget that runs out within a batch; on an idle
        or parked core one that finishes on its first tick never flips
        ``done``."""
        core = self.load_core(member, core)
        for stack in self.pairs(member):
            chip = stack.chip
            chip.assign_load(core, batch_load(chip.platform, core, name,
                                              budget))

    @rule(member=members, limit=st.sampled_from(RAPL_LIMITS))
    def rapl(self, member, limit):
        window_stack, scalar_stack = self.pairs(member)
        if window_stack.chip.rapl is None:
            return
        if limit is None:
            # switching the limiter off resets its cap, an output the
            # window holds: a consumer of the objects, so release first
            self.window.release(window_stack.chip)
        window_stack.chip.set_rapl_limit(limit)
        scalar_stack.chip.set_rapl_limit(limit)

    @rule(member=members)
    def release(self, member):
        self.window.release(self.chips[member])

    @rule()
    def reopen(self):
        self.window.close()
        self.window = soa.Window(self.chips)

    # -- the check ------------------------------------------------------------

    @invariant()
    def sides_agree(self):
        window, chips, daemons = self.written_back()
        window.close()
        scalar = observe(
            [s.chip for s in self.scalar_side],
            [s.daemon for s in self.scalar_side],
        )
        for member, (got, want) in enumerate(zip(observe(chips, daemons),
                                                 scalar)):
            assert got == want, member

    def written_back(self):
        """A copy of the window side, its window still open: closing it
        shows what a write-back would leave without writing back into
        the live window.  The daemons' sample histories, which no
        write-back touches, are shared rather than copied."""
        histories = [daemon.history for daemon in self.daemons]
        for daemon in self.daemons:
            daemon.history = None
        try:
            blob = pickle.dumps(
                (self.window, self.chips, self.daemons),
                pickle.HIGHEST_PROTOCOL,
            )
        finally:
            for daemon, history in zip(self.daemons, histories):
                daemon.history = history
        window, chips, daemons = pickle.loads(blob)
        for daemon, history in zip(daemons, histories):
            daemon.history = history
        return window, chips, daemons

    def teardown(self):
        self.window.close()


#: short rule sequences that exposed write-back faults, replayed as they
#: are: a sub-tick budget on an idle core finishes without flipping
#: ``done``; a load given to an idle core of a held chip clears its last
#: sample; a deadline re-programs every Skylake member's request row,
#: which the write-back and the next batch must both see
PINNED = {
    "finish-without-flip": [
        ("budgeted", dict(member=0, core=5, name="gcc", budget=1e5)),
        ("advance", dict(n=10)),
    ],
    "assign-on-held-idle-core": [
        ("assign", dict(member=1, core=6, name="leela")),
        ("advance", dict(n=5)),
    ],
    "deadline-then-batch": [
        ("deadline", dict(n=5)),
        ("advance", dict(n=5)),
    ],
}


@pytest.mark.parametrize("steps", PINNED.values(), ids=PINNED)
def test_pinned_sequences(steps):
    machine = WindowMachine()
    machine.run_in(3)
    machine.sides_agree()
    for rule_name, arguments in steps:
        getattr(machine, rule_name)(**arguments)
        machine.sides_agree()
    machine.teardown()


#: the tier-1 budget: about 20 s on a 2-vCPU host
TIER1 = settings(
    max_examples=20,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_window_matches_scalar_stepping():
    run_state_machine_as_test(WindowMachine, settings=TIER1)


@pytest.mark.soak
def test_window_matches_scalar_stepping_soak():
    run_state_machine_as_test(
        WindowMachine,
        settings=settings(
            TIER1, max_examples=300, stateful_step_count=60
        ),
    )
