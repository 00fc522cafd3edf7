"""Property tests: the array engine's fused fallback equals ``Chip.tick``.

Ticks the array batch cannot take — websearch chips, time-shared
cores, stretches where a RAPL cap clips — run through :func:`repro.sim.fused.advance_fused`, which
walks the feedback loop tick by tick and folds every running sum once
per stretch.  Two chips fed the same schedule, one stepped by
``Chip.advance_ticks`` and one by :func:`repro.sim.soa.advance_chip`,
must agree on every float observable (cluster state included) to the
bit after every segment.  Chips mix a websearch cluster on a random
core subset, cpuburn, SPEC apps with and without instruction budgets, a
time-shared core and parked cores; schedules retarget P-states, park
and unpark cores and program RAPL limits between runs of 1-600 ticks,
so short gaps, caps that bind and release, C6 wake-ups and ``done``
flips all occur.  The array-side chip's ``tick`` and ``advance_ticks``
are replaced by functions that fail, which proves the fallback is the
fused loop.

Targeted cases pin the stretch boundaries: a clipping walk that
releases mid-run (and stops right there), certified websearch
stretches with the limit just above or just inside the certificate's
power bound, a budget that runs out inside a certified stretch, and a
time-shared core in a walked stretch.

One level up, a Fig 5 stack (websearch beside cpuburn under a power
daemon) must leave the same daemon history on both engines.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.latency_exp import build_latency_stack
from repro.hw.platform import skylake_xeon_4114
from repro.sched.timeshare import TimeShareEntry, TimeSharedCoreLoad
from repro.sim import fused, soa
from repro.sim.chip import Chip
from repro.sim.core import BatchCoreLoad, ClusterCoreLoad
from repro.workloads.app import RunningApp
from repro.workloads.cpuburn import cpuburn
from repro.workloads.spec import spec_app
from repro.workloads.websearch import WebsearchCluster, WebsearchConfig

from tests.unit.test_array_kernel import chip_fingerprint

SKYLAKE = skylake_xeon_4114()
N_CORES = SKYLAKE.n_cores
FREQS = SKYLAKE.pstates.frequencies_mhz
REF_MHZ = SKYLAKE.reference_frequency_mhz
BENCHMARKS = ("leela", "cactusBSSN", "omnetpp", "gcc", "imagick")
#: limits that bind hard, bind at times, and never bind, plus None.
RAPL_LIMITS = (None, 22.0, 30.0, 35.0, 40.0, 45.0, 60.0, 85.0)
#: budgets from a few ticks to a few seconds of work
BUDGETS = st.one_of(st.none(), st.floats(min_value=1e7, max_value=4e9))

websearch_configs = st.builds(
    WebsearchConfig,
    n_users=st.integers(1, 300),
    think_time_s=st.floats(min_value=0.02, max_value=2.0),
    service_cpu_s=st.floats(min_value=1e-3, max_value=0.03),
    service_mem_s=st.one_of(
        st.just(0.0), st.floats(min_value=1e-4, max_value=0.02)
    ),
    seed=st.integers(0, 2**16),
)

core_loads = st.one_of(
    st.just(("idle",)),
    st.just(("cpuburn",)),
    st.tuples(st.just("spec"), st.sampled_from(BENCHMARKS), BUDGETS),
)

timeshare_cores = st.one_of(
    st.none(),
    st.tuples(
        st.integers(0, N_CORES - 1),
        st.booleans(),  # absolute quotas (Fig 6) or relative weights
        st.lists(
            st.tuples(st.sampled_from(BENCHMARKS), BUDGETS),
            min_size=1, max_size=3,
        ),
    ),
)

chips = st.fixed_dictionaries({
    "tick_s": st.sampled_from((1e-3, 2e-3, 5e-3)),
    # empty: no cluster, so the chip may take the array batch
    "serving": st.one_of(
        st.just(frozenset()),
        st.frozensets(
            st.integers(0, N_CORES - 1), min_size=1, max_size=N_CORES - 1
        ),
    ),
    "websearch": websearch_configs,
    "loads": st.lists(core_loads, min_size=N_CORES, max_size=N_CORES),
    "timeshare": timeshare_cores,
    "parked": st.sets(st.integers(0, N_CORES - 1), max_size=3),
    "limit": st.sampled_from(RAPL_LIMITS),
    # the P-state every core requests at the start, counted down from
    # the top, so limits bind from the first run
    "level": st.integers(0, len(FREQS) - 1),
})

ops = st.one_of(
    st.tuples(st.just("freq"), st.integers(0, N_CORES - 1),
              st.sampled_from(FREQS)),
    # toggles, so parked busy cores come back and pay the C6 wake-up
    st.tuples(st.just("park"), st.integers(0, N_CORES - 1), st.none()),
    st.tuples(st.just("rapl"), st.sampled_from(RAPL_LIMITS), st.none()),
    st.tuples(st.just("run"), st.integers(1, 600), st.none()),
    # short gaps: one-tick cadences and the like
    st.tuples(st.just("run"), st.integers(1, 8), st.none()),
)


def _app(name: str, budget: float | None, instance: int) -> RunningApp:
    model = spec_app(name, steady=budget is None)
    if budget is not None:
        model = model.with_instructions(budget)
    return RunningApp(model, instance=instance)


def build_chip(spec) -> Chip:
    chip = Chip(SKYLAKE, tick_s=spec["tick_s"])
    serving = sorted(spec["serving"])
    if serving:
        cluster = WebsearchCluster(serving, spec["websearch"])
        chip.attach_cluster(cluster)
        for core_id in serving:
            chip.assign_load(core_id, ClusterCoreLoad(cluster, core_id))
    for core_id, load in enumerate(spec["loads"]):
        if core_id in serving:
            continue
        if load[0] == "cpuburn":
            chip.assign_load(
                core_id, BatchCoreLoad(RunningApp(cpuburn()), REF_MHZ)
            )
        elif load[0] == "spec":
            _, name, budget = load
            chip.assign_load(
                core_id, BatchCoreLoad(_app(name, budget, core_id), REF_MHZ)
            )
    if spec["timeshare"] is not None:
        core_id, absolute, members = spec["timeshare"]
        if core_id not in serving:
            share = 1.0 / len(members) if absolute else 10.0
            entries = [
                TimeShareEntry(_app(name, budget, 100 + k), share)
                for k, (name, budget) in enumerate(members)
            ]
            chip.assign_load(
                core_id,
                TimeSharedCoreLoad(
                    entries, REF_MHZ, absolute_quotas=absolute
                ),
            )
    for core_id in range(N_CORES):
        chip.set_requested_frequency(core_id, FREQS[-1 - spec["level"]])
    for core_id in spec["parked"]:
        chip.park(core_id, True)
    chip.set_rapl_limit(spec["limit"])
    return chip


def _refuse(*args, **kwargs):
    raise AssertionError("the array engine stepped a chip through Chip.tick")


def apply(chip, op, *, array: bool) -> None:
    kind, a, b = op
    if kind == "freq":
        chip.set_requested_frequency(a, b)
    elif kind == "park":
        chip.park(a, not chip.cores[a].parked)
    elif kind == "rapl":
        chip.set_rapl_limit(a)
    elif array:
        soa.advance_chip(chip, a)
    else:
        chip.advance_ticks(a)


#: a batch-only chip (no cluster, no time-shared core) under a limit
#: that binds: the array batch exits on the clipped cap and the fused
#: loop walks the chip until the cap releases
BATCH_UNDER_CAP = {
    "tick_s": 1e-3,
    "serving": frozenset(),
    "websearch": WebsearchConfig(),
    "loads": [("cpuburn",), ("spec", "leela", None),
              ("spec", "cactusBSSN", 5e8), ("spec", "imagick", None),
              ("idle",), ("spec", "omnetpp", 2e9), ("idle",), ("idle",),
              ("spec", "gcc", None), ("idle",)],
    "timeshare": None,
    "parked": {4},
    "limit": 30.0,
    "level": 0,
}
#: websearch on six cores beside cpuburn, a finishing SPEC app and a
#: time-shared core, with a parked busy core that is woken up
WEBSEARCH_MIX = {
    "tick_s": 2e-3,
    "serving": frozenset(range(6)),
    "websearch": WebsearchConfig(n_users=120, seed=5),
    "loads": [("idle",)] * 6 + [("cpuburn",), ("spec", "leela", 3e8),
                                ("idle",), ("idle",)],
    "timeshare": (8, True, [("gcc", None), ("imagick", 4e8)]),
    "parked": {6},
    "limit": 35.0,
    "level": 2,
}


#: two cpuburn copies at different P-states under a binding cap (one
#: clipped, one below the cap: equal models, different power) that a
#: higher limit releases a few ticks into a run
CLIP_RELEASE = dict(
    BATCH_UNDER_CAP,
    loads=[("cpuburn",), ("spec", "leela", None),
           ("spec", "cactusBSSN", 5e8), ("cpuburn",), ("idle",),
           ("spec", "omnetpp", 2e9), ("idle",), ("idle",),
           ("spec", "gcc", None), ("idle",)],
)
#: a time-shared core among batch apps under a binding cap
TIMESHARE_UNDER_CAP = dict(
    BATCH_UNDER_CAP,
    tick_s=5e-3,
    timeshare=(9, False, [("gcc", None), ("leela", 3e8)]),
)

#: a parked leela core with a tiny budget, woken for a two-tick run:
#: its app finishes on its first tick after a parked (done) sample, so
#: done never flips, and the finish must still reach the objects
WAKE_FINISH = dict(
    BATCH_UNDER_CAP,
    tick_s=5e-3,
    loads=[("idle",)] * 6 + [("spec", "leela", 1e7)] + [("idle",)] * 3,
    parked={6},
    limit=None,
)


@given(chips, st.lists(ops, min_size=4, max_size=20))
@example(BATCH_UNDER_CAP, [("run", 400, None), ("run", 3, None),
                           ("park", 0, None), ("run", 250, None),
                           ("rapl", None, None), ("run", 300, None)])
@example(WEBSEARCH_MIX, [("run", 300, None), ("park", 6, None),
                         ("run", 5, None), ("freq", 7, FREQS[-1]),
                         ("run", 600, None), ("rapl", 85.0, None),
                         ("run", 200, None)])
@example(CLIP_RELEASE, [("freq", 3, FREQS[4]), ("run", 400, None),
                        ("rapl", 55.0, None), ("run", 600, None),
                        ("run", 300, None)])
@example(TIMESHARE_UNDER_CAP, [("run", 350, None), ("freq", 9, FREQS[2]),
                               ("run", 500, None)])
@example(WAKE_FINISH, [("park", 0, None), ("run", 1, None),
                       ("park", 6, None), ("run", 2, None)])
@settings(max_examples=40, deadline=None)
def test_fused_fallback_is_bit_identical(spec, schedule):
    scalar = build_chip(spec)
    array = build_chip(spec)
    array.tick = _refuse
    array.advance_ticks = _refuse
    for op in schedule:
        apply(scalar, op, array=False)
        apply(array, op, array=True)
        assert chip_fingerprint(scalar) == chip_fingerprint(array)


def fig5_history(policy: str, limit_w: float, engine: str) -> str:
    """A Fig 5 stack (websearch on nine cores, cpuburn on the tenth, a
    power daemon at 90/10 shares) after 4 simulated seconds: the daemon
    history and the chip's fingerprint, cluster included."""
    sim, daemon, _ = build_latency_stack(
        policy, limit_w, True,
        websearch_shares=90.0, cpuburn_shares=10.0, engine=engine,
    )
    sim.run(4.0)
    return repr(daemon.history) + repr(chip_fingerprint(sim.chip))


@given(
    st.sampled_from(("rapl", "frequency-shares")),
    st.floats(min_value=35.0, max_value=85.0),
)
@settings(max_examples=6, deadline=None)
def test_fig5_stack_daemon_history_matches(policy, limit_w):
    assert fig5_history(policy, limit_w, "scalar") == (
        fig5_history(policy, limit_w, "array")
    )


def _stretch_kinds(monkeypatch) -> list[tuple[bool, bool]]:
    """Record each fused stretch as (certified, a budget ran out)."""
    kinds: list[tuple[bool, bool]] = []
    walk = fused._walk

    def spy(chip, lanes, max_ticks, certified, until_release):
        out = walk(chip, lanes, max_ticks, certified, until_release)
        kinds.append((certified, bool(out.finished)))
        return out

    monkeypatch.setattr(fused, "_walk", spy)
    return kinds


def test_walk_stops_where_the_cap_releases():
    """A clipping chip is walked until its cap clears the fastest base
    frequency and not a tick further: the scalar twin's cap still clips
    one tick earlier."""
    scalar = build_chip(CLIP_RELEASE)
    array = build_chip(CLIP_RELEASE)
    for chip in (scalar, array):
        chip.set_requested_frequency(3, FREQS[4])
    scalar.advance_ticks(400)
    soa.advance_chip(array, 400)
    for chip in (scalar, array):
        chip.set_rapl_limit(55.0)
    ran = fused.advance_fused(array, 600, until_release=True)
    assert 1 < ran < 600
    base_max = max(array._base_effective_mhz)
    scalar.advance_ticks(ran - 1)
    assert scalar.rapl.cap_mhz < base_max
    scalar.advance_ticks(1)
    assert scalar.rapl.cap_mhz >= base_max
    assert chip_fingerprint(scalar) == chip_fingerprint(array)
    # not clipping: nothing to walk
    assert fused.advance_fused(array, 600, until_release=True) == 0


#: websearch on six cores at 2 GHz beside cpuburn and a SPEC app whose
#: budget runs out a few hundred ticks in
WEBSEARCH_BOUND = {
    "tick_s": 2e-3,
    "serving": frozenset(range(6)),
    "websearch": WebsearchConfig(n_users=120, seed=5),
    "loads": [("idle",)] * 6 + [("cpuburn",), ("spec", "leela", 1e9),
                                ("idle",), ("idle",)],
    "timeshare": None,
    "parked": set(),
    "limit": None,
    "level": 8,
}


@pytest.mark.parametrize("headroom, certified", [
    (1e-6, True),     # just above the bound: certified
    (1e-12, False),   # above the bound but inside the margin: walked
    (-1e-3, False),   # just below the bound: walked
])
def test_stretches_at_the_certificate_bound(monkeypatch, headroom, certified):
    """The limit sits next to the certificate's package power bound: a
    stretch is certified only with the margin to spare, the SPEC app's
    budget runs out inside one (which ends there), and either way the
    chip matches the scalar twin bit for bit."""
    scalar = build_chip(WEBSEARCH_BOUND)
    array = build_chip(WEBSEARCH_BOUND)
    array._refresh_pstate_view()
    bound = fused._Lanes(array).bound()
    for chip in (scalar, array):
        chip.rapl.set_limit(bound * (1.0 + headroom))
    array.tick = _refuse
    array.advance_ticks = _refuse
    kinds = _stretch_kinds(monkeypatch)
    for n in (600, 300, 5):
        scalar.advance_ticks(n)
        soa.advance_chip(array, n)
        assert chip_fingerprint(scalar) == chip_fingerprint(array)
    assert [kind for kind, finish in kinds if finish] == [certified]
    assert array.cores[7].load.app.finished
