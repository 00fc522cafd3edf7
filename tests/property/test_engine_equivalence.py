"""Property tests: the array engine is bit-identical to the scalar one.

Two chips fed the same schedule — one stepped tick-by-tick by the
scalar reference loop, one through :func:`repro.sim.soa.advance_chip`'s
batched array path — must agree on *every* float observable, to the
bit, after every segment.  Schedules draw from everything the daemon
does at its cadence: P-state retargets, park/unpark (the quarantine
and consolidation mechanisms both reduce to parking at chip level),
RAPL limit programming and removal (window boundaries where the
firmware control loop engages mid-batch), and uneven run lengths that
misalign batch edges with behaviour changes.

The same property is asserted one level up through
:class:`~repro.sim.engine.SimEngine`, where callback deadlines carve
the run into batches, and across a gang wide enough to take the
gang-wide RAPL replay: mixed Skylake and Ryzen chips with staggered
start times and their own limits, stepped as one stacked batch, with
P-state retargets, park toggles and load reassignments landing on
single members between runs (each moves a different tier of the
cached gather rows).  A last gang is built from duplicates: copies of
a few templates and near-twins that each differ from their template in
one input, so a lane the array engine shares with a duplicate that
should have been stepped apart shows up.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.platform import ryzen_1700x, skylake_xeon_4114
from repro.sim import soa
from repro.sim.chip import Chip
from repro.sim.core import BatchCoreLoad, IdleLoad
from repro.sim.engine import SimEngine
from repro.workloads.app import RunningApp
from repro.workloads.spec import spec_app

from tests.unit.test_array_kernel import chip_fingerprint

SKYLAKE = skylake_xeon_4114()
RYZEN = ryzen_1700x()
FREQS = SKYLAKE.pstates.frequencies_mhz

#: benchmarks spanning compute-bound, memory-bound, and phased models.
BENCHMARKS = ("leela", "cactusBSSN", "omnetpp", "gcc", "imagick")

#: in-range RAPL limits plus None (limiting disabled).
RAPL_LIMITS = (None, 25.0, 38.0, 50.0, 70.0)

ops = st.one_of(
    st.tuples(st.just("freq"),
              st.integers(0, SKYLAKE.n_cores - 1),
              st.sampled_from(FREQS)),
    st.tuples(st.just("park"),
              st.integers(0, SKYLAKE.n_cores - 1),
              st.booleans()),
    st.tuples(st.just("rapl"),
              st.sampled_from(RAPL_LIMITS),
              st.none()),
    st.tuples(st.just("run"), st.integers(1, 300), st.none()),
)

placements = st.dictionaries(
    st.integers(0, SKYLAKE.n_cores - 1),
    st.tuples(
        st.sampled_from(BENCHMARKS),
        # None -> steady service; a budget -> finishes mid-run
        st.one_of(st.none(), st.floats(min_value=1e8, max_value=4e9)),
    ),
    min_size=1,
    max_size=6,
)


def batch_load(platform, core_id, name, budget) -> BatchCoreLoad:
    model = spec_app(name, steady=budget is None)
    if budget is not None:
        model = model.with_instructions(budget)
    return BatchCoreLoad(
        RunningApp(model, instance=core_id), platform.reference_frequency_mhz
    )


def build_chip(placement, platform=SKYLAKE) -> Chip:
    chip = Chip(platform, tick_s=5e-3)
    for core_id, (name, budget) in placement.items():
        chip.assign_load(core_id, batch_load(platform, core_id, name, budget))
    return chip


def apply(chip, op, *, array: bool) -> None:
    kind, a, b = op
    if kind == "freq":
        chip.set_requested_frequency(a, b)
    elif kind == "park":
        chip.park(a, b)
    elif kind == "rapl":
        chip.set_rapl_limit(a)
    elif array:
        soa.advance_chip(chip, a)
    else:
        chip.advance_ticks(a)


@given(placements, st.lists(ops, min_size=1, max_size=25))
@settings(max_examples=50, deadline=None)
def test_array_advance_is_bit_identical(placement, schedule):
    scalar = build_chip(placement)
    array = build_chip(placement)
    for op in schedule:
        apply(scalar, op, array=False)
        apply(array, op, array=True)
        assert chip_fingerprint(scalar) == chip_fingerprint(array)


@given(
    placements,
    st.lists(st.sampled_from(FREQS), min_size=1, max_size=8),
    st.lists(st.sampled_from(RAPL_LIMITS), min_size=1, max_size=4),
    st.integers(5, 80),    # callback period in ticks
    st.integers(50, 900),  # total ticks
)
@settings(max_examples=30, deadline=None)
def test_engine_batches_are_bit_identical(
    placement, freq_cycle, limit_cycle, period, total
):
    chips = []
    for mode in ("scalar", "array"):
        engine = SimEngine(build_chip(placement), engine=mode)
        beat = [0]

        def retune(now, chip=engine.chip, beat=beat):
            chip.set_requested_frequency(
                0, freq_cycle[beat[0] % len(freq_cycle)]
            )
            chip.park(1, beat[0] % 2 == 0)
            chip.set_rapl_limit(limit_cycle[beat[0] % len(limit_cycle)])
            beat[0] += 1

        engine.every(period * engine.chip.tick_s, retune)
        engine.run_ticks(total)
        engine.chip.flush_counters()
        chips.append(engine.chip)
    assert chip_fingerprint(chips[0]) == chip_fingerprint(chips[1])


@pytest.mark.soak
@given(placements, st.lists(ops, min_size=20, max_size=120))
@settings(max_examples=120, deadline=None)
def test_array_advance_is_bit_identical_soak(placement, schedule):
    """Long-schedule variant: many segments, only a final fingerprint
    compare per op batch (the per-op assert above already localizes
    failures; this one buys depth)."""
    scalar = build_chip(placement)
    array = build_chip(placement)
    for op in schedule:
        apply(scalar, op, array=False)
        apply(array, op, array=True)
    assert chip_fingerprint(scalar) == chip_fingerprint(array)


#: one gang member: app placement on cores both platforms have, lead
#: ticks stepped before the gang starts (staggered start times, hence
#: distinct phase keys), a RAPL limit programmed after the lead (so each
#: cap starts clear and binds at its own tick; Ryzen has no limiter),
#: and the P-state every core requests, counted down from the top (low
#: enough that a lowered cap can climb back before it binds).
gang_members = st.tuples(
    st.dictionaries(
        st.integers(0, RYZEN.n_cores - 1),
        st.tuples(
            st.sampled_from(BENCHMARKS),
            st.one_of(st.none(), st.floats(min_value=1e8, max_value=4e9)),
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 30),
    st.sampled_from(RAPL_LIMITS),
    st.integers(0, 10),
)


def build_member(platform, member) -> Chip:
    placement, lead, limit_w, level = member
    chip = build_chip(placement, platform)
    top = platform.pstates.frequencies_mhz[-1 - level]
    for core_id in range(platform.n_cores):
        chip.set_requested_frequency(core_id, top)
    chip.advance_ticks(lead)
    if chip.rapl is not None:
        chip.set_rapl_limit(limit_w)
    return chip


def build_gang(skylake_members, ryzen_members) -> list[Chip]:
    """Skylake chips with a Ryzen chip after every fifth, so the
    package sum pads chips of 10 and 8 cores at irregular positions."""
    chips = [build_member(SKYLAKE, m) for m in skylake_members]
    for i, member in enumerate(ryzen_members):
        chips.insert(6 * i + 5, build_member(RYZEN, member))
    return chips


#: one op on one gang member between runs (the member index wraps
#: around the gang): a P-state retarget, a park toggle, or a load
#: reassignment (None places an idle load), on cores both platforms have.
member_ops = st.tuples(
    st.integers(0, 1000),
    st.one_of(
        st.tuples(st.just("freq"),
                  st.integers(0, RYZEN.n_cores - 1),
                  st.integers(0, 10)),
        st.tuples(st.just("park"),
                  st.integers(0, RYZEN.n_cores - 1),
                  st.none()),
        st.tuples(st.just("load"),
                  st.integers(0, RYZEN.n_cores - 1),
                  st.tuples(
                      st.one_of(st.none(), st.sampled_from(BENCHMARKS)),
                      st.one_of(st.none(),
                                st.floats(min_value=1e8, max_value=4e9)),
                  )),
    ),
)


def apply_member_op(chip, op) -> None:
    kind, core_id, arg = op
    platform = chip.platform
    if kind == "freq":
        target = platform.pstates.frequencies_mhz[-1 - arg]
        # Ryzen runs at most 3 distinct P-states at once, so a retarget
        # there moves every core; Skylake cores move one at a time
        if platform.simultaneous_pstates >= platform.n_cores:
            chip.set_requested_frequency(core_id, target)
        else:
            for core in range(platform.n_cores):
                chip.set_requested_frequency(core, target)
    elif kind == "park":
        chip.park(core_id, not chip.cores[core_id].parked)
    else:
        name, budget = arg
        chip.assign_load(
            core_id,
            IdleLoad() if name is None
            else batch_load(platform, core_id, name, budget),
        )


#: a gang that draws every op kind at least once, on Skylake and Ryzen
#: members, whatever the search explores.
EXAMPLE_SKYLAKE = [
    ({0: ("leela", None), 1: ("gcc", 2.0e9), 2: ("omnetpp", None)},
     i % 7, RAPL_LIMITS[i % len(RAPL_LIMITS)], 3)
    for i in range(soa.RAPL_GANG_MIN_CHIPS + 2)
]
EXAMPLE_RYZEN = [
    ({0: ("imagick", None), 3: ("cactusBSSN", 1.5e9)}, 4, None, 6)
]
#: the fourth step re-targets member 5 after its 3e8-instruction load
#: finished (a done flip) during the third, inside the held window.
EXAMPLE_STEPS = [
    ([(0, ("freq", 1, 0)), (5, ("freq", 0, 5))], 40, None),
    ([(1, ("park", 0, None)), (5, ("park", 3, None))], 60, 1),
    ([(2, ("load", 1, ("cactusBSSN", None))),
      (5, ("load", 4, ("leela", 3e8))),
      (3, ("load", 2, (None, None)))], 50, None),
    ([(1, ("park", 0, None)), (2, ("freq", 2, 8)),
      (5, ("freq", 4, 2))], 30, 5),
]


@given(
    st.lists(
        gang_members,
        min_size=soa.RAPL_GANG_MIN_CHIPS + 2,
        max_size=soa.RAPL_GANG_MIN_CHIPS + 2,
    ),
    st.lists(gang_members, min_size=1, max_size=5),
    st.lists(
        st.tuples(
            st.lists(member_ops, max_size=4),
            st.integers(8, 200),
            # a member written back for a consumer before the step
            st.one_of(st.none(), st.integers(0, 1000)),
        ),
        min_size=1,
        max_size=4,
    ),
)
@example(EXAMPLE_SKYLAKE, EXAMPLE_RYZEN, EXAMPLE_STEPS)
@settings(max_examples=6, deadline=None)
def test_wide_gang_is_bit_identical(skylake_members, ryzen_members, steps):
    """A gang past the RAPL replay's width cut-over, stepped as one
    stacked batch, matches every chip stepped alone by the scalar loop,
    while drawn members are retargeted, parked and re-placed between
    runs.  A second gang takes every step inside one held window: the
    ops reach it as inputs on its objects, without a write-back, and a
    drawn member is written back mid-window as for a consumer."""
    gang = build_gang(skylake_members, ryzen_members)
    held = build_gang(skylake_members, ryzen_members)
    solo = build_gang(skylake_members, ryzen_members)
    limited = sum(chip.rapl is not None for chip in gang)
    assert limited >= soa.RAPL_GANG_MIN_CHIPS
    window = soa.Window(held)
    for ops, n_ticks, consumer in steps:
        if consumer is not None:
            window.release(held[consumer % len(held)])
        for member, op in ops:
            index = member % len(gang)
            for chips in (gang, held, solo):
                apply_member_op(chips[index], op)
        soa.advance_chips(gang, n_ticks)
        soa.advance_chips(held, n_ticks, window)
        for chip in solo:
            chip.advance_ticks(n_ticks)
        for alone, stacked in zip(solo, gang):
            assert chip_fingerprint(alone) == chip_fingerprint(stacked)
    window.close()
    for alone, resident in zip(solo, held):
        assert chip_fingerprint(alone) == chip_fingerprint(resident)


#: the core every duplicate-gang member parks for one tick and idles for
#: one before it gets a fresh app (the wake and residency twins vary the
#: window): free in every drawn placement, which uses cores Ryzen has.
WAKE_CORE = SKYLAKE.n_cores - 1
#: instructions a budget twin has left when the gang starts
BUDGET_LEFT = 2.0e8
#: what sets a near-twin apart from its template, one input each
TWIN_KINDS = (
    "lead", "level", "park", "idle", "limit", "budget", "wake", "resid",
    "model",
)
#: a model twin's app differs in one parameter, so in one column field
MODEL_TWEAKS = (
    lambda m: replace(m, c_eff=m.c_eff * 1.25),
    lambda m: replace(m, base_ipc=m.base_ipc * 1.25),        # rate only
    lambda m: replace(m, stall_power_factor=0.5 * m.stall_power_factor),
    lambda m: replace(m, name=m.name + "/twin"),             # phase offset
    lambda m: replace(m, phase=replace(m.phase, period_s=7.0)),
    lambda m: replace(m, phase=replace(m.phase, ipc_amplitude=0.125)),
    lambda m: replace(m, phase=replace(m.phase, power_amplitude=0.125)),
)

#: at most three templates, each a Skylake gang member as above
dup_templates = st.lists(gang_members, min_size=1, max_size=3)
#: a near-twin: its template's index (wrapping), its kind and a core
dup_twins = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from(TWIN_KINDS),
        st.integers(0, RYZEN.n_cores - 1),
    ),
    max_size=8,
)


def build_duplicate(template, twin=None) -> Chip:
    """A copy of ``template``, or its near-twin ``(kind, core)``.

    Every member steps its lead ticks, then a two-tick park window on
    :data:`WAKE_CORE` (parked, then idle), then gets a fresh app there,
    then its RAPL limit.  A twin differs in one input: one more lead
    tick (chip time, so phase), ``core``'s P-state one level down as the
    gang starts (so its sums are still its template's), ``core`` parked,
    an idle load on an app core, the next RAPL limit, an app core's
    budget cut to finish :data:`BUDGET_LEFT` instructions into the
    gang's run, the park window's ticks swapped, so the core wakes from
    C6 when its app starts (the same residency sums, another C-state),
    no park in the window (the same C-state, another C1/C6 split), or
    one parameter of the fresh app's model (:data:`MODEL_TWEAKS`, picked
    by ``core``: the same sums, another column).
    """
    placement, lead, limit_w, level = template
    kind, core = twin if twin is not None else (None, 0)
    app_cores = sorted(placement)
    app_core = app_cores[core % len(app_cores)]
    if kind == "budget":
        probe = build_duplicate(template)
        name = placement[app_core][0]
        retired = probe.cores[app_core].load.app.retired_instructions
        placement = {**placement, app_core: (name, retired + BUDGET_LEFT)}
    chip = build_chip(placement)
    for core_id in range(SKYLAKE.n_cores):
        chip.set_requested_frequency(core_id, FREQS[-1 - level])
    chip.advance_ticks(lead + (kind == "lead"))
    window = {"wake": (False, True), "resid": (False, False)}
    for parked in window.get(kind, (True, False)):
        chip.park(WAKE_CORE, parked)
        chip.advance_ticks(1)
    chip.park(WAKE_CORE, False)
    model = spec_app("leela", steady=True)
    if kind == "model":
        model = MODEL_TWEAKS[core % len(MODEL_TWEAKS)](model)
    chip.assign_load(WAKE_CORE, BatchCoreLoad(
        RunningApp(model, instance=WAKE_CORE),
        SKYLAKE.reference_frequency_mhz,
    ))
    if kind == "level":
        chip.set_requested_frequency(core, FREQS[-2 - level])
    if kind == "park":
        chip.park(core, True)
    if kind == "idle":
        chip.assign_load(app_core, IdleLoad())
    if kind == "limit":
        next_limit = RAPL_LIMITS.index(limit_w) + 1
        limit_w = RAPL_LIMITS[next_limit % len(RAPL_LIMITS)]
    chip.set_rapl_limit(limit_w)
    return chip


def build_duplicates(templates, twins) -> list[Chip]:
    """:data:`soa.RAPL_GANG_MIN_CHIPS` + 2 copies of the templates in
    turn, with the twins inserted at scattered positions."""
    chips = [
        build_duplicate(templates[i % len(templates)])
        for i in range(soa.RAPL_GANG_MIN_CHIPS + 2)
    ]
    for j, (index, kind, core) in enumerate(twins):
        twin = build_duplicate(templates[index % len(templates)], (kind, core))
        chips.insert((7 * j + 3) % (len(chips) + 1), twin)
    return chips


#: two templates, one with steady and budgeted copies of an app at the
#: reference P-state (level 6, 2,200 MHz: a finished app's idle rows
#: equal its running ones), one at 2,500 MHz; and one example per twin
#: kind on cores chosen so the twin differs where it matters: an idle
#: core parked, an app core idled, every model parameter.
DUP_TEMPLATES = [
    ({0: ("leela", None), 1: ("cactusBSSN", None), 2: ("leela", None),
      3: ("cactusBSSN", 3.0e9)}, 6, 50.0, 6),
    ({0: ("omnetpp", None), 2: ("gcc", None)}, 11, 38.0, 3),
]
DUP_EXAMPLES = {
    "lead": [(1, "lead", 0)],
    "level": [(0, "level", 2)],
    "park": [(0, "park", 5)],
    "idle": [(0, "idle", 2)],
    "limit": [(1, "limit", 0)],
    "budget": [(0, "budget", 0)],
    "wake": [(0, "wake", 0)],
    "resid": [(0, "resid", 0)],
    "model": [(0, "model", core) for core in range(len(MODEL_TWEAKS))],
}


def _dup_examples(test):
    for twins in DUP_EXAMPLES.values():
        test = example(DUP_TEMPLATES, twins, [60, 200])(test)
    return test


@given(
    dup_templates,
    dup_twins,
    st.lists(st.integers(8, 200), min_size=1, max_size=3),
)
@_dup_examples
@settings(max_examples=3, deadline=None)
def test_duplicate_gang_is_bit_identical(templates, twins, steps):
    """A gang of copies of at most three templates, with near-twins that
    each differ from their template in one input, stepped as one stacked
    batch (each distinct lane once), matches every chip stepped alone
    by the scalar loop: a shared column, chip pattern or state that
    should have been two shows here."""
    gang = build_duplicates(templates, twins)
    solo = build_duplicates(templates, twins)
    for n_ticks in steps:
        soa.advance_chips(gang, n_ticks)
        for chip in solo:
            chip.advance_ticks(n_ticks)
        for alone, stacked in zip(solo, gang):
            assert chip_fingerprint(alone) == chip_fingerprint(stacked)
