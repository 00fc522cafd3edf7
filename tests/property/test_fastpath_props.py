"""Property tests: the chip's dirty-flag cache and the engine's
deadline-to-deadline stepping are bit-identical to their references.

Two chips fed the same schedule of mutations — one caching its P-state
view behind the dirty flag, one re-resolving it before every tick
(:func:`run_refreshing`) — must agree on *every* observable after every
segment: effective frequencies, package energy, APERF/MPERF/instruction
counters, and power.  Schedules include finishing loads, whose
done-transition changes the active-core count (and hence the turbo
ceiling) without any software mutation.  An engine stepping from
deadline to deadline must likewise match the tick-by-tick driver.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.platform import skylake_xeon_4114
from repro.sim.chip import Chip
from repro.sim.core import LoadSample
from repro.sim.engine import SimEngine
from tests.unit.test_engine_batching import run_per_tick

SKYLAKE = skylake_xeon_4114()
FREQS = SKYLAKE.pstates.frequencies_mhz


class FiniteLoad:
    """Deterministic synthetic load that retires a fixed instruction
    budget and then goes idle (exercising the done transition)."""

    name = "finite"

    def __init__(self, budget, ipc, uses_avx):
        self.remaining = budget
        self.ipc = ipc
        self.uses_avx = uses_avx

    def advance(self, dt_s, frequency_mhz, sim_time_s):
        if self.remaining <= 0.0:
            return LoadSample(0.0, 0.0, 0.0, done=True)
        retired = min(
            self.remaining, frequency_mhz * 1e6 * dt_s * self.ipc
        )
        self.remaining -= retired
        return LoadSample(
            instructions=retired,
            busy_fraction=1.0,
            c_eff=1.1,
            done=self.remaining <= 0.0,
        )


load_specs = st.tuples(
    st.floats(min_value=1e6, max_value=5e9),  # instruction budget
    st.floats(min_value=0.3, max_value=2.0),  # ipc
    st.booleans(),                            # uses_avx
)

ops = st.one_of(
    st.tuples(st.just("freq"),
              st.integers(0, SKYLAKE.n_cores - 1),
              st.sampled_from(FREQS)),
    st.tuples(st.just("park"),
              st.integers(0, SKYLAKE.n_cores - 1),
              st.booleans()),
    st.tuples(st.just("run"), st.integers(1, 200), st.none()),
)


def run_refreshing(chip, n_ticks):
    """The cache's reference: re-resolve the P-state view before every
    tick, then flush like ``Chip.run_ticks``."""
    for _ in range(n_ticks):
        chip._dirty = True
        chip.tick()
    chip.flush_counters()


def apply(chip, op, run=Chip.run_ticks):
    kind, a, b = op
    if kind == "freq":
        chip.set_requested_frequency(a, b)
    elif kind == "park":
        chip.park(a, b)
    else:
        run(chip, a)


def observables(chip):
    chip.flush_counters()
    return (
        chip.time_s,
        [c.effective_mhz for c in chip.cores],
        chip.energy.package_energy_uj,
        chip.last_package_power_w,
        list(chip._aperf_cycles),
        list(chip._mperf_cycles),
        list(chip._instr_total),
    )


@given(
    st.dictionaries(
        st.integers(0, SKYLAKE.n_cores - 1), load_specs, max_size=6
    ),
    st.lists(ops, min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_dirty_caching_is_bit_identical(loads, schedule):
    fast = Chip(SKYLAKE)
    slow = Chip(SKYLAKE)
    for chip in (fast, slow):
        for core_id, (budget, ipc, avx) in loads.items():
            chip.assign_load(core_id, FiniteLoad(budget, ipc, avx))
    for op in schedule:
        apply(fast, op)
        apply(slow, op, run_refreshing)
        assert observables(fast) == observables(slow)


@given(
    st.dictionaries(
        st.integers(0, SKYLAKE.n_cores - 1), load_specs, max_size=6
    ),
    st.lists(st.sampled_from(FREQS), min_size=1, max_size=8),
    st.integers(5, 60),   # callback period in ticks
    st.integers(50, 600),  # total ticks
)
@settings(max_examples=40, deadline=None)
def test_engine_batching_is_bit_identical(loads, freq_cycle, period, total):
    chips = []
    for run in (SimEngine.run_ticks, run_per_tick):
        engine = SimEngine(Chip(SKYLAKE))
        for core_id, (budget, ipc, avx) in loads.items():
            engine.chip.assign_load(core_id, FiniteLoad(budget, ipc, avx))
        beat = [0]

        def retune(now, chip=engine.chip, beat=beat):
            chip.set_requested_frequency(
                0, freq_cycle[beat[0] % len(freq_cycle)]
            )
            chip.park(1, beat[0] % 2 == 0)
            beat[0] += 1

        engine.every(period * engine.chip.tick_s, retune)
        run(engine, total)
        chips.append(engine.chip)
    assert observables(chips[0]) == observables(chips[1])

