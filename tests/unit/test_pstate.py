"""Tests for P-state tables: construction, quantization, voltages."""

import bisect
import copy
import random

import pytest

from repro.errors import FrequencyError
from repro.hw.platform import ryzen_1700x, skylake_xeon_4114
from repro.hw.pstate import PState, PStateTable


def small_table() -> PStateTable:
    return PStateTable.from_range(
        min_mhz=800.0,
        max_mhz=1200.0,
        step_mhz=100.0,
        voltage_min_v=0.7,
        voltage_max_v=1.0,
        turbo_mhz=(1500.0,),
        turbo_voltage_v=1.1,
    )


class TestConstruction:
    def test_from_range_point_count(self):
        table = small_table()
        # 800..1200 by 100 = 5 nominal + 1 turbo
        assert len(table) == 6

    def test_frequencies_ascending(self):
        freqs = small_table().frequencies_mhz
        assert list(freqs) == sorted(freqs)

    def test_turbo_flagged(self):
        table = small_table()
        assert table[len(table) - 1].turbo
        assert not table[0].turbo

    def test_voltage_ramp_endpoints(self):
        table = small_table()
        assert table[0].voltage_v == pytest.approx(0.7)
        assert table.pstate_for_frequency(1200.0).voltage_v == pytest.approx(1.0)

    def test_turbo_voltage(self):
        assert small_table().pstate_for_frequency(1500.0).voltage_v == 1.1

    def test_default_turbo_voltage_steps_up(self):
        table = PStateTable.from_range(800, 1000, 100, 0.7, 1.0,
                                       turbo_mhz=(1200.0,))
        assert table.pstate_for_frequency(1200.0).voltage_v > 1.0

    def test_empty_table_rejected(self):
        with pytest.raises(FrequencyError):
            PStateTable([])

    def test_bad_range_rejected(self):
        with pytest.raises(FrequencyError):
            PStateTable.from_range(1200, 800, 100, 0.7, 1.0)

    def test_zero_step_rejected(self):
        with pytest.raises(FrequencyError):
            PStateTable.from_range(800, 1200, 0, 0.7, 1.0)

    def test_turbo_below_nominal_rejected(self):
        with pytest.raises(FrequencyError):
            PStateTable.from_range(800, 1200, 100, 0.7, 1.0,
                                   turbo_mhz=(1000.0,))

    def test_duplicate_frequencies_rejected(self):
        points = [
            PState(0, 800.0, 0.7),
            PState(1, 800.0, 0.8),
        ]
        with pytest.raises(FrequencyError):
            PStateTable(points)

    def test_noncontiguous_indices_rejected(self):
        points = [PState(0, 800.0, 0.7), PState(2, 900.0, 0.8)]
        with pytest.raises(FrequencyError):
            PStateTable(points)


class TestLookup:
    def test_exact_lookup(self):
        assert small_table().pstate_for_frequency(1000.0).frequency_mhz == 1000.0

    def test_off_grid_lookup_raises(self):
        with pytest.raises(FrequencyError):
            small_table().pstate_for_frequency(1050.0)

    def test_min_max_properties(self):
        table = small_table()
        assert table.min_frequency_mhz == 800.0
        assert table.max_frequency_mhz == 1500.0
        assert table.max_nominal_frequency_mhz == 1200.0

    def test_nominal_frequencies_exclude_turbo(self):
        assert 1500.0 not in small_table().nominal_frequencies_mhz()


class TestQuantize:
    def test_quantize_down(self):
        assert small_table().quantize(1050.0).frequency_mhz == 1000.0

    def test_quantize_nearest(self):
        assert small_table().quantize(1060.0, nearest=True).frequency_mhz == 1100.0

    def test_quantize_below_grid(self):
        assert small_table().quantize(100.0).frequency_mhz == 800.0

    def test_quantize_above_grid(self):
        assert small_table().quantize(9999.0).frequency_mhz == 1500.0

    def test_quantize_nominal_ignores_turbo(self):
        assert (
            small_table().quantize_nominal(1400.0).frequency_mhz == 1200.0
        )


class TestVoltageInterpolation:
    def test_on_grid(self):
        table = small_table()
        assert table.voltage_for_frequency(800.0) == pytest.approx(0.7)

    def test_between_points(self):
        table = small_table()
        v = table.voltage_for_frequency(850.0)
        assert 0.7 < v < table.pstate_for_frequency(900.0).voltage_v

    def test_below_grid_clamps(self):
        assert small_table().voltage_for_frequency(100.0) == pytest.approx(0.7)

    def test_above_grid_clamps(self):
        assert small_table().voltage_for_frequency(9999.0) == pytest.approx(1.1)

    def test_monotonic_over_range(self):
        table = small_table()
        freqs = [800 + 10 * i for i in range(71)]
        voltages = [table.voltage_for_frequency(f) for f in freqs]
        assert all(b >= a for a, b in zip(voltages, voltages[1:]))

    @pytest.mark.parametrize(
        "table",
        [small_table(), skylake_xeon_4114().pstates, ryzen_1700x().pstates],
        ids=["small", "skylake", "ryzen"],
    )
    def test_lookups_match_formula_and_store_nothing(self, table):
        """A clipping RAPL cap asks for a new off-grid frequency every
        tick: lookups must not grow the table, and grid points (served
        from the grid map) and off-grid points (interpolated) must both
        equal the interpolation formula to the bit."""
        before = copy.deepcopy(vars(table))
        for point in table:
            f = point.frequency_mhz
            assert table.voltage_for_frequency(f).hex() == (
                interpolate(table, f).hex()
            )
            assert table.voltage_for_frequency(f).hex() == (
                point.voltage_v.hex()
            )
        rng = random.Random(11)
        lo, hi = table.min_frequency_mhz, table.max_frequency_mhz
        for _ in range(10_000):
            f = rng.uniform(lo - 100.0, hi + 100.0)
            assert table.voltage_for_frequency(f).hex() == (
                interpolate(table, f).hex()
            )
        assert vars(table) == before


def interpolate(table: PStateTable, frequency_mhz: float) -> float:
    """The V/f interpolation formula alone, with no lookup in front."""
    points = list(table)
    freqs = table.frequencies_mhz
    if frequency_mhz <= freqs[0]:
        return points[0].voltage_v
    if frequency_mhz >= freqs[-1]:
        return points[-1].voltage_v
    pos = bisect.bisect_right(freqs, frequency_mhz)
    lo, hi = points[pos - 1], points[pos]
    frac = (frequency_mhz - lo.frequency_mhz) / (
        hi.frequency_mhz - lo.frequency_mhz
    )
    return lo.voltage_v + frac * (hi.voltage_v - lo.voltage_v)


class TestAcpiIndex:
    def test_p0_is_fastest(self):
        table = small_table()
        fastest = table.pstate_for_frequency(1500.0)
        assert table.acpi_index(fastest) == 0

    def test_slowest_has_highest_index(self):
        table = small_table()
        slowest = table.pstate_for_frequency(800.0)
        assert table.acpi_index(slowest) == len(table) - 1
