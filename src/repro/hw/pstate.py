"""P-state tables: the discrete frequency/voltage operating points.

A :class:`PStateTable` models the per-platform DVFS grid.  Intel Skylake
exposes 100 MHz steps; AMD Ryzen exposes 25 MHz steps (paper section 2.1,
"Model-specific register").  Each grid point carries the voltage the
platform would apply at that frequency, which the power model consumes.

The table distinguishes *nominal* points from *opportunistic* (turbo/XFR)
points: turbo points are only reachable when the turbo model grants
headroom (few active cores), mirroring TurboBoost and Precision Boost/XFR.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import FrequencyError
from repro.units import quantize_down, quantize_nearest


@dataclass(frozen=True)
class PState:
    """One discrete operating point.

    Attributes:
        index: position in the table; 0 is the *lowest* frequency here.
            (ACPI numbers P0 as fastest; :meth:`PStateTable.acpi_index`
            converts.)
        frequency_mhz: core clock at this point.
        voltage_v: supply voltage applied at this point.
        turbo: True for opportunistic points above nominal max.
    """

    index: int
    frequency_mhz: float
    voltage_v: float
    turbo: bool = False


class PStateTable:
    """Ordered collection of :class:`PState` points for one platform.

    The table is built from a frequency range and step plus a voltage
    curve; it supports quantization (snapping continuous policy targets
    onto the hardware grid) and ACPI-style indexing.
    """

    def __init__(self, pstates: Sequence[PState]):
        if not pstates:
            raise FrequencyError("P-state table cannot be empty")
        ordered = sorted(pstates, key=lambda p: p.frequency_mhz)
        for expected_index, pstate in enumerate(ordered):
            if pstate.index != expected_index:
                raise FrequencyError(
                    "P-state indices must be contiguous from 0 in "
                    f"frequency order; got {pstate.index} at position "
                    f"{expected_index}"
                )
        freqs = [p.frequency_mhz for p in ordered]
        if len(set(freqs)) != len(freqs):
            raise FrequencyError("duplicate frequencies in P-state table")
        self._pstates: tuple[PState, ...] = tuple(ordered)
        self._frequencies: tuple[float, ...] = tuple(freqs)
        #: grid frequency -> its voltage; built once, never grown (an
        #: off-grid frequency, such as a clipping RAPL cap, is a
        #: continuous float and would add one entry per lookup)
        self._grid_voltage: dict[float, float] = {
            p.frequency_mhz: p.voltage_v for p in ordered
        }
        self._hash = hash(self._pstates)

    def __eq__(self, other: object) -> bool:
        # value equality so PlatformSpec (a frozen dataclass holding a
        # table) compares by content; the platform factories build a
        # new spec per call
        if not isinstance(other, PStateTable):
            return NotImplemented
        return self._pstates == other._pstates

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_range(
        cls,
        min_mhz: float,
        max_mhz: float,
        step_mhz: float,
        voltage_min_v: float,
        voltage_max_v: float,
        turbo_mhz: Sequence[float] = (),
        turbo_voltage_v: float | None = None,
    ) -> "PStateTable":
        """Build a table from a linear frequency grid and voltage ramp.

        Voltage interpolates linearly from ``voltage_min_v`` at ``min_mhz``
        to ``voltage_max_v`` at ``max_mhz``.  Turbo points (above
        ``max_mhz``) use ``turbo_voltage_v`` (default: a step above
        ``voltage_max_v``), which produces the distinct power jump the
        paper observes when TurboBoost/XFR engages (Figs 2 and 3).
        """
        if min_mhz <= 0 or max_mhz < min_mhz or step_mhz <= 0:
            raise FrequencyError(
                f"invalid frequency range [{min_mhz}, {max_mhz}] "
                f"step {step_mhz}"
            )
        points: list[PState] = []
        span = max_mhz - min_mhz
        freq = min_mhz
        index = 0
        while freq <= max_mhz + 1e-6:
            frac = 0.0 if span == 0 else (freq - min_mhz) / span
            voltage = voltage_min_v + frac * (voltage_max_v - voltage_min_v)
            points.append(PState(index, round(freq, 3), round(voltage, 4)))
            freq += step_mhz
            index += 1
        turbo_v = (
            turbo_voltage_v
            if turbo_voltage_v is not None
            else voltage_max_v + 0.08
        )
        for turbo_freq in sorted(turbo_mhz):
            if turbo_freq <= max_mhz:
                raise FrequencyError(
                    f"turbo frequency {turbo_freq} MHz not above nominal "
                    f"max {max_mhz} MHz"
                )
            points.append(PState(index, turbo_freq, turbo_v, turbo=True))
            index += 1
        return cls(points)

    def __len__(self) -> int:
        return len(self._pstates)

    def __iter__(self) -> Iterator[PState]:
        return iter(self._pstates)

    def __getitem__(self, index: int) -> PState:
        return self._pstates[index]

    @property
    def frequencies_mhz(self) -> tuple[float, ...]:
        """All grid frequencies ascending (turbo included)."""
        return self._frequencies

    def nominal_frequencies_mhz(self) -> tuple[float, ...]:
        """Grid frequencies excluding turbo points."""
        return tuple(p.frequency_mhz for p in self._pstates if not p.turbo)

    @property
    def min_frequency_mhz(self) -> float:
        return self._frequencies[0]

    @property
    def max_frequency_mhz(self) -> float:
        """Maximum frequency including turbo points."""
        return self._frequencies[-1]

    @property
    def max_nominal_frequency_mhz(self) -> float:
        nominal = self.nominal_frequencies_mhz()
        if not nominal:
            raise FrequencyError("table has only turbo points")
        return nominal[-1]

    def pstate_for_frequency(self, frequency_mhz: float) -> PState:
        """Exact lookup of a grid frequency; raises if off-grid."""
        pos = bisect.bisect_left(self._frequencies, frequency_mhz - 1e-6)
        if (
            pos < len(self._frequencies)
            and abs(self._frequencies[pos] - frequency_mhz) < 1e-6
        ):
            return self._pstates[pos]
        raise FrequencyError(
            f"{frequency_mhz} MHz is not a valid P-state on this platform"
        )

    def quantize(self, frequency_mhz: float, *, nearest: bool = False) -> PState:
        """Snap a continuous frequency target to a grid P-state.

        By default snaps *down* (never exceed the requested budget, the
        conservative choice for a power limiter).  ``nearest=True`` gives
        the translation-function behaviour of rounding to the closest
        point.
        """
        snap = quantize_nearest if nearest else quantize_down
        freq = snap(frequency_mhz, self._frequencies)
        return self.pstate_for_frequency(freq)

    def quantize_nominal(
        self, frequency_mhz: float, *, nearest: bool = False
    ) -> PState:
        """Quantize onto the nominal (non-turbo) part of the grid."""
        snap = quantize_nearest if nearest else quantize_down
        freq = snap(frequency_mhz, self.nominal_frequencies_mhz())
        return self.pstate_for_frequency(freq)

    def voltage_for_frequency(self, frequency_mhz: float) -> float:
        """Voltage at an arbitrary frequency (interpolating between points).

        Continuous interpolation supports the power model when policies
        reason about off-grid targets before quantization.  A grid point
        is one dict hit; the interpolation would return the same bits
        there (its fraction is 0.0).
        """
        voltage = self._grid_voltage.get(frequency_mhz)
        if voltage is not None:
            return voltage
        freqs = self._frequencies
        if frequency_mhz <= freqs[0]:
            return self._pstates[0].voltage_v
        if frequency_mhz >= freqs[-1]:
            return self._pstates[-1].voltage_v
        pos = bisect.bisect_right(freqs, frequency_mhz)
        lo, hi = self._pstates[pos - 1], self._pstates[pos]
        frac = (frequency_mhz - lo.frequency_mhz) / (
            hi.frequency_mhz - lo.frequency_mhz
        )
        return lo.voltage_v + frac * (hi.voltage_v - lo.voltage_v)

    def acpi_index(self, pstate: PState) -> int:
        """ACPI-style index: P0 is the fastest state (paper section 2.1)."""
        return len(self._pstates) - 1 - pstate.index
