"""Analytic power model.

Dynamic power follows the textbook relation the paper cites in section
2.1: ``P_dyn ∝ C_eff · V² · f``.  We add voltage-dependent leakage and a
package-level uncore adder::

    P_core  = scale · c_eff · V(f)² · f_GHz · busy  +  leak · V   (active)
    P_core  = idle_core_watts                                     (idle/parked)
    P_pkg   = Σ P_core + uncore_watts

The platform's voltage curve makes power superlinear in frequency, and
the discrete voltage step at turbo points produces the ~5 W package jump
the paper observes when TurboBoost/XFR engages (Figs 2 and 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.hw.platform import PlatformSpec


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-core decomposition, useful in tests and ablations."""

    dynamic_w: float
    leakage_w: float
    idle_w: float

    @property
    def total_w(self) -> float:
        return self.dynamic_w + self.leakage_w + self.idle_w


def core_power_breakdown(
    platform: PlatformSpec,
    frequency_mhz: float,
    c_eff: float,
    busy_fraction: float,
    *,
    active: bool = True,
) -> PowerBreakdown:
    """Compute one core's power decomposition for a tick.

    ``c_eff`` is the load-reported effective capacitance (already folding
    in activity/stall factors); ``busy_fraction`` is C0 residency.  An
    inactive (idle or parked) core draws only its deep-idle floor —
    milliwatt-scale versus tens of watts at full tilt (paper section 2.1,
    "Core Idling").
    """
    if not active or busy_fraction <= 0.0:
        return PowerBreakdown(0.0, 0.0, platform.power.idle_core_watts)
    if frequency_mhz <= 0:
        raise SimulationError("active core must have positive frequency")
    if not 0.0 <= busy_fraction <= 1.0:
        raise SimulationError(f"bad busy fraction {busy_fraction}")
    voltage = platform.pstates.voltage_for_frequency(frequency_mhz)
    f_ghz = frequency_mhz / 1000.0
    dynamic = (
        platform.power.c_eff_scale
        * c_eff
        * voltage
        * voltage
        * f_ghz
        * busy_fraction
    )
    leakage = platform.power.leak_coeff_w_per_v * voltage
    # idle floor is charged for the non-C0 remainder of the tick
    idle = platform.power.idle_core_watts * (1.0 - busy_fraction)
    return PowerBreakdown(dynamic, leakage, idle)


def core_power_watts(
    platform: PlatformSpec,
    frequency_mhz: float,
    c_eff: float,
    busy_fraction: float,
    *,
    active: bool = True,
) -> float:
    """Total core power for a tick (see :func:`core_power_breakdown`)."""
    return core_power_breakdown(
        platform, frequency_mhz, c_eff, busy_fraction, active=active
    ).total_w


def package_power_watts(platform: PlatformSpec, core_powers_w: list[float]) -> float:
    """Package power: cores plus the uncore/DRAM-controller adder.

    The cores are a plain left fold, ``((0.0 + p0) + p1) + ...``, spelled
    out because ``sum`` of floats is compensated from Python 3.12 on and
    the array engine's ``kernel.package_rows`` folds left.
    """
    total = 0.0
    for power in core_powers_w:
        total += power
    return total + platform.power.uncore_watts
