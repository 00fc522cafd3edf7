"""Raw counter snapshots and wrap-safe deltas.

Everything the monitoring loop consumes derives from differences of
free-running hardware counters: APERF/MPERF for average active frequency,
IA32_FIXED_CTR0 for retired instructions, and the RAPL energy-status
counters for power.  Energy counters are 32-bit and wrap every few hours
at server power draw; the cycle/instruction counters are 64-bit and wrap
too (rarely in practice, constantly under injected wrap storms).
:func:`CounterSnapshot.delta` diffs *every* counter modulo its width,
the same way turbostat does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlatformError
from repro.hw import msr as msrdef
from repro.hw.msr import MSRFile, read_counter_delta, read_energy_delta
from repro.hw.platform import PlatformSpec


@dataclass(frozen=True)
class CounterSnapshot:
    """One point-in-time read of all monitored counters."""

    timestamp_s: float
    aperf: tuple[int, ...]
    mperf: tuple[int, ...]
    instructions: tuple[int, ...]
    pkg_energy_uj: int
    core_energy_uj: tuple[int, ...] | None

    def delta(self, later: "CounterSnapshot") -> "CounterDelta":
        """Compute the wrap-safe difference ``later - self``."""
        if later.timestamp_s < self.timestamp_s:
            raise PlatformError("snapshots out of order")
        dt = later.timestamp_s - self.timestamp_s
        core_energy = None
        if self.core_energy_uj is not None and later.core_energy_uj is not None:
            core_energy = tuple(
                read_energy_delta(a, b)
                for a, b in zip(self.core_energy_uj, later.core_energy_uj)
            )
        return CounterDelta(
            dt_s=dt,
            aperf=tuple(
                read_counter_delta(a, b)
                for a, b in zip(self.aperf, later.aperf)
            ),
            mperf=tuple(
                read_counter_delta(a, b)
                for a, b in zip(self.mperf, later.mperf)
            ),
            instructions=tuple(
                read_counter_delta(a, b)
                for a, b in zip(self.instructions, later.instructions)
            ),
            pkg_energy_uj=read_energy_delta(
                self.pkg_energy_uj, later.pkg_energy_uj
            ),
            core_energy_uj=core_energy,
        )


@dataclass(frozen=True)
class CounterDelta:
    """Counter movement over an interval, plus derived metrics."""

    dt_s: float
    aperf: tuple[int, ...]
    mperf: tuple[int, ...]
    instructions: tuple[int, ...]
    pkg_energy_uj: int
    core_energy_uj: tuple[int, ...] | None

    def package_power_w(self) -> float:
        if self.dt_s <= 0:
            return 0.0
        return self.pkg_energy_uj * 1e-6 / self.dt_s

    def core_power_w(self, core_id: int) -> float:
        if self.core_energy_uj is None:
            raise PlatformError("platform has no per-core energy counters")
        if self.dt_s <= 0:
            return 0.0
        return self.core_energy_uj[core_id] * 1e-6 / self.dt_s

    def active_frequency_mhz(self, core_id: int, tsc_mhz: float) -> float:
        """Average frequency while in C0: ``tsc * APERF/MPERF``.

        Returns 0 for a core that never entered C0 this interval, which
        is how turbostat reports fully idle cores.
        """
        mperf = self.mperf[core_id]
        if mperf == 0:
            return 0.0
        return tsc_mhz * self.aperf[core_id] / mperf

    def ips(self, core_id: int) -> float:
        """Instructions retired per second on a core."""
        if self.dt_s <= 0:
            return 0.0
        return self.instructions[core_id] / self.dt_s

    def busy_fraction(self, core_id: int, tsc_mhz: float) -> float:
        """C0 residency estimated from MPERF movement vs wall time."""
        if self.dt_s <= 0:
            return 0.0
        return min(1.0, self.mperf[core_id] / (tsc_mhz * 1e6 * self.dt_s))


def package_energy_address(platform: PlatformSpec) -> int:
    """The vendor's package energy-status MSR."""
    if platform.vendor == "intel":
        return msrdef.MSR_PKG_ENERGY_STATUS
    return msrdef.MSR_AMD_PKG_ENERGY


def read_snapshot(
    platform: PlatformSpec, msr: MSRFile, timestamp_s: float
) -> CounterSnapshot:
    """Read all monitored counters through the MSR interface."""
    n = platform.n_cores
    pkg_addr = package_energy_address(platform)
    core_energy = None
    if platform.has_per_core_energy:
        core_energy = tuple(
            msr.read(cpu, msrdef.MSR_AMD_CORE_ENERGY) for cpu in range(n)
        )
    return CounterSnapshot(
        timestamp_s=timestamp_s,
        aperf=tuple(msr.read(cpu, msrdef.IA32_APERF) for cpu in range(n)),
        mperf=tuple(msr.read(cpu, msrdef.IA32_MPERF) for cpu in range(n)),
        instructions=tuple(
            msr.read(cpu, msrdef.IA32_FIXED_CTR0) for cpu in range(n)
        ),
        pkg_energy_uj=msr.read(0, pkg_addr),
        core_energy_uj=core_energy,
    )
