"""Fault-injecting proxy over the MSR register file.

:class:`FaultyMSRFile` sits between *software* (the daemon's cpufreq and
turbostat drivers) and the real :class:`~repro.hw.msr.MSRFile`.  It
duck-types the full register-file surface, so drivers cannot tell the
difference, and injects the failures a long-running userspace daemon
actually sees on real machines:

* transient ``rdmsr``/``wrmsr`` ``EIO`` (:class:`~repro.errors.MSRIOError`),
* stuck telemetry counters (a read repeats the previous value),
* garbage telemetry counters (a read returns random bits),
* energy-counter wrap storms (reads thrown near the 32-bit wrap point,
  so consecutive deltas wrap over and over).

The simulator-side accessor (``poke``) passes through untouched — the
fault model corrupts the software's *view*, never the hardware's
ground truth.  All injection decisions come from one seeded RNG, so a
scenario replays identically for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import MSRIOError
from repro.faults.scenario import FaultScenario
from repro.hw import msr as msrdef
from repro.hw.msr import ENERGY_COUNTER_MASK, MSRDef, MSRFile

#: Counters eligible for stuck/garbage injection: the free-running
#: telemetry counters software diffs every interval.
TELEMETRY_COUNTERS = frozenset(
    {
        msrdef.IA32_APERF,
        msrdef.IA32_MPERF,
        msrdef.IA32_FIXED_CTR0,
        msrdef.MSR_PKG_ENERGY_STATUS,
        msrdef.MSR_AMD_PKG_ENERGY,
        msrdef.MSR_AMD_CORE_ENERGY,
    }
)

#: Counters subject to wrap storms (32-bit energy status registers).
ENERGY_COUNTERS = frozenset(
    {
        msrdef.MSR_PKG_ENERGY_STATUS,
        msrdef.MSR_AMD_PKG_ENERGY,
        msrdef.MSR_AMD_CORE_ENERGY,
    }
)

#: A wrap-storm read lands this far below the wrap point, so the next
#: honest read almost certainly wraps past it.
_WRAP_MARGIN = 1 << 8


@dataclass
class FaultStats:
    """Counts of injected faults, by kind (deterministic per seed)."""

    read_failures: int = 0
    write_failures: int = 0
    stuck_reads: int = 0
    garbage_reads: int = 0
    wrap_storms: int = 0

    def total(self) -> int:
        return (
            self.read_failures
            + self.write_failures
            + self.stuck_reads
            + self.garbage_reads
            + self.wrap_storms
        )


@dataclass
class _Injector:
    """Shared RNG + stats so several proxies can share one schedule."""

    scenario: FaultScenario
    rng: random.Random = field(init=False)
    stats: FaultStats = field(default_factory=FaultStats)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.scenario.seed)


class FaultyMSRFile:
    """Drop-in :class:`MSRFile` replacement with seeded fault injection.

    Wraps (does not copy) the inner file: registrations and values stay
    in the real file; only software-visible ``read``/``write`` traffic
    is corrupted.
    """

    def __init__(
        self,
        inner: MSRFile,
        scenario: FaultScenario,
        *,
        clock: Optional[Callable[[], float]] = None,
    ):
        self._inner = inner
        self._scenario = scenario
        self._injector = _Injector(scenario)
        #: simulated-time source for windowed scenarios; None means the
        #: scenario is active for the whole run.
        self._clock = clock
        #: last value software successfully read per (cpu, address);
        #: what a "stuck" counter keeps reporting.
        self._last_read: dict[tuple[int, int], int] = {}

    def _active(self) -> bool:
        if self._scenario.window_s is None or self._clock is None:
            return True
        return self._scenario.active_at(self._clock())

    # -- pass-through surface -------------------------------------------------

    @property
    def inner(self) -> MSRFile:
        return self._inner

    @property
    def scenario(self) -> FaultScenario:
        return self._scenario

    @property
    def stats(self) -> FaultStats:
        return self._injector.stats

    @property
    def n_cpus(self) -> int:
        return self._inner.n_cpus

    def register(self, msr_def: MSRDef) -> None:
        self._inner.register(msr_def)

    def is_registered(self, address: int) -> bool:
        return self._inner.is_registered(address)

    def definition(self, address: int) -> MSRDef:
        return self._inner.definition(address)

    def poke(self, cpu: int, address: int, value: int) -> None:
        self._inner.poke(cpu, address, value)

    # -- faulted software surface ---------------------------------------------

    def read(self, cpu: int, address: int) -> int:
        value = self._inner.read(cpu, address)  # honest address checks
        if not self._active():
            self._last_read[(cpu, address)] = value
            return value
        s = self._scenario
        inj = self._injector
        if s.msr_read_fail_rate and inj.rng.random() < s.msr_read_fail_rate:
            inj.stats.read_failures += 1
            raise MSRIOError(
                f"injected transient rdmsr failure (cpu {cpu}, "
                f"MSR 0x{address:X})"
            )
        if address in TELEMETRY_COUNTERS:
            roll = inj.rng.random()
            if roll < s.stuck_counter_rate:
                inj.stats.stuck_reads += 1
                return self._last_read.get((cpu, address), value)
            roll -= s.stuck_counter_rate
            if roll < s.garbage_counter_rate:
                inj.stats.garbage_reads += 1
                garbage = inj.rng.getrandbits(64)
                self._last_read[(cpu, address)] = garbage
                return garbage
            roll -= s.garbage_counter_rate
            if address in ENERGY_COUNTERS and roll < s.wrap_storm_rate:
                inj.stats.wrap_storms += 1
                stormed = (ENERGY_COUNTER_MASK - _WRAP_MARGIN + value) & (
                    ENERGY_COUNTER_MASK
                )
                self._last_read[(cpu, address)] = stormed
                return stormed
        self._last_read[(cpu, address)] = value
        return value

    def write(self, cpu: int, address: int, value: int) -> None:
        if not self._active():
            self._inner.write(cpu, address, value)
            return
        s = self._scenario
        inj = self._injector
        if s.msr_write_fail_rate and inj.rng.random() < s.msr_write_fail_rate:
            inj.stats.write_failures += 1
            raise MSRIOError(
                f"injected transient wrmsr failure (cpu {cpu}, "
                f"MSR 0x{address:X})"
            )
        self._inner.write(cpu, address, value)
