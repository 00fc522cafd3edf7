"""Model-specific register (MSR) file emulation.

A real per-application power daemon talks to the processor through
``/dev/cpu/<n>/msr`` (and sysfs).  This module provides that same register
interface over the simulated chip: 64-bit registers addressed per logical
CPU, some read-only (energy/perf counters), some writable (P-state
control, RAPL limits).  The simulator publishes counter updates into the
file; drivers (:mod:`repro.hw.cpufreq`, :mod:`repro.hw.rapl`,
:mod:`repro.telemetry.turbostat`) read and write through it.

Register addresses follow the Intel SDM and the AMD Family 17h PPR, so
the driver layer reads like real systems code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import MSRAddressError, MSRPermissionError, PlatformError

U64_MASK = 0xFFFF_FFFF_FFFF_FFFF

# --- Intel architectural / Skylake MSRs (Intel SDM vol. 4) -----------------
IA32_MPERF = 0x0E7  # TSC-rate reference cycles while in C0
IA32_APERF = 0x0E8  # actual cycles while in C0 (APERF/MPERF = avg freq)
IA32_PERF_STATUS = 0x198  # current P-state (frequency readback)
IA32_PERF_CTL = 0x199  # P-state request (frequency, in 100 MHz units)
IA32_FIXED_CTR0 = 0x309  # instructions retired
MSR_RAPL_POWER_UNIT = 0x606
MSR_PKG_POWER_LIMIT = 0x610
MSR_PKG_ENERGY_STATUS = 0x611  # package energy, micro-joules here

# --- AMD Family 17h (Ryzen) MSRs (PPR) --------------------------------------
MSR_AMD_PSTATE_CTL = 0xC001_0062  # P-state control (index write)
MSR_AMD_PSTATE_STATUS = 0xC001_0063
MSR_AMD_PSTATE_DEF0 = 0xC001_0064  # P-state definition registers (0..7)
MSR_AMD_RAPL_POWER_UNIT = 0xC001_0299
MSR_AMD_CORE_ENERGY = 0xC001_029A  # per-core energy counter
MSR_AMD_PKG_ENERGY = 0xC001_029B

#: 32-bit wraparound mask used by RAPL energy-status counters on real
#: hardware; readers must handle wrap (turbostat does; so does ours).
ENERGY_COUNTER_MASK = 0xFFFF_FFFF


@dataclass
class MSRDef:
    """Definition of one MSR: address, access policy, and scope."""

    address: int
    name: str
    writable: bool = False
    #: package-scope registers share one value across all CPUs
    package_scope: bool = False
    reset_value: int = 0
    #: optional validation/side-effect hook run on writes
    on_write: Optional[Callable[[int, int], None]] = None


class MSRFile:
    """Per-CPU 64-bit register file with package-scope aliasing.

    The file is created empty; platform bring-up (:mod:`repro.sim.chip`)
    registers the MSRs the platform supports.  Reading an unregistered
    address raises :class:`MSRAddressError` — exactly the ``EIO`` a real
    ``rdmsr`` would produce for an unimplemented MSR.
    """

    def __init__(self, n_cpus: int):
        if n_cpus <= 0:
            raise PlatformError("MSR file needs at least one CPU")
        self._n_cpus = n_cpus
        self._defs: Dict[int, MSRDef] = {}
        self._values: Dict[tuple[int, int], int] = {}

    @property
    def n_cpus(self) -> int:
        return self._n_cpus

    def register(self, msr_def: MSRDef) -> None:
        """Register an MSR definition and initialise its reset value."""
        if msr_def.address in self._defs:
            raise MSRAddressError(
                f"MSR 0x{msr_def.address:X} ({msr_def.name}) already registered"
            )
        self._defs[msr_def.address] = msr_def
        cpus = (0,) if msr_def.package_scope else range(self._n_cpus)
        for cpu in cpus:
            self._values[(cpu, msr_def.address)] = (
                msr_def.reset_value & U64_MASK
            )

    def is_registered(self, address: int) -> bool:
        return address in self._defs

    def definition(self, address: int) -> MSRDef:
        try:
            return self._defs[address]
        except KeyError:
            raise MSRAddressError(
                f"MSR 0x{address:X} is not implemented on this platform"
            ) from None

    def _slot(self, cpu: int, address: int) -> tuple[int, int]:
        msr_def = self.definition(address)
        if not 0 <= cpu < self._n_cpus:
            raise MSRAddressError(f"CPU {cpu} out of range")
        return (0 if msr_def.package_scope else cpu, address)

    def read(self, cpu: int, address: int) -> int:
        """``rdmsr``: read a 64-bit register on a CPU."""
        return self._values[self._slot(cpu, address)]

    def write(self, cpu: int, address: int, value: int) -> None:
        """``wrmsr``: write a register, enforcing the access policy."""
        msr_def = self.definition(address)
        if not msr_def.writable:
            raise MSRPermissionError(
                f"MSR 0x{address:X} ({msr_def.name}) is read-only"
            )
        if not 0 <= value <= U64_MASK:
            raise MSRPermissionError(
                f"value {value:#x} does not fit in 64 bits"
            )
        self._values[self._slot(cpu, address)] = value
        if msr_def.on_write is not None:
            msr_def.on_write(cpu, value)

    # -- simulator-side (privileged) accessors ------------------------------

    def poke(self, cpu: int, address: int, value: int) -> None:
        """Simulator-side write that bypasses the read-only policy.

        Used by the chip model to publish counter values (energy,
        APERF/MPERF, instructions retired) that are read-only to software.
        """
        self._values[self._slot(cpu, address)] = value & U64_MASK


def read_counter_delta(
    prev_raw: int, curr_raw: int, *, wrap_mask: int = U64_MASK
) -> int:
    """Difference between two reads of a free-running wrapping counter.

    Modular subtraction is how turbostat diffs every monotone counter
    (APERF/MPERF/FIXED_CTR0 at 64 bits, energy status at 32): a read
    taken just after the counter wraps must still yield the small
    forward movement, never a negative number.
    """
    return (curr_raw - prev_raw) & wrap_mask


def read_energy_delta(prev_raw: int, curr_raw: int) -> int:
    """Difference between two reads of a 32-bit wrapping energy counter."""
    return read_counter_delta(prev_raw, curr_raw, wrap_mask=ENERGY_COUNTER_MASK)
