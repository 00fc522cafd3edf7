"""cpufreq-style frequency control front-end (userspace governor).

The paper's daemon uses the Linux *userspace* governor to set P-states
from user level (section 2.2).  :class:`CpuFreqInterface` mirrors that
surface: per-CPU ``scaling_setspeed`` in kHz, quantized to the platform
grid, routed to the chip through the vendor's MSR encoding — the same
path a real daemon takes through sysfs into the pstate driver.

It also exposes ``scaling_cur_freq`` readback (from the P-state status
MSR) and scaling limits, so telemetry/tests can verify the request vs.
grant distinction that RAPL creates.
"""

from __future__ import annotations

from repro.errors import FrequencyError, PlatformError
from repro.hw import msr as msrdef
from repro.hw.msr import MSRFile
from repro.hw.platform import PlatformSpec
from repro.units import khz_to_mhz, mhz_to_khz


class CpuFreqInterface:
    """sysfs-like per-CPU frequency control over the MSR file."""

    def __init__(self, platform: PlatformSpec, msr: MSRFile):
        if msr.n_cpus != platform.n_cores:
            raise PlatformError("MSR file does not match platform core count")
        self.platform = platform
        self.msr = msr
        self._min_khz = mhz_to_khz(platform.min_frequency_mhz)
        self._max_khz = mhz_to_khz(platform.max_frequency_mhz)

    # -- sysfs-equivalent attributes -----------------------------------------

    @property
    def scaling_min_freq_khz(self) -> int:
        return self._min_khz

    @property
    def scaling_max_freq_khz(self) -> int:
        return self._max_khz

    def scaling_available_frequencies_khz(self) -> tuple[int, ...]:
        return tuple(
            mhz_to_khz(f) for f in self.platform.pstates.frequencies_mhz
        )

    # -- control ---------------------------------------------------------------

    def set_speed_khz(self, cpu: int, freq_khz: int) -> None:
        """``scaling_setspeed``: request a frequency in kHz."""
        self.set_speed_mhz(cpu, khz_to_mhz(freq_khz))

    def set_speed_mhz(self, cpu: int, freq_mhz: float, *, nearest: bool = True) -> None:
        """Request a frequency in MHz, snapping onto the platform grid.

        ``nearest=False`` snaps down instead (conservative under a power
        budget).  Out-of-range requests clamp to the scaling limits, as
        the cpufreq core does.
        """
        self.platform.validate_core(cpu)
        lo = self.platform.min_frequency_mhz
        hi = self.platform.max_frequency_mhz
        target = min(max(freq_mhz, lo), hi)
        pstate = self.platform.pstates.quantize(target, nearest=nearest)
        address, value = self.pstate_request(pstate.frequency_mhz)
        self.msr.write(cpu, address, value)

    def pstate_request(self, freq_mhz: float) -> tuple[int, int]:
        """The ``(register, value)`` write that requests grid point
        ``freq_mhz``, in the vendor's encoding."""
        if self.platform.vendor == "intel":
            ratio = int(round(freq_mhz / 100.0))
            if abs(ratio * 100.0 - freq_mhz) > 1e-6:
                raise FrequencyError(
                    f"{freq_mhz} MHz is not a multiple of the "
                    "100 MHz Intel bus clock"
                )
            return msrdef.IA32_PERF_CTL, ratio << 8
        steps = int(round(freq_mhz / 25.0))
        if abs(steps * 25.0 - freq_mhz) > 1e-6:
            raise FrequencyError(
                f"{freq_mhz} MHz is not a multiple of the 25 MHz Ryzen step"
            )
        return msrdef.MSR_AMD_PSTATE_CTL, steps

    def set_all_mhz(self, freq_mhz: float) -> None:
        """Set every CPU to one frequency (global-DVFS emulation)."""
        for cpu in self.platform.core_ids():
            self.set_speed_mhz(cpu, freq_mhz)

    # -- readback ----------------------------------------------------------------

    def current_freq_mhz(self, cpu: int) -> float:
        """``scaling_cur_freq``: granted (effective) frequency readback."""
        self.platform.validate_core(cpu)
        if self.platform.vendor == "intel":
            status = self.msr.read(cpu, msrdef.IA32_PERF_STATUS)
            return ((status >> 8) & 0xFF) * 100.0
        status = self.msr.read(cpu, msrdef.MSR_AMD_PSTATE_STATUS)
        return status * 25.0
