"""The simulated package: cores + uncore + firmware + counters.

:class:`Chip` wires the substrate together.  Each tick it:

1. counts active cores and derives the turbo ceiling,
2. resolves every core's *effective* frequency =
   min(requested, turbo ceiling, AVX cap, RAPL cap),
3. advances attached websearch clusters with a consistent frequency view,
4. advances every core's load, computes per-core power,
5. aggregates package power, feeds the RAPL limiter's control loop, and
6. publishes all counters (energy, APERF/MPERF, instructions, P-state
   status) into the MSR file for the driver/telemetry layers.

Software never touches chip internals directly: frequency requests come
in through MSR writes (:meth:`_on_perf_ctl_write`), exactly like a real
userspace daemon driving ``/dev/cpu/*/msr``.

Hot-path note: requests, parking, and load placement change at *daemon*
cadence (roughly once a second) while the chip ticks at millisecond
cadence, so the P-state validity check and the turbo-ceiling/AVX
resolution are cached behind a dirty flag and only re-run when one of
the chip's mutators (:meth:`set_requested_frequency`, :meth:`park`,
:meth:`assign_load`) actually changed something, or when a load finished
(which changes the active-core count and hence the turbo ceiling).
Mutating ``chip.cores[i]`` directly bypasses the flag — always go
through the chip's methods.
"""

from __future__ import annotations

from repro.errors import PlatformError, SimulationError
from repro.hw import msr as msrdef
from repro.hw.cstates import CStateModel
from repro.hw.msr import MSRDef, MSRFile
from repro.hw.platform import PlatformSpec
from repro.hw.rapl import (
    RaplController,
    RaplLimiter,
    RaplLimiterConfig,
    decode_pkg_power_limit,
    encode_pkg_power_limit,
)
from repro.hw.turbo import TurboModel
from repro.sim.core import Core, CoreLoad, IdleLoad, LoadSample
from repro.sim.power_model import core_power_watts, package_power_watts
from repro.units import DEFAULT_TICK_SECONDS
from repro.workloads.websearch import WebsearchCluster

#: Intel PERF_CTL encodes the target ratio in bits [15:8], in units of
#: the 100 MHz bus clock.
_INTEL_RATIO_SHIFT = 8
_INTEL_BUS_MHZ = 100.0
#: Our AMD register encoding: frequency in 25 MHz steps (the paper writes
#: frequency/voltage directly to Ryzen MSRs; section 2.1).
_AMD_STEP_MHZ = 25.0


class Chip:
    """A single simulated socket of the selected platform."""

    def __init__(
        self,
        platform: PlatformSpec,
        *,
        tick_s: float = DEFAULT_TICK_SECONDS,
        rapl_config: RaplLimiterConfig | None = None,
    ):
        if tick_s <= 0:
            raise SimulationError("tick must be positive")
        self.platform = platform
        self.tick_s = tick_s
        min_mhz = platform.min_frequency_mhz
        self.cores = [Core(i, min_mhz) for i in platform.core_ids()]
        self.msr = MSRFile(platform.n_cores)
        self.energy = RaplController(platform)
        self.turbo = TurboModel(platform)
        self.cstates = CStateModel(platform.n_cores)
        self.rapl: RaplLimiter | None = (
            RaplLimiter(platform, rapl_config)
            if platform.has_rapl_limit
            else None
        )
        self.clusters: list[WebsearchCluster] = []
        self.time_s = 0.0
        self.last_core_powers_w = [0.0] * platform.n_cores
        self.last_package_power_w = 0.0
        self._tsc_mhz = platform.max_nominal_frequency_mhz
        # cumulative per-core counters, kept as floats on the hot path
        # and published to the MSR file by flush_counters()
        n = platform.n_cores
        self._aperf_cycles = [0.0] * n
        self._mperf_cycles = [0.0] * n
        self._instr_total = [0.0] * n
        self._dirty = True
        #: bumped on every P-state view refresh; the array engine keys
        #: its cached frequency rows on it, so a refresh run by the fused
        #: loop (which consumes ``_dirty``) still invalidates them
        self._view_generation = 0
        #: bumped when a core's load or parked flag changes (never by a
        #: P-state request); the array engine keys its cached placement
        #: rows on it
        self._placement_generation = 0
        self._base_effective_mhz = [0.0] * n
        self._prev_sample_done = [False] * n
        self._register_msrs()

    # -- MSR surface ---------------------------------------------------------

    def _register_msrs(self) -> None:
        reg = self.msr.register
        if self.platform.vendor == "intel":
            reg(MSRDef(msrdef.IA32_PERF_CTL, "IA32_PERF_CTL", writable=True,
                       on_write=self._on_perf_ctl_write))
            reg(MSRDef(msrdef.IA32_PERF_STATUS, "IA32_PERF_STATUS"))
            reg(MSRDef(msrdef.MSR_PKG_ENERGY_STATUS, "MSR_PKG_ENERGY_STATUS",
                       package_scope=True))
            reg(MSRDef(msrdef.MSR_RAPL_POWER_UNIT, "MSR_RAPL_POWER_UNIT",
                       package_scope=True))
            reg(MSRDef(msrdef.MSR_PKG_POWER_LIMIT, "MSR_PKG_POWER_LIMIT",
                       writable=True, package_scope=True,
                       on_write=self._on_power_limit_write))
        else:
            reg(MSRDef(msrdef.MSR_AMD_PSTATE_CTL, "MSR_AMD_PSTATE_CTL",
                       writable=True, on_write=self._on_amd_pstate_write))
            reg(MSRDef(msrdef.MSR_AMD_PSTATE_STATUS, "MSR_AMD_PSTATE_STATUS"))
            reg(MSRDef(msrdef.MSR_AMD_PKG_ENERGY, "MSR_AMD_PKG_ENERGY",
                       package_scope=True))
            reg(MSRDef(msrdef.MSR_AMD_RAPL_POWER_UNIT,
                       "MSR_AMD_RAPL_POWER_UNIT", package_scope=True))
            reg(MSRDef(msrdef.MSR_AMD_CORE_ENERGY, "MSR_AMD_CORE_ENERGY"))
        reg(MSRDef(msrdef.IA32_APERF, "IA32_APERF"))
        reg(MSRDef(msrdef.IA32_MPERF, "IA32_MPERF"))
        reg(MSRDef(msrdef.IA32_FIXED_CTR0, "IA32_FIXED_CTR0"))

    def _on_perf_ctl_write(self, cpu: int, value: int) -> None:
        ratio = (value >> _INTEL_RATIO_SHIFT) & 0xFF
        self.set_requested_frequency(cpu, ratio * _INTEL_BUS_MHZ)

    def _on_amd_pstate_write(self, cpu: int, value: int) -> None:
        self.set_requested_frequency(cpu, value * _AMD_STEP_MHZ)

    def _on_power_limit_write(self, cpu: int, value: int) -> None:
        # Power limit encoded in 1/8 W units, 0 disables (simplified
        # PKG_POWER_LIMIT layout: enable bit 15, limit bits [14:0]).
        if self.rapl is None:
            raise PlatformError("no RAPL limiter on this platform")
        self.rapl.set_limit(decode_pkg_power_limit(value))

    # -- software-facing controls ---------------------------------------------

    def set_requested_frequency(self, core_id: int, frequency_mhz: float) -> None:
        """Program a core's P-state request (must be on the DVFS grid)."""
        self.platform.validate_core(core_id)
        pstate = self.platform.pstates.pstate_for_frequency(frequency_mhz)
        core = self.cores[core_id]
        # repro-lint: disable=float-equality — both sides are points of the same quantized P-state grid
        if core.requested_mhz != pstate.frequency_mhz:
            core.requested_mhz = pstate.frequency_mhz
            self._dirty = True

    def requested_frequency(self, core_id: int) -> float:
        self.platform.validate_core(core_id)
        return self.cores[core_id].requested_mhz

    def effective_frequency(self, core_id: int) -> float:
        self.platform.validate_core(core_id)
        return self.cores[core_id].effective_mhz

    def assign_load(self, core_id: int, load: CoreLoad) -> None:
        self.platform.validate_core(core_id)
        self.cores[core_id].assign(load)
        self._dirty = True
        self._placement_generation += 1

    def park(self, core_id: int, parked: bool = True) -> None:
        """Force a core into (or out of) deep idle (C6)."""
        self.platform.validate_core(core_id)
        core = self.cores[core_id]
        if core.parked != parked:
            core.parked = parked
            self._dirty = True
            self._placement_generation += 1

    def attach_cluster(self, cluster: WebsearchCluster) -> None:
        for core_id in cluster.core_ids:
            self.platform.validate_core(core_id)
        self.clusters.append(cluster)

    def set_rapl_limit(self, limit_w: float | None) -> None:
        """Convenience wrapper over the PKG_POWER_LIMIT MSR."""
        if self.rapl is None:
            raise PlatformError(
                f"{self.platform.name} has no RAPL power limiting"
            )
        self.msr.write(
            0, msrdef.MSR_PKG_POWER_LIMIT, encode_pkg_power_limit(limit_w)
        )

    # -- simulation ------------------------------------------------------------

    def active_core_count(self) -> int:
        return sum(1 for core in self.cores if core.active)

    def _check_simultaneous_pstates(self) -> None:
        limit = self.platform.simultaneous_pstates
        if limit >= self.platform.n_cores:
            return
        distinct = {
            core.requested_mhz for core in self.cores if core.active
        }
        if len(distinct) > limit:
            raise PlatformError(
                f"{self.platform.name} supports only {limit} simultaneous "
                f"P-states; {len(distinct)} distinct frequencies requested "
                f"({sorted(distinct)})"
            )

    def _refresh_pstate_view(self) -> None:
        """Re-run the P-state validity check and turbo/AVX resolution.

        The result — the pre-RAPL *base* effective frequency per core —
        only changes when a request, a parking decision, a load
        placement, or the active-core count changes, all of which mark
        the chip dirty; between those events every tick reuses the
        cached view (the RAPL cap moves every tick and is applied on
        top, uncached).
        """
        self._check_simultaneous_pstates()
        active_count = self.active_core_count()
        ceiling = self.turbo.ceiling_mhz(active_count)
        avx_cap = self.platform.avx_max_frequency_mhz
        base = self._base_effective_mhz
        for core in self.cores:
            if core.parked:
                base[core.core_id] = 0.0
                continue
            eff = min(core.requested_mhz, ceiling)
            if core.load.uses_avx:
                eff = min(eff, avx_cap)
            base[core.core_id] = eff
        self._dirty = False
        self._view_generation += 1

    def tick(self) -> None:
        """Advance the chip by one tick."""
        dt = self.tick_s
        if self._dirty:
            self._refresh_pstate_view()
        # 1. resolve effective frequencies (cached base + live RAPL cap)
        base = self._base_effective_mhz
        rapl = self.rapl
        for core in self.cores:
            if core.parked:
                core.effective_mhz = 0.0
                continue
            eff = base[core.core_id]
            if rapl is not None:
                eff = rapl.clip(eff)
            core.effective_mhz = max(eff, 0.0)
        # 2. advance clusters with a consistent view of serving cores
        if self.clusters:
            freq_view = {
                core.core_id: core.effective_mhz
                for core in self.cores
                if not core.parked
            }
            for cluster in self.clusters:
                cluster.advance(dt, freq_view)
        # 3. advance loads, compute power, accumulate counters
        core_powers: list[float] = []
        aperf = self._aperf_cycles
        mperf = self._mperf_cycles
        instr = self._instr_total
        prev_done = self._prev_sample_done
        tsc_mhz = self._tsc_mhz
        for core in self.cores:
            cpu = core.core_id
            if core.parked:
                sample = IdleLoad().advance(dt, 0.0, self.time_s)
                efficiency = self.cstates.observe(cpu, dt, 0.0, True)
            else:
                sample = core.load.advance(dt, core.effective_mhz, self.time_s)
                efficiency = self.cstates.observe(
                    cpu, dt, sample.busy_fraction, False
                )
                if efficiency < 1.0 and sample.instructions > 0:
                    sample = _scale_sample(sample, efficiency)
            active = not core.parked and sample.busy_fraction > 0.0
            power = core_power_watts(
                self.platform,
                core.effective_mhz if active else 0.0,
                sample.c_eff,
                sample.busy_fraction,
                active=active,
            )
            core.record(sample, power, dt)
            core_powers.append(power)
            # free-running counters (published lazily by flush_counters)
            busy = sample.busy_fraction
            if busy > 0.0:
                aperf[cpu] += core.effective_mhz * 1e6 * dt * busy
                mperf[cpu] += tsc_mhz * 1e6 * dt * busy
                instr[cpu] += sample.instructions
            if sample.done != prev_done[cpu]:
                # a load finishing (or restarting) changes the active
                # count and hence the turbo ceiling next tick
                prev_done[cpu] = sample.done
                self._dirty = True
        pkg_power = package_power_watts(self.platform, core_powers)
        self.last_core_powers_w = core_powers
        self.last_package_power_w = pkg_power
        # 4. energy accounting + limiter feedback
        self.energy.accumulate(core_powers, pkg_power, dt)
        if rapl is not None:
            rapl.observe(pkg_power, dt)
        self.time_s += dt

    def flush_counters(self) -> None:
        """Publish accumulated counters into the MSR file.

        Hardware counters tick continuously; our accumulators do too, as
        floats.  The MSR-visible integer values are latched here — the
        engine flushes before every periodic software callback, and any
        direct MSR consumer (tests, ad-hoc telemetry) should flush first.
        """
        intel = self.platform.vendor == "intel"
        if intel:
            self.msr.poke(
                0, msrdef.MSR_PKG_ENERGY_STATUS, self.energy.package_energy_uj
            )
        else:
            self.msr.poke(
                0, msrdef.MSR_AMD_PKG_ENERGY, self.energy.package_energy_uj
            )
        for core in self.cores:
            cpu = core.core_id
            self.msr.poke(cpu, msrdef.IA32_APERF, int(self._aperf_cycles[cpu]))
            self.msr.poke(cpu, msrdef.IA32_MPERF, int(self._mperf_cycles[cpu]))
            self.msr.poke(
                cpu, msrdef.IA32_FIXED_CTR0, int(self._instr_total[cpu])
            )
            if intel:
                ratio = int(core.effective_mhz // _INTEL_BUS_MHZ)
                self.msr.poke(
                    cpu, msrdef.IA32_PERF_STATUS, ratio << _INTEL_RATIO_SHIFT
                )
            else:
                self.msr.poke(
                    cpu, msrdef.MSR_AMD_PSTATE_STATUS,
                    int(core.effective_mhz // _AMD_STEP_MHZ),
                )
                self.msr.poke(
                    cpu, msrdef.MSR_AMD_CORE_ENERGY,
                    self.energy.core_energy_uj(cpu),
                )

    def advance_ticks(self, n: int) -> None:
        """Advance ``n`` ticks back-to-back *without* flushing counters.

        This is the engine's batched fast path: one call covers the
        whole gap to the next software deadline instead of one Python
        dispatch round per tick.
        """
        if n < 0:
            raise SimulationError("cannot run negative ticks")
        tick = self.tick
        for _ in range(n):
            tick()

    def run_ticks(self, n: int) -> None:
        """Advance ``n`` ticks and flush counters (helper for tests;
        experiments use :class:`repro.sim.engine.SimEngine`)."""
        self.advance_ticks(n)
        self.flush_counters()


def _scale_sample(sample: LoadSample, efficiency: float) -> LoadSample:
    """Discount a load sample's work by a C-state wake-up efficiency."""
    return LoadSample(
        instructions=sample.instructions * efficiency,
        busy_fraction=sample.busy_fraction,
        c_eff=sample.c_eff,
        done=sample.done,
    )
