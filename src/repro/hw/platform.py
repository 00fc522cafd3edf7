"""Platform descriptors for the two CPUs evaluated in the paper (Table 1).

Each :class:`PlatformSpec` captures everything the substrate and the
policies need to know about a chip:

* the DVFS grid (frequency range, step, turbo points, voltage curve),
* feature flags (per-core DVFS, RAPL limiting, per-core energy counters,
  simultaneous-P-state limit),
* AVX frequency offsets (AVX-heavy code caps the clock — paper Figs 1/2),
* power-model constants (leakage, uncore, capacitance scale, TDP).

The numbers are calibrated so the *shapes* in the paper's figures
reproduce: frequency dynamic range ~3-4x, core power range ~12-14x,
performance range ~4x (paper section 5.2), a ~5 W package-power jump when
turbo engages, and RAPL capping between 20 W and 85 W on Skylake.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, PlatformError
from repro.hw.pstate import PStateTable
from repro.units import ghz


@dataclass(frozen=True)
class PowerModelParams:
    """Constants for the analytic core/package power model.

    ``P_core = c_eff_scale * app_c_eff * V^2 * f_ghz * activity
    + leak_coeff * V`` and the package adds ``uncore_watts`` plus DRAM-ish
    base load.  ``c_eff_scale`` is tuned per platform so a mid-demand SPEC
    app at nominal max lands near the per-core powers the paper reports.
    """

    c_eff_scale: float
    leak_coeff_w_per_v: float
    uncore_watts: float
    idle_core_watts: float
    tdp_watts: float


@dataclass(frozen=True)
class PlatformSpec:
    """Static description of one evaluation platform (paper Table 1)."""

    name: str
    vendor: str
    n_cores: int
    n_threads: int
    dram_gb: int
    pstates: PStateTable
    step_mhz: float
    #: Number of distinct P-states usable simultaneously across cores.
    #: Ryzen 1700X supports only 3 (paper sections 2.1 and 5); use
    #: ``n_cores`` when unconstrained.
    simultaneous_pstates: int
    has_per_core_dvfs: bool
    has_rapl_limit: bool
    #: Per-core energy counters: present on Ryzen, absent on Skylake
    #: (which is why power shares only run on Ryzen — paper section 5.2).
    has_per_core_energy: bool
    rapl_limit_range_w: tuple[float, float]
    #: Frequency cap applied to cores executing AVX-heavy code, in MHz.
    #: The paper reports cam4 capped at ~1667 MHz vs 2360 MHz for gcc.
    avx_max_frequency_mhz: float
    #: Stepped turbo grant table: ``(max_active_cores, ceiling_mhz)``
    #: pairs sorted by active-core count.  The ceiling for an active-core
    #: count is the first entry whose key is >= that count; counts beyond
    #: the last entry fall back to nominal max.  A final entry with
    #: ``max_active_cores == n_cores`` models an *all-core turbo* bin
    #: (the Xeon 4114 sustains 2.5 GHz on all ten cores, which Fig 4 of
    #: the paper relies on).
    turbo_bins: tuple[tuple[int, float], ...]
    power: PowerModelParams
    #: Reference frequency the paper normalizes performance to
    #: (3.0 GHz Ryzen, 2.2 GHz Skylake — section 3.2).
    reference_frequency_mhz: float = 0.0
    #: Lowest frequency the paper's daemon ever programs.  On Ryzen the
    #: authors' three-P-state remapping makes P2 cover 0.8-2.1 GHz
    #: (section 3.1), so policies never request below 800 MHz even
    #: though the silicon grid reaches 400 MHz.  Equal to the hardware
    #: minimum where the paper imposes no extra floor.
    policy_floor_mhz: float = 0.0

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ConfigError("platform must have at least one core")
        if self.simultaneous_pstates <= 0:
            raise ConfigError("simultaneous_pstates must be positive")
        lo, hi = self.rapl_limit_range_w
        if self.has_rapl_limit and not 0 < lo < hi:
            raise ConfigError(f"bad RAPL limit range [{lo}, {hi}]")
        # repro-lint: disable=float-equality — 0.0 is the unset-default sentinel
        if self.policy_floor_mhz == 0.0:
            object.__setattr__(
                self, "policy_floor_mhz", self.pstates.min_frequency_mhz
            )
        if self.policy_floor_mhz < self.pstates.min_frequency_mhz:
            raise ConfigError("policy floor below the hardware minimum")
        last = 0
        for max_active, ceiling in self.turbo_bins:
            if max_active <= last:
                raise ConfigError("turbo_bins must be sorted by active count")
            if ceiling < self.pstates.max_nominal_frequency_mhz:
                raise ConfigError("turbo ceiling below nominal max")
            last = max_active

    @property
    def min_frequency_mhz(self) -> float:
        return self.pstates.min_frequency_mhz

    @property
    def max_frequency_mhz(self) -> float:
        """Max frequency including opportunistic (turbo/XFR) points."""
        return self.pstates.max_frequency_mhz

    @property
    def max_nominal_frequency_mhz(self) -> float:
        return self.pstates.max_nominal_frequency_mhz

    def core_ids(self) -> range:
        return range(self.n_cores)

    def validate_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.n_cores:
            raise PlatformError(
                f"core {core_id} out of range on {self.name} "
                f"({self.n_cores} cores)"
            )

    def effective_max_frequency_mhz(self, uses_avx: bool) -> float:
        """Fastest clock an app can sustain given its instruction mix."""
        limit = self.max_frequency_mhz
        if uses_avx:
            limit = min(limit, self.avx_max_frequency_mhz)
        return limit


def skylake_xeon_4114() -> PlatformSpec:
    """Intel Xeon SP 4114 (Skylake) as characterised in paper Table 1.

    0.8-2.2 GHz nominal plus 3.0 GHz TurboBoost, 100 MHz steps, per-core
    DVFS, RAPL capping 20-85 W, package-level power telemetry only.
    """
    table = PStateTable.from_range(
        min_mhz=ghz(0.8),
        max_mhz=ghz(2.2),
        step_mhz=100.0,
        voltage_min_v=0.70,
        voltage_max_v=1.00,
        turbo_mhz=(ghz(2.3), ghz(2.4), ghz(2.5), ghz(2.6),
                   ghz(2.8), ghz(3.0)),
        turbo_voltage_v=1.12,
    )
    return PlatformSpec(
        name="skylake-xeon-4114",
        vendor="intel",
        n_cores=10,
        n_threads=20,
        dram_gb=192,
        pstates=table,
        step_mhz=100.0,
        simultaneous_pstates=10,
        has_per_core_dvfs=True,
        has_rapl_limit=True,
        has_per_core_energy=False,
        rapl_limit_range_w=(20.0, 85.0),
        avx_max_frequency_mhz=1700.0,
        turbo_bins=((1, ghz(3.0)), (2, ghz(3.0)), (3, ghz(2.8)),
                    (4, ghz(2.6)), (10, ghz(2.5))),
        power=PowerModelParams(
            c_eff_scale=2.9,
            leak_coeff_w_per_v=0.4,
            uncore_watts=7.0,
            idle_core_watts=0.12,
            tdp_watts=85.0,
        ),
        reference_frequency_mhz=ghz(2.2),
    )


def ryzen_1700x() -> PlatformSpec:
    """AMD Ryzen 1700X as characterised in paper Table 1.

    0.4-3.4 GHz plus 3.8 GHz XFR, 25 MHz steps, per-core DVFS but only 3
    simultaneous P-states, per-core energy counters, no documented RAPL
    limiting.
    """
    table = PStateTable.from_range(
        min_mhz=ghz(0.4),
        max_mhz=ghz(3.4),
        step_mhz=25.0,
        voltage_min_v=0.65,
        voltage_max_v=1.18,
        turbo_mhz=(ghz(3.5), ghz(3.8)),
        turbo_voltage_v=1.24,
    )
    return PlatformSpec(
        name="ryzen-1700x",
        vendor="amd",
        n_cores=8,
        n_threads=16,
        dram_gb=16,
        pstates=table,
        step_mhz=25.0,
        simultaneous_pstates=3,
        has_per_core_dvfs=True,
        has_rapl_limit=False,
        has_per_core_energy=True,
        rapl_limit_range_w=(0.0, 0.0),
        avx_max_frequency_mhz=ghz(3.0),
        turbo_bins=((2, ghz(3.8)), (8, ghz(3.5))),
        power=PowerModelParams(
            c_eff_scale=1.55,
            leak_coeff_w_per_v=0.4,
            uncore_watts=9.0,
            idle_core_watts=0.10,
            tdp_watts=95.0,
        ),
        reference_frequency_mhz=ghz(3.0),
        policy_floor_mhz=ghz(0.8),
    )


PLATFORM_REGISTRY = {
    "skylake": skylake_xeon_4114,
    "skylake-xeon-4114": skylake_xeon_4114,
    "ryzen": ryzen_1700x,
    "ryzen-1700x": ryzen_1700x,
}


#: the spec each registry factory built: specs are frozen, so every
#: lookup of one platform shares one (a fleet boots hundreds of nodes)
_SPECS: dict[object, PlatformSpec] = {}


def get_platform(name: str) -> PlatformSpec:
    """Look up a platform by short or full name; every lookup of one
    platform returns the same frozen spec."""
    try:
        factory = PLATFORM_REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(PLATFORM_REGISTRY))
        raise ConfigError(f"unknown platform {name!r}; known: {known}") from None
    spec = _SPECS.get(factory)
    if spec is None:
        # repro-lint: disable=shared-state-race — pure memo of a frozen spec; every process builds identical specs, nothing reads across processes
        spec = _SPECS[factory] = factory()
    return spec
