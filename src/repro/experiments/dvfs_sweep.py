"""DVFS characterisation sweep (paper Figs 2 and 3, section 3.2).

For each SPEC benchmark, pin one instance to an isolated core, set every
core to the same P-state, and record normalized runtime and average
package power across the platform's frequency range.  The paper's
observations this sweep must reproduce:

* wide spread across benchmarks (frequency sensitivity differs),
* AVX apps (lbm, imagick, cam4) are power outliers whose performance
  saturates early — their clock is capped well below the sweep point,
* a package-power jump of roughly 5 W when the sweep enters the
  turbo/XFR bins (the higher-voltage opportunistic states),
* performance normalized to 2.2 GHz (Skylake) / 3.0 GHz (Ryzen).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hw.platform import PlatformSpec, get_platform
from repro.sim.chip import Chip
from repro.sim.core import BatchCoreLoad
from repro.sim.engine import SimEngine
from repro.units import percentile
from repro.workloads.app import RunningApp
from repro.workloads.spec import spec_app, spec_names


@dataclass(frozen=True)
class DvfsPoint:
    """One (benchmark, frequency) measurement."""

    benchmark: str
    set_frequency_mhz: float
    effective_frequency_mhz: float
    normalized_runtime: float
    package_power_w: float


@dataclass(frozen=True)
class DvfsSweepResult:
    platform: str
    reference_mhz: float
    points: tuple[DvfsPoint, ...]

    def series(self, benchmark: str) -> list[DvfsPoint]:
        return [p for p in self.points if p.benchmark == benchmark]

    def at_frequency(self, set_frequency_mhz: float) -> list[DvfsPoint]:
        return [
            p for p in self.points
            if abs(p.set_frequency_mhz - set_frequency_mhz) < 1e-6
        ]

    def power_boxplot(self, set_frequency_mhz: float) -> dict[str, float]:
        """Across-benchmark five-number power summary at one frequency
        (what the paper's box plots show)."""
        powers = [p.package_power_w for p in self.at_frequency(set_frequency_mhz)]
        if not powers:
            raise ConfigError(f"no points at {set_frequency_mhz} MHz")
        return {
            "p1": percentile(powers, 1.0),
            "q1": percentile(powers, 25.0),
            "median": percentile(powers, 50.0),
            "q3": percentile(powers, 75.0),
            "p99": percentile(powers, 99.0),
        }


def default_sweep_frequencies(platform: PlatformSpec) -> list[float]:
    """A representative subset of the grid (the paper sweeps ~8 levels)."""
    if platform.vendor == "intel":
        return [800, 1100, 1400, 1700, 2000, 2200, 2600, 3000]
    return [400, 900, 1400, 1900, 2400, 3000, 3400, 3500, 3800]


def _measure_point(
    platform: PlatformSpec,
    benchmark: str,
    frequency_mhz: float,
    *,
    duration_s: float,
    tick_s: float,
) -> tuple[DvfsPoint, float]:
    chip = Chip(platform, tick_s=tick_s)
    engine = SimEngine(chip)
    app = RunningApp(spec_app(benchmark, steady=True))
    chip.assign_load(0, BatchCoreLoad(app, platform.reference_frequency_mhz))
    for core_id in platform.core_ids():
        chip.set_requested_frequency(core_id, frequency_mhz)
    engine.run(duration_s)
    core = chip.cores[0]
    mean_power = chip.energy.package_energy_joules / chip.time_s
    mean_ips = core.total_instructions / chip.time_s
    return DvfsPoint(
        benchmark=benchmark,
        set_frequency_mhz=frequency_mhz,
        effective_frequency_mhz=core.effective_mhz,
        normalized_runtime=0.0,  # filled by caller (needs the reference)
        package_power_w=mean_power,
    ), mean_ips


def run_dvfs_sweep(
    platform_name: str,
    *,
    benchmarks: tuple[str, ...] | None = None,
    frequencies_mhz: list[float] | None = None,
    duration_s: float = 10.0,
    tick_s: float = 10e-3,
) -> DvfsSweepResult:
    """Sweep all benchmarks over the frequency grid (Fig 2 / Fig 3)."""
    platform = get_platform(platform_name)
    if benchmarks is None:
        benchmarks = spec_names()
    if frequencies_mhz is None:
        frequencies_mhz = default_sweep_frequencies(platform)
    reference = platform.reference_frequency_mhz
    if reference not in frequencies_mhz:
        frequencies_mhz = sorted(set(frequencies_mhz) | {reference})
    points: list[DvfsPoint] = []
    for benchmark in benchmarks:
        raw: dict[float, tuple[DvfsPoint, float]] = {}
        for freq in frequencies_mhz:
            point, ips = _measure_point(
                platform, benchmark, freq,
                duration_s=duration_s, tick_s=tick_s,
            )
            raw[freq] = (point, ips)
        _, reference_ips = raw[reference]
        for freq in frequencies_mhz:
            point, ips = raw[freq]
            points.append(
                DvfsPoint(
                    benchmark=point.benchmark,
                    set_frequency_mhz=point.set_frequency_mhz,
                    effective_frequency_mhz=point.effective_frequency_mhz,
                    # runtime is work/rate: normalized runtime is the
                    # inverse of the IPS speedup over the reference
                    normalized_runtime=reference_ips / ips,
                    package_power_w=point.package_power_w,
                )
            )
    return DvfsSweepResult(
        platform=platform.name,
        reference_mhz=reference,
        points=tuple(points),
    )
