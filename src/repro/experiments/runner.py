"""Shared experiment machinery.

:func:`run_steady` is the workhorse: build a stack from an
:class:`~repro.config.ExperimentConfig`, run it for a warm-up plus a
measurement window, and aggregate the daemon's history into per-app
means — the quantities the paper's figures plot (average power, active
frequency, normalized performance over the run).

Normalization baselines follow the paper's methodology: an application's
reference performance is its standalone run at the platform's maximum
frequency under the default (85 W / TDP) limit, which for a single
pinned core means the top turbo bin clipped by the AVX cap — computed in
closed form by :func:`repro.sim.perf_model.max_standalone_ips`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.config import ExperimentConfig, ExperimentStack, build_stack
from repro.errors import ConfigError
from repro.hw.platform import PlatformSpec, get_platform
from repro.sim.perf_model import max_standalone_ips
from repro.workloads.spec import spec_app

#: default simulator tick for batch (non-latency) experiments; coarse
#: ticks are safe because batch loads only change at daemon cadence.
BATCH_TICK_S = 5e-3


@dataclass(frozen=True)
class SteadyAppResult:
    """Aggregated behaviour of one app over the measurement window."""

    label: str
    mean_frequency_mhz: float
    mean_ips: float
    mean_power_w: float | None
    normalized_performance: float
    parked_fraction: float


@dataclass(frozen=True)
class SteadyRunResult:
    """One steady-state experiment run."""

    config: ExperimentConfig
    mean_package_power_w: float
    apps: tuple[SteadyAppResult, ...]

    def app(self, label: str) -> SteadyAppResult:
        for result in self.apps:
            if result.label == label:
                return result
        raise ConfigError(f"no app {label!r} in result")

    def by_benchmark(self, benchmark: str) -> list[SteadyAppResult]:
        """All instances of one benchmark (label prefix match)."""
        return [r for r in self.apps if r.label.split("#")[0] == benchmark]

    def mean_over(self, labels: list[str], field: str) -> float:
        values = [getattr(self.app(label), field) for label in labels]
        values = [v for v in values if v is not None]
        if not values:
            raise ConfigError("no values to average")
        return sum(values) / len(values)


#: bounded memo: 2 registry platforms x ~11 benchmarks today, with slack
#: for growth — an explicit cap so the cache can never grow without
#: bound if platform registration ever becomes dynamic.
_STANDALONE_CACHE_SIZE = 256


@lru_cache(maxsize=_STANDALONE_CACHE_SIZE)
def _standalone_reference_ips(platform_name: str, benchmark: str) -> float:
    return max_standalone_ips(get_platform(platform_name), spec_app(benchmark))


def clear_standalone_reference_cache() -> None:
    """Drop the (platform, benchmark) baseline memo.

    Test hook, for a suite that must start from an empty memo.  The
    memo is keyed on the registry name, and every lookup of a registry
    platform returns one shared spec; a custom spec that reuses a
    registry name with other tables is not equal to it and bypasses
    the memo (:func:`standalone_reference_ips`).
    """
    _standalone_reference_ips.cache_clear()


def standalone_reference_ips(platform: PlatformSpec, benchmark: str) -> float:
    """Offline standalone-at-85W performance baseline (paper section 6).

    The baseline is a pure function of (platform, benchmark) and is hit
    once per app label per run, so it is memoized on the platform *name*
    for the registry platforms.  Custom (non-registry) specs bypass the
    cache.
    """
    try:
        registered = get_platform(platform.name)
    except ConfigError:
        registered = None
    if registered is platform or registered == platform:
        return _standalone_reference_ips(platform.name, benchmark)
    return max_standalone_ips(platform, spec_app(benchmark))


def run_steady(
    config: ExperimentConfig,
    *,
    duration_s: float = 60.0,
    warmup_s: float = 20.0,
    stack: ExperimentStack | None = None,
) -> SteadyRunResult:
    """Run a config to steady state and aggregate the measurement window."""
    if warmup_s >= duration_s:
        raise ConfigError("warm-up must be shorter than the run")
    if stack is None:
        stack = build_stack(config)
    stack.engine.run(duration_s)
    window = [
        sample
        for sample in stack.daemon.history
        if sample.time_s >= warmup_s
    ]
    if not window:
        raise ConfigError("no daemon samples in the measurement window")
    n = len(window)
    mean_pkg = sum(s.package_power_w for s in window) / n
    apps = []
    for label in stack.labels:
        benchmark = label.split("#")[0]
        baseline = standalone_reference_ips(stack.platform, benchmark)
        freqs = [s.app_frequency_mhz[label] for s in window]
        ips = [s.app_ips[label] for s in window]
        powers = [s.app_power_w[label] for s in window]
        parked = [s.app_parked[label] for s in window]
        mean_power = None
        if all(p is not None for p in powers):
            mean_power = sum(powers) / n  # type: ignore[arg-type]
        mean_ips = sum(ips) / n
        apps.append(
            SteadyAppResult(
                label=label,
                mean_frequency_mhz=sum(freqs) / n,
                mean_ips=mean_ips,
                mean_power_w=mean_power,
                normalized_performance=mean_ips / baseline,
                parked_fraction=sum(parked) / n,
            )
        )
    return SteadyRunResult(
        config=config,
        mean_package_power_w=mean_pkg,
        apps=tuple(apps),
    )
