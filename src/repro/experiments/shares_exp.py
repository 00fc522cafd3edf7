"""Proportional-share experiments (paper Figs 9 and 10, section 6.2).

Half the cores run *leela* (LD) at one share level, half run
*cactusBSSN* (HD) at another.  Skylake evaluates frequency and
performance shares (no per-core power telemetry → no power shares);
Ryzen evaluates all three.  Results are visualised the way Fig 10 does:
the **percentage of the total resource** (frequency, performance, power)
each application class consumed.

Shapes to reproduce:

* low dynamic range: at 90/10 the low-share app still gets more than 10%
  of frequency/power (the 800/400 MHz floor binds),
* frequency shares ≈ performance shares (the paper's headline),
* power shares isolate performance worst: equal power to unequal-demand
  apps yields unequal frequency and performance,
* shares are accurate in the 30/70–70/30 range, inaccurate beyond.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import AppSpec, ExperimentConfig
from repro.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import ExperimentTask, run_tasks
from repro.experiments.runner import BATCH_TICK_S, SteadyRunResult

#: share ratios from the paper's figures: (LD shares, HD shares).
DEFAULT_RATIOS: tuple[tuple[float, float], ...] = (
    (90, 10), (70, 30), (50, 50), (30, 70), (10, 90),
)


@dataclass(frozen=True)
class ShareCell:
    """One (policy, limit, ratio) cell."""

    policy: str
    limit_w: float
    ld_shares: float
    hd_shares: float
    #: fraction of the summed resource used by the LD (leela) class.
    ld_frequency_fraction: float
    ld_performance_fraction: float
    ld_power_fraction: float | None
    ld_norm_perf: float
    hd_norm_perf: float
    package_power_w: float


@dataclass(frozen=True)
class ShareResult:
    platform: str
    cells: tuple[ShareCell, ...]

    def cell(
        self, policy: str, limit_w: float, ld_shares: float
    ) -> ShareCell:
        for cell in self.cells:
            if (
                cell.policy == policy
                and abs(cell.limit_w - limit_w) < 1e-6
                and abs(cell.ld_shares - ld_shares) < 1e-6
            ):
                return cell
        raise ConfigError(f"no cell ({policy}, {limit_w}, {ld_shares})")

    def to_rows(self) -> list[dict]:
        return [
            {
                "policy": c.policy,
                "limit_w": c.limit_w,
                "ratio": f"{c.ld_shares:.0f}/{c.hd_shares:.0f}",
                "ld_freq_pct": 100 * c.ld_frequency_fraction,
                "ld_perf_pct": 100 * c.ld_performance_fraction,
                "ld_power_pct": (
                    100 * c.ld_power_fraction
                    if c.ld_power_fraction is not None
                    else None
                ),
                "ld_perf": c.ld_norm_perf,
                "hd_perf": c.hd_norm_perf,
                "pkg_w": c.package_power_w,
            }
            for c in self.cells
        ]


def _share_specs(
    platform: str, ld_shares: float, hd_shares: float
) -> tuple[AppSpec, ...]:
    n = 10 if platform == "skylake" else 8
    half = n // 2
    return tuple(
        [AppSpec("leela", shares=ld_shares)] * half
        + [AppSpec("cactusBSSN", shares=hd_shares)] * half
    )


def _cell_from_run(
    result: SteadyRunResult,
    policy: str,
    limit_w: float,
    ld_shares: float,
    hd_shares: float,
) -> ShareCell:
    ld = result.by_benchmark("leela")
    hd = result.by_benchmark("cactusBSSN")
    if not ld or not hd:
        raise ConfigError("missing app class in result")

    def fraction(getter) -> float | None:
        ld_total = sum(getter(r) or 0.0 for r in ld)
        hd_total = sum(getter(r) or 0.0 for r in hd)
        total = ld_total + hd_total
        if total <= 0:
            return None
        return ld_total / total

    freq_frac = fraction(lambda r: r.mean_frequency_mhz)
    perf_frac = fraction(lambda r: r.normalized_performance)
    power_frac = (
        fraction(lambda r: r.mean_power_w)
        if all(r.mean_power_w is not None for r in ld + hd)
        else None
    )
    assert freq_frac is not None and perf_frac is not None
    return ShareCell(
        policy=policy,
        limit_w=limit_w,
        ld_shares=ld_shares,
        hd_shares=hd_shares,
        ld_frequency_fraction=freq_frac,
        ld_performance_fraction=perf_frac,
        ld_power_fraction=power_frac,
        ld_norm_perf=sum(r.normalized_performance for r in ld) / len(ld),
        hd_norm_perf=sum(r.normalized_performance for r in hd) / len(hd),
        package_power_w=result.mean_package_power_w,
    )


def run_shares_experiment(
    platform: str,
    *,
    policies: tuple[str, ...] | None = None,
    limits_w: tuple[float, ...] = (50.0, 40.0),
    ratios: tuple[tuple[float, float], ...] = DEFAULT_RATIOS,
    duration_s: float = 60.0,
    warmup_s: float = 25.0,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> ShareResult:
    """Fig 9 (skylake) / Fig 10 (ryzen) proportional-share sweep."""
    if policies is None:
        policies = (
            ("frequency-shares", "performance-shares", "power-shares")
            if platform == "ryzen"
            else ("frequency-shares", "performance-shares")
        )
    keys: list[tuple[str, float, float, float]] = []
    tasks: list[ExperimentTask] = []
    for policy in policies:
        for limit in limits_w:
            for ld_shares, hd_shares in ratios:
                config = ExperimentConfig(
                    platform=platform,
                    policy=policy,
                    limit_w=limit,
                    apps=_share_specs(platform, ld_shares, hd_shares),
                    tick_s=BATCH_TICK_S,
                )
                keys.append((policy, limit, ld_shares, hd_shares))
                tasks.append(ExperimentTask(config, duration_s, warmup_s))
    results = run_tasks(tasks, jobs=jobs, cache=cache)
    cells = [
        _cell_from_run(result, policy, limit, ld_shares, hd_shares)
        for result, (policy, limit, ld_shares, hd_shares)
        in zip(results, keys)
    ]
    return ShareResult(platform=platform, cells=tuple(cells))


def run_fig9_shares_skylake(**kwargs) -> ShareResult:
    """Skylake frequency + performance shares (Fig 9)."""
    return run_shares_experiment("skylake", **kwargs)


def run_fig10_shares_ryzen(**kwargs) -> ShareResult:
    """Ryzen frequency + performance + power shares (Fig 10)."""
    return run_shares_experiment("ryzen", **kwargs)
