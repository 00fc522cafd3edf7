"""Seeded random-mix sweeps beyond the paper's two sets.

The paper drew its Table 3 sets once (from numbergenerator.org) "for
more generalizable results".  With a simulator we can afford many draws:
:func:`run_random_sweep` repeats the Fig 11 methodology over ``n_seeds``
random 5-benchmark subsets and checks, per mix, that the share ordering
is realised in the frequency ordering — a generalisation statistic no
single hand-picked mix can give.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import AppSpec, ExperimentConfig
from repro.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import ExperimentTask, run_tasks
from repro.experiments.runner import BATCH_TICK_S
from repro.workloads.generator import RandomMixGenerator

#: same ascending share levels as Fig 11.
SHARE_LEVELS: tuple[float, ...] = (20.0, 40.0, 60.0, 80.0, 100.0)


@dataclass(frozen=True)
class SweepMixResult:
    seed: int
    benchmarks: tuple[str, ...]
    #: mean granted frequency per share level, ascending share order.
    freq_by_level_mhz: tuple[float, ...]
    package_power_w: float

    def ordering_violations(self, tolerance_mhz: float = 60.0) -> int:
        """Adjacent share levels whose frequency ordering is inverted by
        more than the tolerance.

        Quantisation/floor ties are excused by the tolerance; pairs
        whose higher-share app is AVX-capped are excused entirely — an
        AVX app holding big shares saturates at its frequency cap and
        the surplus legitimately flows to lower-share apps (the paper's
        Fig 11 set B shows exactly this)."""
        from repro.workloads.spec import spec_app

        violations = 0
        for index, (lower, higher) in enumerate(zip(
            self.freq_by_level_mhz, self.freq_by_level_mhz[1:]
        )):
            if spec_app(self.benchmarks[index + 1]).uses_avx:
                continue
            if higher < lower - tolerance_mhz:
                violations += 1
        return violations


@dataclass(frozen=True)
class RandomSweepResult:
    policy: str
    limit_w: float
    mixes: tuple[SweepMixResult, ...]

    def total_ordering_violations(self) -> int:
        return sum(m.ordering_violations() for m in self.mixes)

    def to_rows(self) -> list[dict]:
        rows = []
        for mix in self.mixes:
            row: dict = {"seed": mix.seed, "pkg_w": mix.package_power_w}
            for level, freq in zip(SHARE_LEVELS, mix.freq_by_level_mhz):
                row[f"s{level:.0f}_mhz"] = freq
            row["violations"] = mix.ordering_violations()
            rows.append(row)
        return rows


def run_random_sweep(
    *,
    policy: str = "frequency-shares",
    limit_w: float = 45.0,
    n_seeds: int = 5,
    duration_s: float = 40.0,
    warmup_s: float = 18.0,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> RandomSweepResult:
    """Fig 11 methodology over ``n_seeds`` random benchmark subsets."""
    if n_seeds <= 0:
        raise ConfigError("need at least one seed")
    seeds_names: list[tuple[int, list[str], list[AppSpec]]] = []
    tasks: list[ExperimentTask] = []
    for seed in range(n_seeds):
        names = RandomMixGenerator(seed=seed).sample_names(5)
        specs: list[AppSpec] = []
        for index, name in enumerate(names):
            specs.extend(
                [AppSpec(name, shares=SHARE_LEVELS[index])] * 2
            )
        config = ExperimentConfig(
            platform="skylake", policy=policy, limit_w=limit_w,
            apps=tuple(specs), tick_s=BATCH_TICK_S,
        )
        seeds_names.append((seed, names, specs))
        tasks.append(ExperimentTask(config, duration_s, warmup_s))
    results = run_tasks(tasks, jobs=jobs, cache=cache)
    mixes: list[SweepMixResult] = []
    for result, (seed, names, specs) in zip(results, seeds_names):
        freqs = []
        for index, name in enumerate(names):
            instances = [
                r for r, spec in zip(result.apps, specs)
                if spec.benchmark == name
                # repro-lint: disable=float-equality — both sides are the same SHARE_LEVELS literal
                and spec.shares == SHARE_LEVELS[index]
            ]
            freqs.append(
                sum(r.mean_frequency_mhz for r in instances)
                / len(instances)
            )
        mixes.append(
            SweepMixResult(
                seed=seed,
                benchmarks=tuple(names),
                freq_by_level_mhz=tuple(freqs),
                package_power_w=result.mean_package_power_w,
            )
        )
    return RandomSweepResult(
        policy=policy, limit_w=limit_w, mixes=tuple(mixes)
    )
