"""One-shot reproduction report: every table and figure, rendered.

``repro-power report`` (or :func:`generate_report`) runs the entire
evaluation — quickly or at full length — and renders one ASCII document
mirroring the paper's evaluation section, suitable for diffing across
code changes.
"""

from __future__ import annotations

import io
import time

from repro.errors import ReproError
from repro.experiments.cache import ResultCache
from repro.experiments.report import render_kv, render_table
from repro.experiments import tables as tables_mod


def generate_report(
    *,
    quick: bool = True,
    stream=None,
    jobs: int | None = None,
    use_cache: bool = True,
) -> str:
    """Run all experiments and render the combined report.

    ``quick=True`` shortens every run (noisier but minutes, not tens of
    minutes).  ``jobs`` fans each experiment's independent steady-state
    runs across that many worker processes (the cluster section steps
    its nodes in this process); ``use_cache`` round-trips them through
    the on-disk result cache so a re-run skips completed configs
    (hit/miss counts land in the footer).  Returns the report text;
    also writes progressively to ``stream`` if given.
    """
    out = io.StringIO()
    cache = ResultCache.from_env(enabled=use_cache)

    def emit(text: str = "") -> None:
        out.write(text + "\n")
        if stream is not None:
            stream.write(text + "\n")
            stream.flush()

    durations = (
        dict(duration_s=30.0, warmup_s=12.0) if quick else {}
    )
    batch = dict(durations, jobs=jobs, cache=cache)
    # wall-clock timing feeds only the cosmetic report footer; it never
    # reaches a result or a cache key
    # repro-lint: disable=determinism — cosmetic wall-clock report footer
    started = time.time()
    emit("# Per-Application Power Delivery — reproduction report")
    emit(f"mode: {'quick' if quick else 'full'}")
    emit()

    emit("## Table 1 — platform features")
    for platform in ("skylake", "ryzen"):
        emit(render_kv(tables_mod.table1_features(platform),
                       title=platform))
        emit()
    emit(render_table(tables_mod.table2_rows(), title="## Table 2 — mixes"))
    emit()
    emit(render_table(tables_mod.table3_rows(), title="## Table 3 — sets"))
    emit()

    from repro.experiments.rapl_interference import (
        run_fig1_rapl_interference,
        run_fig4_percore_dvfs,
    )

    result = run_fig1_rapl_interference(
        **({"duration_s": 16.0, "warmup_s": 6.0} if quick else {})
    )
    emit(render_table(result.to_rows(), title="## Fig 1 — RAPL interference"))
    emit()

    from repro.experiments.dvfs_sweep import run_dvfs_sweep

    for platform, figure in (("skylake", 2), ("ryzen", 3)):
        sweep = run_dvfs_sweep(
            platform, duration_s=4.0 if quick else 10.0
        )
        rows = []
        for freq in sorted({p.set_frequency_mhz for p in sweep.points}):
            box = sweep.power_boxplot(freq)
            runtimes = [
                p.normalized_runtime for p in sweep.at_frequency(freq)
            ]
            rows.append({
                "freq_mhz": freq,
                "runtime_min": min(runtimes),
                "runtime_max": max(runtimes),
                "power_median": box["median"],
                "power_p99": box["p99"],
            })
        emit(render_table(
            rows, title=f"## Fig {figure} — DVFS sweep ({platform})"
        ))
        emit()

    result = run_fig4_percore_dvfs(
        **({"duration_s": 12.0, "warmup_s": 5.0} if quick else {})
    )
    emit(render_table(result.to_rows(),
                      title="## Fig 4 — RAPL + per-core DVFS"))
    emit()

    from repro.experiments.latency_exp import (
        normalized_latency,
        run_fig5_unfair_throttling,
        run_fig12_policies,
    )

    latency_durations = (
        {"duration_s": 30.0, "warmup_s": 10.0} if quick else {}
    )
    fig5 = run_fig5_unfair_throttling(**latency_durations)
    emit(render_table(fig5.to_rows(), title="## Fig 5 — unfair throttling"))
    emit()

    from repro.experiments.timeshare_exp import run_fig6_timeshare

    result = run_fig6_timeshare(duration_s=8.0 if quick else 20.0)
    emit(render_table(result.to_rows(), title="## Fig 6 — time-shared power"))
    emit()

    from repro.experiments.priority_exp import (
        run_fig7_priority_skylake,
        run_fig8_priority_ryzen,
    )

    result = run_fig7_priority_skylake(**batch)
    emit(render_table(result.to_rows(),
                      title="## Fig 7 — priority vs RAPL (Skylake)"))
    emit()
    result = run_fig8_priority_ryzen(**batch)
    emit(render_table(result.to_rows(),
                      title="## Fig 8 — priority (Ryzen)"))
    emit()

    from repro.experiments.shares_exp import (
        run_fig9_shares_skylake,
        run_fig10_shares_ryzen,
    )

    result = run_fig9_shares_skylake(**batch)
    emit(render_table(result.to_rows(), title="## Fig 9 — shares (Skylake)"))
    emit()
    result = run_fig10_shares_ryzen(**batch)
    emit(render_table(result.to_rows(), title="## Fig 10 — shares (Ryzen)"))
    emit()

    from repro.experiments.random_exp import run_fig11_random_skylake

    result = run_fig11_random_skylake(**batch)
    emit(render_table(result.to_rows(), title="## Fig 11 — random mixes"))
    emit()

    # Fig 12's RAPL runs repeat Fig 5's: hand them over
    result = run_fig12_policies(**latency_durations, fig5=fig5)
    emit(render_table(result.to_rows(),
                      title="## Figs 12/13 — latency policies"))
    rows = []
    for limit in sorted({r.limit_w for r in result.runs}):
        for policy in ("rapl", "frequency-shares", "performance-shares"):
            try:
                rows.append({
                    "policy": policy,
                    "limit_w": limit,
                    "latency_vs_alone": normalized_latency(
                        result, policy, limit
                    ),
                })
            except ReproError:
                # a (policy, limit) pair with no matching run: the grid
                # is sparse by design, skip the cell
                continue
    emit(render_table(rows, title="normalized 90th-percentile latency"))
    emit()

    from repro.experiments.cluster_exp import (
        default_cluster_config,
        run_cluster_experiment,
    )

    cluster_result = run_cluster_experiment(
        default_cluster_config(),
        **(
            {"duration_s": 60.0, "warmup_s": 20.0}
            if quick
            else {"duration_s": 180.0, "warmup_s": 60.0}
        ),
        cache=cache,
    )
    emit(render_table(
        cluster_result.to_rows(),
        title="## Cluster — hierarchical arbitration (4 nodes, 2:2:1:1)",
    ))
    emit(
        f"budget {cluster_result.config.budget_w:.0f} W, "
        f"max cap sum {cluster_result.max_cap_sum_w:.1f} W, "
        f"cap violations {cluster_result.cap_violations}"
    )
    emit()
    # repro-lint: disable=determinism — cosmetic footer, see above
    footer = f"(generated in {time.time() - started:.0f} s"
    if jobs is not None:
        footer += f"; jobs={jobs}"
    if cache is not None:
        footer += (
            f"; cache: {cache.stats.hits} hits, "
            f"{cache.stats.misses} misses, "
            f"{cache.stats.stores} stored"
        )
    emit(footer + ")")
    return out.getvalue()
