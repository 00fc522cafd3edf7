"""One-shot reproduction report: every table and figure, rendered.

:data:`SECTIONS` defines the paper's evaluation once: each table or
figure with its runner, the run lengths of a quick and a full report,
its heading and how its result prints.  ``repro-power report`` (or
:func:`generate_report`) walks that table and renders one ASCII document
mirroring the paper's evaluation section, suitable for diffing across
code changes; ``repro-power fig7`` (or any other section's name) prints
one section exactly as the report does.
"""

from __future__ import annotations

import importlib
import io
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import ReproError
from repro.experiments import tables as tables_mod
from repro.experiments.cache import ResultCache
from repro.experiments.report import render_kv, render_table


def _module(name: str) -> Any:
    return importlib.import_module(f"repro.experiments.{name}")


def _late(module: str, function: str, *args: Any) -> Callable[..., Any]:
    """``repro.experiments.<module>.<function>(*args, **kwargs)``.

    The function is read off its module when the section runs, never
    bound here: the benchmark's layer timers and the tests patch those
    module attributes.
    """

    def run(**kwargs: Any) -> Any:
        return getattr(_module(module), function)(*args, **kwargs)

    return run


@dataclass(frozen=True)
class Section:
    """One table or figure of the paper's evaluation."""

    #: the subcommand that prints it alone (``None``: the report only)
    name: str | None
    #: the report's heading, after ``## ``
    title: str
    #: computes the section's result from the keywords below
    runner: Callable[..., Any]
    #: the text printed under the heading
    render: Callable[[Any], str]
    #: runner keywords of a quick and of a full report
    quick: Mapping[str, Any] = field(default_factory=dict)
    full: Mapping[str, Any] = field(default_factory=dict)
    #: report context the runner takes when the report has it: ``jobs``,
    #: ``cache``, or an earlier section's result under that section's name
    uses: tuple[str, ...] = ()
    #: further subcommands that print it
    aliases: tuple[str, ...] = ()

    def run(self, *, quick: bool, **context: Any) -> Any:
        kwargs = dict(self.quick if quick else self.full)
        kwargs.update(
            (key, context[key]) for key in self.uses if key in context
        )
        return self.runner(**kwargs)

    def text(self, result: Any) -> str:
        return f"## {self.title}\n{self.render(result)}\n"


def _rows(result: Any) -> str:
    return render_table(result.to_rows())


def _platforms(features: Mapping[str, Mapping[str, Any]]) -> str:
    return "\n\n".join(
        render_kv(row, title=platform) for platform, row in features.items()
    )


def _dvfs_boxes(sweep: Any) -> str:
    """Figs 2/3 as the paper's box plots: one row per set frequency."""
    rows = []
    for freq in sorted({p.set_frequency_mhz for p in sweep.points}):
        box = sweep.power_boxplot(freq)
        runtimes = [p.normalized_runtime for p in sweep.at_frequency(freq)]
        rows.append({
            "freq_mhz": freq,
            "runtime_min": min(runtimes),
            "runtime_max": max(runtimes),
            "power_median": box["median"],
            "power_p99": box["p99"],
        })
    return render_table(rows)


def _latency_policies(result: Any) -> str:
    """Fig 12's runs, then Fig 13's latencies normalized to running alone."""
    normalized_latency = _module("latency_exp").normalized_latency
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
    return "\n".join((
        render_table(result.to_rows()),
        render_table(rows, title="normalized 90th-percentile latency"),
    ))


def _cluster(result: Any) -> str:
    return (
        f"{render_table(result.to_rows())}\n"
        f"budget {result.config.budget_w:.0f} W, "
        f"max cap sum {result.max_cap_sum_w:.1f} W, "
        f"cap violations {result.cap_violations}"
    )


_BATCH = ("jobs", "cache")
_QUICK_BATCH = {"duration_s": 30.0, "warmup_s": 12.0}
_QUICK_LATENCY = {"duration_s": 30.0, "warmup_s": 10.0}

#: the paper's evaluation, in report order.
SECTIONS: tuple[Section, ...] = (
    Section(
        "table1", "Table 1 — platform features",
        lambda: {
            platform: tables_mod.table1_features(platform)
            for platform in ("skylake", "ryzen")
        },
        _platforms,
    ),
    Section("table2", "Table 2 — mixes",
            lambda: tables_mod.table2_rows(), render_table),
    Section("table3", "Table 3 — sets",
            lambda: tables_mod.table3_rows(), render_table),
    Section("fig1", "Fig 1 — RAPL interference",
            _late("rapl_interference", "run_fig1_rapl_interference"),
            _rows, quick={"duration_s": 16.0, "warmup_s": 6.0}),
    Section("fig2", "Fig 2 — DVFS sweep (skylake)",
            _late("dvfs_sweep", "run_dvfs_sweep", "skylake"), _dvfs_boxes,
            quick={"duration_s": 4.0}, full={"duration_s": 10.0}),
    Section("fig3", "Fig 3 — DVFS sweep (ryzen)",
            _late("dvfs_sweep", "run_dvfs_sweep", "ryzen"), _dvfs_boxes,
            quick={"duration_s": 4.0}, full={"duration_s": 10.0}),
    Section("fig4", "Fig 4 — RAPL + per-core DVFS",
            _late("rapl_interference", "run_fig4_percore_dvfs"),
            _rows, quick={"duration_s": 12.0, "warmup_s": 5.0}),
    Section("fig5", "Fig 5 — unfair throttling",
            _late("latency_exp", "run_fig5_unfair_throttling"),
            _rows, quick=_QUICK_LATENCY),
    Section("fig6", "Fig 6 — time-shared power",
            _late("timeshare_exp", "run_fig6_timeshare"), _rows,
            quick={"duration_s": 8.0}, full={"duration_s": 20.0}),
    Section("fig7", "Fig 7 — priority vs RAPL (Skylake)",
            _late("priority_exp", "run_fig7_priority_skylake"),
            _rows, quick=_QUICK_BATCH, uses=_BATCH),
    Section("fig8", "Fig 8 — priority (Ryzen)",
            _late("priority_exp", "run_fig8_priority_ryzen"),
            _rows, quick=_QUICK_BATCH, uses=_BATCH),
    Section("fig9", "Fig 9 — shares (Skylake)",
            _late("shares_exp", "run_fig9_shares_skylake"),
            _rows, quick=_QUICK_BATCH, uses=_BATCH),
    Section("fig10", "Fig 10 — shares (Ryzen)",
            _late("shares_exp", "run_fig10_shares_ryzen"),
            _rows, quick=_QUICK_BATCH, uses=_BATCH),
    Section("fig11", "Fig 11 — random mixes",
            _late("random_exp", "run_fig11_random_skylake"),
            _rows, quick=_QUICK_BATCH, uses=_BATCH),
    # Fig 13's latencies come out of Fig 12's runs, and Fig 12's RAPL
    # runs repeat Fig 5's: the report hands them over
    Section("fig12", "Figs 12/13 — latency policies",
            _late("latency_exp", "run_fig12_policies"), _latency_policies,
            quick=_QUICK_LATENCY, uses=("fig5",), aliases=("fig13",)),
    # report only: ``repro-power cluster`` runs a cluster of your choosing
    Section(None, "Cluster — hierarchical arbitration (4 nodes, 2:2:1:1)",
            _late("cluster_exp", "run_cluster_experiment"), _cluster,
            quick={"duration_s": 60.0, "warmup_s": 20.0},
            full={"duration_s": 180.0, "warmup_s": 60.0},
            uses=("cache",)),
)


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

    # wall-clock timing feeds only the cosmetic report footer; it never
    # reaches a result or a cache key
    # repro-lint: disable=determinism — cosmetic wall-clock report footer
    started = time.time()
    emit("# Per-Application Power Delivery — reproduction report")
    emit(f"mode: {'quick' if quick else 'full'}")
    emit()
    context: dict[str, Any] = {"jobs": jobs, "cache": cache}
    for section in SECTIONS:
        result = section.run(quick=quick, **context)
        if section.name is not None:
            context[section.name] = result
        emit(section.text(result))
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
