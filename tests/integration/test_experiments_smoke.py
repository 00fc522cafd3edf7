"""Smoke tests: every experiment module runs end to end (tiny runs).

The benchmark suite asserts the full shapes on longer runs; these keep
the experiment code itself covered by ``pytest tests/`` with minimal
wall-clock cost.
"""

import pytest

from repro.experiments.dvfs_sweep import run_dvfs_sweep
from repro.experiments.full_report import SECTIONS
from repro.experiments.latency_exp import (
    normalized_latency,
    run_fig5_unfair_throttling,
    run_fig12_policies,
)
from repro.experiments.priority_exp import (
    run_fig7_priority_skylake,
    run_fig8_priority_ryzen,
)
from repro.experiments.random_exp import run_fig11_random_skylake
from repro.experiments.rapl_interference import (
    run_fig1_rapl_interference,
    run_fig4_percore_dvfs,
)
from repro.experiments.report import render_table
from repro.experiments.shares_exp import run_shares_experiment
from repro.experiments.timeshare_exp import run_fig6_timeshare


def test_fig1_smoke():
    result = run_fig1_rapl_interference(
        limits_w=(85.0, 40.0), duration_s=6.0, warmup_s=2.0
    )
    assert len(result.points) == 4
    render_table(result.to_rows())


def test_dvfs_sweep_smoke():
    result = run_dvfs_sweep(
        "skylake", benchmarks=("gcc", "cam4"),
        frequencies_mhz=[800.0, 2200.0, 3000.0],
        duration_s=2.0,
    )
    assert {p.benchmark for p in result.points} == {"gcc", "cam4"}
    fig2 = next(s for s in SECTIONS if s.name == "fig2")
    # the report's box plot: header, rule and one row per frequency
    assert len(fig2.render(result).splitlines()) == 2 + 3


def test_fig4_smoke():
    result = run_fig4_percore_dvfs(
        limits_w=(50.0,), throttle_points_mhz=(800.0, 2500.0),
        duration_s=6.0, warmup_s=2.0,
    )
    assert len(result.series(50.0)) == 2


def test_fig5_smoke():
    result = run_fig5_unfair_throttling(
        limits_w=(40.0,), duration_s=12.0, warmup_s=4.0
    )
    assert result.run("rapl", 40.0, True).p90_latency_s > 0


def test_fig6_smoke():
    result = run_fig6_timeshare(
        varied_quotas=(0.2, 0.5), duration_s=4.0
    )
    assert len(result.points) == 4
    render_table(result.to_rows())


def test_fig7_smoke():
    result = run_fig7_priority_skylake(
        limits_w=(50.0,), policies=("priority",),
        mixes={"5H5L": (5, 0, 0, 5)},
        duration_s=20.0, warmup_s=8.0,
    )
    assert result.cell("5H5L", 50.0, "priority").package_power_w > 0
    render_table(result.to_rows())


def test_fig8_smoke():
    result = run_fig8_priority_ryzen(
        limits_w=(40.0,), mixes={"2H6L": (1, 1, 3, 3)},
        duration_s=20.0, warmup_s=8.0,
    )
    cell = result.cell("2H6L", 40.0, "priority")
    assert cell.hp_core_power_w is not None


def test_shares_smoke():
    result = run_shares_experiment(
        "skylake", policies=("frequency-shares",), limits_w=(45.0,),
        ratios=((50, 50),), duration_s=15.0, warmup_s=6.0,
    )
    cell = result.cell("frequency-shares", 45.0, 50.0)
    assert 0.3 < cell.ld_frequency_fraction < 0.7


def test_fig11_smoke():
    result = run_fig11_random_skylake(
        sets=("A",), policies=("frequency-shares",), limits_w=(50.0,),
        duration_s=15.0, warmup_s=6.0,
    )
    series = result.series("A", "frequency-shares", 50.0)
    assert [c.app_index for c in series] == [0, 1, 2, 3, 4]


def test_fig12_smoke():
    result = run_fig12_policies(
        limits_w=(40.0,), policies=("frequency-shares",),
        duration_s=15.0, warmup_s=5.0,
    )
    assert normalized_latency(result, "frequency-shares", 40.0) < (
        normalized_latency(result, "rapl", 40.0) + 0.5
    )


#: every simulated section of the report, shortened tenfold below
_REPORT_SECTIONS = (
    ("repro.experiments.rapl_interference", "run_fig1_rapl_interference"),
    ("repro.experiments.dvfs_sweep", "run_dvfs_sweep"),
    ("repro.experiments.rapl_interference", "run_fig4_percore_dvfs"),
    ("repro.experiments.latency_exp", "run_fig5_unfair_throttling"),
    ("repro.experiments.timeshare_exp", "run_fig6_timeshare"),
    ("repro.experiments.priority_exp", "run_fig7_priority_skylake"),
    ("repro.experiments.priority_exp", "run_fig8_priority_ryzen"),
    ("repro.experiments.shares_exp", "run_fig9_shares_skylake"),
    ("repro.experiments.shares_exp", "run_fig10_shares_ryzen"),
    ("repro.experiments.random_exp", "run_fig11_random_skylake"),
    ("repro.experiments.latency_exp", "run_fig12_policies"),
    ("repro.experiments.cluster_exp", "run_cluster_experiment"),
)


def test_report_simulates_each_latency_stack_once(monkeypatch):
    """The report hands Fig 5's RAPL runs to Fig 12: one report builds
    each distinct latency stack once, Fig 12's RAPL rows equal Fig 5's,
    and nothing survives the call, so a second report simulates again."""
    import importlib

    from repro.experiments import latency_exp
    from repro.experiments.full_report import generate_report

    results: dict[str, list] = {}

    def shortened(name, fn):
        def run(*args, **kwargs):
            for key in ("duration_s", "warmup_s"):
                if key in kwargs:
                    kwargs[key] *= 0.1
            result = fn(*args, **kwargs)
            results.setdefault(name, []).append(result)
            return result
        return run

    for module, name in _REPORT_SECTIONS:
        owner = importlib.import_module(module)
        monkeypatch.setattr(
            owner, name, shortened(name, getattr(owner, name))
        )
    stacks: list[tuple] = []
    build = latency_exp.build_latency_stack

    def counted(policy, limit_w, colocated, **kwargs):
        stacks.append((policy, limit_w, colocated,
                       kwargs.get("websearch_shares")))
        return build(policy, limit_w, colocated, **kwargs)

    monkeypatch.setattr(latency_exp, "build_latency_stack", counted)

    first = generate_report(quick=True, use_cache=False)
    assert len(stacks) == len(set(stacks)) == 12 + 6
    fig5 = results["run_fig5_unfair_throttling"][0]
    fig12 = results["run_fig12_policies"][0]
    rapl_rows = [run for run in fig12.runs if run.policy == "rapl"]
    assert len(rapl_rows) == 6
    for run in rapl_rows:
        assert run == fig5.run("rapl", run.limit_w, run.colocated)
    # a standalone Fig 12 simulates its RAPL runs itself, bit for bit
    stacks.clear()
    alone = latency_exp.run_fig12_policies(
        limits_w=(40.0,), policies=(), duration_s=30.0, warmup_s=10.0,
    )
    assert len(stacks) == 2
    assert alone.runs == (
        fig5.run("rapl", 40.0, False), fig5.run("rapl", 40.0, True)
    )

    stacks.clear()
    second = generate_report(quick=True, use_cache=False)
    assert len(stacks) == 12 + 6
    strip = [line for line in first.splitlines()
             if not line.startswith("(generated in")]
    assert strip == [line for line in second.splitlines()
                     if not line.startswith("(generated in")]
