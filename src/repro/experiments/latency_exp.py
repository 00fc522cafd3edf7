"""Latency-sensitive experiments (paper Figs 5, 12, 13; sections 3.2, 6.4).

*websearch* (latency-sensitive, 300 users, low per-core demand) occupies
nine Skylake cores; the *cpuburn* power virus occupies the tenth.

* **Fig 5** — unfair throttling: under RAPL, co-locating one cpuburn core
  cuts websearch's 90th-percentile latency performance to less than half
  of running alone at low limits (<40 W), because RAPL throttles all the
  fast websearch cores to pay for the virus.
* **Fig 12** — the paper's policies (90/10 shares: websearch cores get
  90, cpuburn 10) recover most of that loss, approaching the
  websearch-alone latency, limited by the frequency floor.
* **Fig 13** — active frequencies under frequency shares: websearch
  cores stay fast, the cpuburn core pins at minimum frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.core.daemon import PowerDaemon
from repro.core.frequency_shares import FrequencySharesPolicy
from repro.core.performance_shares import PerformanceSharesPolicy
from repro.core.rapl_baseline import RaplBaselinePolicy
from repro.core.types import ManagedApp
from repro.hw.platform import get_platform
from repro.sim.chip import Chip
from repro.sim.core import BatchCoreLoad, ClusterCoreLoad
from repro.sim.engine import SimEngine
from repro.units import approx_eq
from repro.workloads.app import RunningApp
from repro.workloads.cpuburn import cpuburn
from repro.workloads.websearch import WebsearchCluster, WebsearchConfig

_TICK_S = 2e-3
_N_SERVING = 9
_BURN_CORE = 9

_POLICIES = {
    "frequency-shares": FrequencySharesPolicy,
    "performance-shares": PerformanceSharesPolicy,
    "rapl": RaplBaselinePolicy,
}


@dataclass(frozen=True)
class LatencyRun:
    """One websearch run: latency tail plus frequency telemetry."""

    policy: str
    limit_w: float
    colocated: bool
    p90_latency_s: float
    p99_latency_s: float
    throughput_rps: float
    mean_package_power_w: float
    websearch_freq_mhz: float
    cpuburn_freq_mhz: float | None
    #: simulated seconds of the whole run and of its warm-up
    duration_s: float
    warmup_s: float


@dataclass(frozen=True)
class LatencyResult:
    runs: tuple[LatencyRun, ...]

    def run(
        self, policy: str, limit_w: float, colocated: bool
    ) -> LatencyRun:
        for run in self.runs:
            if (
                run.policy == policy
                and approx_eq(run.limit_w, limit_w, abs_tol=1e-6)
                and run.colocated == colocated
            ):
                return run
        raise ConfigError(f"no run ({policy}, {limit_w}, {colocated})")

    def to_rows(self) -> list[dict]:
        return [
            {
                "policy": r.policy,
                "limit_w": r.limit_w,
                "colocated": r.colocated,
                "p90_ms": 1e3 * r.p90_latency_s,
                "p99_ms": 1e3 * r.p99_latency_s,
                "rps": r.throughput_rps,
                "pkg_w": r.mean_package_power_w,
                "ws_mhz": r.websearch_freq_mhz,
                "burn_mhz": r.cpuburn_freq_mhz,
            }
            for r in self.runs
        ]


def _offline_websearch_baseline_ips(duration_s: float = 20.0) -> list[float]:
    """Per-serving-core IPS of websearch running alone at max frequency —
    the offline baseline measurement performance shares need."""
    platform = get_platform("skylake")
    chip = Chip(platform, tick_s=_TICK_S)
    engine = SimEngine(chip)
    cluster = WebsearchCluster(list(range(_N_SERVING)), WebsearchConfig())
    chip.attach_cluster(cluster)
    for core_id in cluster.core_ids:
        chip.assign_load(core_id, ClusterCoreLoad(cluster, core_id))
        chip.set_requested_frequency(core_id, 3000.0)
    engine.run(duration_s)
    return [
        max(chip.cores[core_id].total_instructions / chip.time_s, 1.0)
        for core_id in cluster.core_ids
    ]


def build_latency_stack(
    policy_name: str,
    limit_w: float,
    colocated: bool,
    *,
    websearch_shares: float = 1.0,
    cpuburn_shares: float = 1.0,
    baseline_ips: list[float] | None = None,
    engine: str = "array",
) -> tuple[SimEngine, PowerDaemon, WebsearchCluster]:
    """One websearch stack: nine serving cores, cpuburn on the tenth when
    ``colocated``, and a power daemon running ``policy_name`` over them,
    attached to a fresh engine of the given kind."""
    platform = get_platform("skylake")
    chip = Chip(platform, tick_s=_TICK_S)
    sim = SimEngine(chip, engine=engine)
    cluster = WebsearchCluster(list(range(_N_SERVING)), WebsearchConfig())
    chip.attach_cluster(cluster)
    managed: list[ManagedApp] = []
    for index, core_id in enumerate(cluster.core_ids):
        chip.assign_load(core_id, ClusterCoreLoad(cluster, core_id))
        managed.append(
            ManagedApp(
                label=f"websearch@{core_id}",
                core_id=core_id,
                shares=websearch_shares,
                baseline_ips=(
                    baseline_ips[index] if baseline_ips else None
                ),
            )
        )
    burn_app = None
    if colocated:
        burn_app = RunningApp(cpuburn())
        chip.assign_load(
            _BURN_CORE,
            BatchCoreLoad(burn_app, platform.reference_frequency_mhz),
        )
        managed.append(
            ManagedApp(
                label="cpuburn#0",
                core_id=_BURN_CORE,
                shares=cpuburn_shares,
                # IPS of the spin loop alone at max frequency; only used
                # by performance shares
                baseline_ips=3.0 * 3000e6,
            )
        )
    policy = _POLICIES[policy_name](platform, managed, limit_w)
    daemon = PowerDaemon(chip, policy)
    daemon.attach(sim)
    return sim, daemon, cluster


def _run_one(
    policy_name: str,
    limit_w: float,
    colocated: bool,
    *,
    websearch_shares: float,
    cpuburn_shares: float,
    duration_s: float,
    warmup_s: float,
    baseline_ips: list[float] | None,
) -> LatencyRun:
    engine, daemon, cluster = build_latency_stack(
        policy_name, limit_w, colocated,
        websearch_shares=websearch_shares,
        cpuburn_shares=cpuburn_shares,
        baseline_ips=baseline_ips,
    )
    chip = engine.chip
    engine.run(warmup_s)
    cluster.reset_latency_window()
    start_requests = cluster.completed_requests
    start_t = chip.time_s
    engine.run(duration_s - warmup_s)
    elapsed = chip.time_s - start_t
    window = [s for s in daemon.history if s.time_s >= warmup_s]
    ws_labels = [f"websearch@{c}" for c in cluster.core_ids]
    ws_freq = sum(
        s.app_frequency_mhz[label] for s in window for label in ws_labels
    ) / (len(window) * len(ws_labels))
    burn_freq = None
    if colocated:
        burn_freq = sum(
            s.app_frequency_mhz["cpuburn#0"] for s in window
        ) / len(window)
    return LatencyRun(
        policy=policy_name,
        limit_w=limit_w,
        colocated=colocated,
        p90_latency_s=cluster.latency_percentile(90.0),
        p99_latency_s=cluster.latency_percentile(99.0),
        throughput_rps=(
            (cluster.completed_requests - start_requests) / elapsed
        ),
        mean_package_power_w=(
            sum(s.package_power_w for s in window) / len(window)
        ),
        websearch_freq_mhz=ws_freq,
        cpuburn_freq_mhz=burn_freq,
        duration_s=duration_s,
        warmup_s=warmup_s,
    )


def run_fig5_unfair_throttling(
    *,
    limits_w: tuple[float, ...] = (85.0, 60.0, 50.0, 45.0, 40.0, 35.0),
    duration_s: float = 60.0,
    warmup_s: float = 20.0,
) -> LatencyResult:
    """Fig 5: websearch 90th-percentile latency under RAPL, with and
    without the co-located power virus."""
    runs = []
    for limit in limits_w:
        for colocated in (False, True):
            runs.append(
                _run_one(
                    "rapl", limit, colocated,
                    websearch_shares=1.0, cpuburn_shares=1.0,
                    duration_s=duration_s, warmup_s=warmup_s,
                    baseline_ips=None,
                )
            )
    return LatencyResult(runs=tuple(runs))


def run_fig12_policies(
    *,
    limits_w: tuple[float, ...] = (45.0, 40.0, 35.0),
    policies: tuple[str, ...] = ("frequency-shares", "performance-shares"),
    duration_s: float = 60.0,
    warmup_s: float = 20.0,
    fig5: LatencyResult | None = None,
) -> LatencyResult:
    """Figs 12/13: policies vs RAPL vs alone at 90/10 shares.

    Returns colocated runs for each policy plus RAPL, and alone runs
    (RAPL) as the normalization baseline the paper reports above its
    bars.  The RAPL runs are Fig 5's: a ``fig5`` result lends every run
    whose policy, limit, colocation and durations match, and the rest
    are simulated.
    """
    baseline_ips = (
        _offline_websearch_baseline_ips()
        if "performance-shares" in policies
        else None
    )
    reusable = {
        (run.policy, run.limit_w, run.colocated, run.duration_s,
         run.warmup_s): run
        for run in (fig5.runs if fig5 is not None else ())
    }
    runs = []
    for limit in limits_w:
        for colocated in (False, True):
            run = reusable.get(
                ("rapl", limit, colocated, duration_s, warmup_s)
            )
            runs.append(
                run if run is not None else _run_one(
                    "rapl", limit, colocated,
                    websearch_shares=1.0, cpuburn_shares=1.0,
                    duration_s=duration_s, warmup_s=warmup_s,
                    baseline_ips=None,
                )
            )
        for policy in policies:
            runs.append(
                _run_one(
                    policy, limit, True,
                    websearch_shares=90.0, cpuburn_shares=10.0,
                    duration_s=duration_s, warmup_s=warmup_s,
                    baseline_ips=baseline_ips,
                )
            )
    return LatencyResult(runs=tuple(runs))


def normalized_latency(
    result: LatencyResult, policy: str, limit_w: float
) -> float:
    """Fig 12's metric: 90th-pct latency relative to websearch alone at
    the same limit (values > 1 mean the colocated run is slower)."""
    alone = result.run("rapl", limit_w, False)
    colocated = result.run(policy, limit_w, True)
    return colocated.p90_latency_s / alone.p90_latency_s
