"""Command-line entry point: regenerate any of the paper's experiments.

Usage::

    repro-power list
    repro-power table1 | table2 | table3
    repro-power fig1 | fig2 | ... | fig12 | fig13 [--quick]
    repro-power run --platform skylake --policy frequency-shares \
                --limit 50 --apps leela:90,cactusBSSN:10 --duration 40
    repro-power run --faults full-storm --fault-seed 7 --duration 120
    repro-power report --quick --jobs 4
    repro-power sweep --seeds 10 --jobs 4
    repro-power fleet --quick
    repro-power fleet --partition-rack row1/rack3
    repro-power faults [--json]

A table or figure subcommand prints that section of the report
(:data:`repro.experiments.full_report.SECTIONS`) exactly as ``report``
does; ``fig13`` prints the Figs 12/13 section.  ``--quick`` shortens
runs to the quick report's lengths; results keep their shape but are
noisier.  ``--jobs N`` (report/sweep) fans independent runs across N
worker processes; results are deterministic and input-ordered
regardless of N.  ``cluster`` and ``fleet`` step all their nodes in one
process.  Completed runs are cached on disk keyed by their full
config — ``--no-cache`` (or ``REPRO_NO_CACHE=1``) bypasses the cache.
``--faults`` replays a named, seeded fault scenario
against the daemon (flaky MSRs, garbage counters, dropped ticks, app
crashes) and reports its health record — holdovers, retries,
quarantines, and safe-mode transitions.  ``REPRO_SIM_ENGINE=scalar``
runs the scalar reference engine instead of the batched array kernel;
both produce bit-identical results.  Output piped into a reader that
exits early (``| head``) ends the command quietly, with status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from repro.config import AppSpec, ExperimentConfig
from repro.core.types import Priority
from repro.errors import ReproError
from repro.experiments.full_report import SECTIONS
from repro.experiments.report import render_kv, render_table
from repro.experiments.runner import BATCH_TICK_S, run_steady


def _cmd_section(args) -> int:
    section = args.section
    print(section.text(section.run(quick=args.quick)))
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.full_report import generate_report

    generate_report(
        quick=args.quick,
        stream=sys.stdout,
        jobs=args.jobs,
        use_cache=not args.no_cache,
    )
    return 0


def _cmd_sweep(args) -> int:
    from repro.experiments.cache import ResultCache
    from repro.experiments.random_sweep import run_random_sweep

    cache = ResultCache.from_env(enabled=not args.no_cache)
    result = run_random_sweep(
        policy=args.policy,
        limit_w=args.limit,
        n_seeds=args.seeds,
        **(
            {"duration_s": 20.0, "warmup_s": 9.0} if args.quick else {}
        ),
        jobs=args.jobs,
        cache=cache,
    )
    print(render_table(result.to_rows(), title=(
        f"Random sweep — {result.policy} @ {result.limit_w:.0f} W, "
        f"{args.seeds} seeds"
    )))
    print(f"total ordering violations: "
          f"{result.total_ordering_violations()}")
    if cache is not None:
        print(f"cache: {cache.stats.hits} hits, "
              f"{cache.stats.misses} misses, "
              f"{cache.stats.stores} stored")
    return 0


def _cmd_cluster(args) -> int:
    from repro.cluster import ClusterConfig, NodeSpec
    from repro.experiments.cache import ResultCache
    from repro.experiments.cluster_exp import run_cluster_experiment

    if args.shares:
        shares = [float(part) for part in args.shares.split(",")]
    else:
        shares = [2.0 if i < args.nodes // 2 else 1.0
                  for i in range(args.nodes)]
    apps = _parse_apps(args.apps)
    nodes = []
    for i, node_shares in enumerate(shares):
        name = f"node{i}"
        crash = (
            args.crash_at
            if args.crash_node is not None and args.crash_node == i
            else None
        )
        nodes.append(NodeSpec(
            name=name,
            apps=apps,
            platform=args.platform,
            policy=args.policy,
            shares=node_shares,
            crashes_at_s=crash,
            faults=args.faults,
        ))
    config = ClusterConfig(
        budget_w=args.budget,
        nodes=tuple(nodes),
        epoch_ticks=args.epoch_ticks,
        seed=args.seed,
        transport=args.transport_faults,
        lease_ttl_epochs=args.lease_ttl,
        crash_faults=args.crash_faults,
        telemetry=args.telemetry_faults,
    )
    cache = ResultCache.from_env(enabled=not args.no_cache)
    result = run_cluster_experiment(
        config,
        duration_s=args.duration,
        warmup_s=min(args.duration / 3, 40.0),
        cache=cache,
    )
    print(render_table(result.to_rows(), title=(
        f"Cluster — {len(nodes)} nodes, {args.policy} @ "
        f"{args.budget:.0f} W facility budget, "
        f"epoch {args.epoch_ticks} ticks"
    )))
    print(f"mean cluster power {result.mean_total_power_w:.1f} W; "
          f"max cap sum {result.max_cap_sum_w:.1f} W of "
          f"{args.budget:.0f} W budget; "
          f"cap violations {result.cap_violations}")
    if args.transport_faults is not None:
        t = result.transport
        print(
            f"control plane ({args.transport_faults}, lease TTL "
            f"{args.lease_ttl} epochs): "
            f"{t.get('sent', 0)} sent, {t.get('delivered', 0)} delivered, "
            f"{t.get('dropped', 0)} dropped, {t.get('delayed', 0)} delayed, "
            f"{t.get('duplicated', 0)} duplicated, "
            f"{t.get('stale', 0)} stale; "
            f"{result.safe_node_epochs} safe node-epochs, "
            f"{result.degraded_grants} degraded grants"
        )
    if args.crash_faults is not None:
        print(
            f"crash faults ({args.crash_faults}): "
            f"{result.crash_recoveries} arbiter recoveries (journal "
            f"redo), {result.node_restarts} node restarts, "
            f"{result.safe_node_epochs} safe node-epochs"
        )
    if args.telemetry_faults is not None:
        print(
            f"telemetry faults ({args.telemetry_faults}): "
            f"{result.trust_violations} reports flagged, "
            f"{result.quarantined_node_epochs} quarantined "
            f"node-epochs, {result.brownout_epochs} brownout epochs"
        )
    if cache is not None:
        print(f"cache: {cache.stats.hits} hits, "
              f"{cache.stats.misses} misses, "
              f"{cache.stats.stores} stored")
    return 0


def _cmd_fleet(args) -> int:
    from repro.experiments.cache import ResultCache
    from repro.experiments.fleet_exp import (
        fleet_config,
        fleet_rollup,
        oversubscription_report,
        rack_partition,
        run_fleet_experiment,
    )
    from repro.fleet import DiurnalSchedule, grid_topology

    if args.quick:
        rows, racks, rack_nodes, epoch_ticks = 2, 2, 8, 4
    else:
        rows, racks, rack_nodes, epoch_ticks = (
            args.rows, args.racks, args.rack_nodes, args.epoch_ticks
        )
    schedule = DiurnalSchedule(
        period_epochs=args.period,
        base_active_fraction=args.trough,
        peak_active_fraction=args.peak,
        row_phase_epochs=args.row_phase,
    )
    transport = None
    if args.partition_rack is not None:
        topology, _ = grid_topology(rows, racks, rack_nodes)
        transport = rack_partition(
            topology,
            args.partition_rack,
            args.partition_start,
            args.partition_end,
        )
    config = fleet_config(
        rows,
        racks,
        rack_nodes,
        seed=args.seed,
        schedule=schedule,
        budget_w=args.budget,
        transport=transport,
        crash_faults=args.crash_faults,
        lease_ttl_epochs=args.lease_ttl,
        epoch_ticks=epoch_ticks,
    )
    forecast = oversubscription_report(config)
    n_nodes = len(config.nodes)
    print(render_kv(
        {
            "nodes": f"{rows} rows x {racks} racks x {rack_nodes} "
                     f"= {n_nodes}",
            "budget_w": f"{config.budget_w:.1f}",
            "sum_ceilings_w": f"{forecast.ceiling_sum_w:.1f}",
            "oversubscription": f"{forecast.ratio:.2f}x",
            "forecast_peak_w": f"{forecast.peak_demand_w:.1f}",
            "forecast_margin_w": f"{forecast.margin_w:.1f}",
            "statistically_safe": str(forecast.safe).lower(),
        },
        title="Fleet — oversubscribed facility budget",
    ))
    cache = ResultCache.from_env(enabled=not args.no_cache)
    result = run_fleet_experiment(
        config,
        duration_s=(
            args.days * args.period * config.epoch_s
            if args.days is not None else None
        ),
        cache=cache,
    )
    print(render_table(fleet_rollup(result), title=(
        f"Row roll-up — diurnal day, {result.duration_s:.0f}s "
        f"simulated"
    )))
    total_epochs = int(result.duration_s / config.epoch_s)
    print(
        f"invariant: max cap sum {result.max_cap_sum_w:.1f} W of "
        f"{config.budget_w:.1f} W budget over {total_epochs} epochs; "
        f"violations {result.cap_violations}"
    )
    print(
        f"SLO attainment {result.slo_attainment:.3f} "
        f"(throttle <= 0.25 on active node-epochs); "
        f"{result.shed_grants} grants shed to floor; "
        f"{result.idle_node_epochs} idle node-epochs skipped"
    )
    refills = result.fleet_refilled + result.fleet_reused
    reuse_pct = 100.0 * result.fleet_reused / refills if refills else 0.0
    print(
        f"incremental arbitration: {result.fleet_refilled} rack "
        f"water-fills recomputed, {result.fleet_reused} reused from "
        f"clean subtrees ({reuse_pct:.0f}% reuse)"
    )
    if transport is not None:
        print(
            f"rack partition {args.partition_rack} epochs "
            f"{args.partition_start}-{args.partition_end}: "
            f"{result.safe_node_epochs} safe node-epochs, "
            f"{result.degraded_grants} degraded grants "
            f"(contained to {rack_nodes} nodes)"
        )
    if args.crash_faults is not None:
        print(
            f"crash faults ({args.crash_faults}): "
            f"{result.crash_recoveries} arbiter recoveries, "
            f"{result.node_restarts} node restarts"
        )
    if cache is not None:
        print(f"cache: {cache.stats.hits} hits, "
              f"{cache.stats.misses} misses, "
              f"{cache.stats.stores} stored")
    return 0


def _cmd_gaming(args) -> int:
    from repro.experiments.gaming_exp import run_gaming_experiment

    result = run_gaming_experiment()
    print(render_table(result.to_rows(), title=(
        f"Gaming ablation — {result.benchmark}, performance shares @ "
        f"{result.limit_w:.0f} W"
    )))
    print(f"gaming payoff: {result.gaming_payoff:.2f} "
          "(<1: padding with NOPs backfired)")
    return 0


def _cmd_consolidation(args) -> int:
    from repro.experiments.consolidation_exp import (
        run_consolidation_experiment,
    )

    rows = [
        run_consolidation_experiment(consolidate=mode).to_row()
        for mode in (False, True)
    ]
    print(render_table(rows, title=(
        "LP starvation vs consolidation (3H7L @ 40 W)"
    )))
    return 0


def _print_health(stack) -> None:
    """Report daemon degradation for a fault-injected run."""
    from repro.faults import health_summary

    summary = health_summary(stack.daemon.history)
    if stack.fault_msr is not None:
        stats = stack.fault_msr.stats
        summary["injected_msr_faults"] = stats.total()
    if stack.tick_gate is not None:
        summary["dropped_ticks"] = stack.tick_gate.stats.dropped
        summary["jittered_ticks"] = stack.tick_gate.stats.jittered
    print()
    print(render_kv(summary, title=(
        f"Daemon health — faults={stack.faults.name} "
        f"(seed {stack.faults.seed})"
    )))


def _cmd_watch(args) -> int:
    from repro.config import build_stack
    from repro.experiments.sparkline import sparkline, strip_chart

    config = ExperimentConfig(
        platform=args.platform,
        policy=args.policy,
        limit_w=args.limit,
        apps=_parse_apps(args.apps),
        tick_s=BATCH_TICK_S,
        faults=args.faults,
        fault_seed=args.fault_seed,
    )
    stack = build_stack(config)
    stack.engine.run(args.duration)
    history = stack.daemon.history
    power = [s.package_power_w for s in history]
    print(strip_chart(
        power,
        label=(
            f"package power, {args.policy} @ {args.limit:.0f} W "
            f"(dashes mark the limit)"
        ),
        reference=args.limit,
    ))
    print()
    width = max(len(label) for label in stack.labels)
    for label in stack.labels:
        series = [s.app_frequency_mhz[label] for s in history]
        print(f"{label.ljust(width)}  {sparkline(series, width=60)} "
              f"{series[-1]:6.0f} MHz")
    if stack.faults is not None:
        modes = [
            "S" if s.health.mode == "safe" else
            ("h" if s.health.holdover else ".")
            for s in history
        ]
        print(f"{'mode'.ljust(width)}  {''.join(modes[-60:])} "
              "(.=normal h=holdover S=safe)")
        _print_health(stack)
    return 0


def _parse_apps(spec: str) -> tuple[AppSpec, ...]:
    apps = []
    for part in spec.split(","):
        fields = part.strip().split(":")
        name = fields[0]
        shares = float(fields[1]) if len(fields) > 1 else 1.0
        priority = Priority.LOW if (
            len(fields) > 2 and fields[2].lower().startswith("l")
        ) else Priority.HIGH
        apps.append(AppSpec(name, shares=shares, priority=priority))
    return tuple(apps)


def _cmd_run(args) -> int:
    from repro.config import build_stack

    config = ExperimentConfig(
        platform=args.platform,
        policy=args.policy,
        limit_w=args.limit,
        apps=_parse_apps(args.apps),
        tick_s=BATCH_TICK_S,
        faults=args.faults,
        fault_seed=args.fault_seed,
    )
    stack = build_stack(config)
    result = run_steady(
        config,
        duration_s=args.duration,
        warmup_s=min(args.duration / 2, 20.0),
        stack=stack,
    )
    rows = [
        {
            "app": a.label,
            "freq_mhz": a.mean_frequency_mhz,
            "norm_perf": a.normalized_performance,
            "core_w": a.mean_power_w,
            "parked": a.parked_fraction,
        }
        for a in result.apps
    ]
    print(render_table(rows, title=(
        f"{args.policy} @ {args.limit} W on {args.platform} "
        f"(pkg {result.mean_package_power_w:.1f} W)"
    )))
    if stack.faults is not None:
        _print_health(stack)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-power",
        description=(
            "Reproduce experiments from 'Per-Application Power Delivery' "
            "(EuroSys 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    list_parser = sub.add_parser("list", help="list available experiments")
    faults_parser = sub.add_parser(
        "faults", help="list fault-injection scenarios for --faults"
    )
    faults_parser.set_defaults(handler=_cmd_faults)
    faults_parser.add_argument(
        "--json", action="store_true",
        help="machine-readable listing (all scenario fields, one JSON "
             "object keyed by scenario family)",
    )
    for section in SECTIONS:
        if section.name is None:
            continue
        exp_parser = sub.add_parser(
            section.name, aliases=list(section.aliases),
            help=f"print the report's section: {section.title}",
        )
        exp_parser.set_defaults(
            handler=_cmd_section, section=section, quick=False
        )
        # a section whose quick run is its full run (a table) has no
        # --quick
        if section.quick != section.full:
            exp_parser.add_argument(
                "--quick", action="store_true",
                help="the quick report's shorter, noisier runs",
            )
    sub.add_parser(
        "gaming", help="ablation: an app padding itself with NOPs to win "
                       "performance shares",
    ).set_defaults(handler=_cmd_gaming)
    sub.add_parser(
        "consolidation", help="ablation: LP starvation vs consolidation",
    ).set_defaults(handler=_cmd_consolidation)
    report = sub.add_parser("report", help="the whole evaluation")
    report.set_defaults(handler=_cmd_report)
    report.add_argument(
        "--quick", action="store_true", help="shorter, noisier runs"
    )
    report.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan independent runs across N worker processes",
    )
    report.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache",
    )
    # 'lint' is listed for help/discoverability; main() forwards its
    # arguments to repro.analysis.cli before this parser ever runs
    # (argparse.REMAINDER cannot forward leading options).
    sub.add_parser(
        "lint",
        help="static analysis: determinism, unit-safety, fail-safety "
             "contracts (see DESIGN.md §10)",
        add_help=False,
    )
    cluster = sub.add_parser(
        "cluster",
        help="N simulated nodes under one facility budget "
             "(hierarchical arbitration)",
    )
    cluster.set_defaults(handler=_cmd_cluster)
    cluster.add_argument("--nodes", type=int, default=4, metavar="N",
                         help="number of nodes (default 4)")
    cluster.add_argument("--budget", type=float, default=150.0,
                         help="facility power budget, watts")
    cluster.add_argument(
        "--shares", default=None, metavar="S0,S1,...",
        help="per-node shares (overrides --nodes; default 2:...:1:...)",
    )
    cluster.add_argument("--platform", default="skylake")
    cluster.add_argument("--policy", default="frequency-shares")
    cluster.add_argument(
        "--apps",
        default="leela:50,cactusBSSN:50,leela:50,cactusBSSN:50,"
                "leela:50,cactusBSSN:50",
        help="per-node app list, name[:shares[:high|low]] comma list",
    )
    cluster.add_argument("--epoch-ticks", type=int, default=10,
                         help="daemon iterations per arbitration epoch")
    cluster.add_argument("--duration", type=float, default=120.0,
                         help="simulated seconds")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument(
        "--crash-node", type=int, default=None, metavar="I",
        help="index of a node to crash mid-run",
    )
    cluster.add_argument(
        "--crash-at", type=float, default=60.0, metavar="T",
        help="cluster time of the crash (with --crash-node)",
    )
    cluster.add_argument(
        "--faults", default=None, metavar="SCENARIO",
        help="inject a named fault scenario into every node's daemon "
             "(per-node schedules derive from --seed)",
    )
    cluster.add_argument(
        "--transport-faults", default=None, metavar="SCENARIO",
        help="inject a named control-plane fault scenario into the "
             "node<->arbiter message layer (see 'repro-power faults')",
    )
    cluster.add_argument(
        "--telemetry-faults", default=None, metavar="SCENARIO",
        help="corrupt the node->arbiter report stream with a named "
             "telemetry scenario — stuck sensors, drift, demand "
             "inflation, NaN bursts (see 'repro-power faults')",
    )
    cluster.add_argument(
        "--lease-ttl", type=int, default=3, metavar="EPOCHS",
        help="cap-lease TTL in epochs before a silent node steps down "
             "to its floor and then to RAPL-backstop safe mode",
    )
    cluster.add_argument(
        "--crash-faults", default=None, metavar="SCENARIO",
        help="inject a named crash scenario — seeded arbiter crashes "
             "(recovered by journal redo) and node crash/restart "
             "windows (see 'repro-power faults')",
    )
    cluster.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache",
    )
    fleet = sub.add_parser(
        "fleet",
        help="facility -> row -> rack -> node hierarchy at 1,000+ "
             "nodes: diurnal traffic under an oversubscribed budget",
    )
    fleet.set_defaults(handler=_cmd_fleet)
    fleet.add_argument("--rows", type=int, default=4,
                       help="rows in the facility (default 4)")
    fleet.add_argument("--racks", type=int, default=8, metavar="N",
                       help="racks per row (default 8)")
    fleet.add_argument("--rack-nodes", type=int, default=32, metavar="N",
                       help="nodes per rack (default 32; 4x8x32=1024)")
    fleet.add_argument(
        "--budget", type=float, default=None,
        help="facility budget, watts (default: 1.02x the forecast "
             "diurnal peak — statistically-safe oversubscription)",
    )
    fleet.add_argument("--period", type=int, default=24, metavar="EPOCHS",
                       help="diurnal period length (default 24)")
    fleet.add_argument("--trough", type=float, default=0.15,
                       help="active fraction at the diurnal trough")
    fleet.add_argument("--peak", type=float, default=0.65,
                       help="active fraction at the diurnal peak")
    fleet.add_argument(
        "--row-phase", type=int, default=2, metavar="EPOCHS",
        help="phase shift between rows (traffic rolls across the fleet)",
    )
    fleet.add_argument(
        "--days", type=float, default=None,
        help="periods to simulate (default 1.0 — one full day)",
    )
    fleet.add_argument("--epoch-ticks", type=int, default=10,
                       help="daemon iterations per arbitration epoch")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--partition-rack", default=None, metavar="ROW/RACK",
        help="sever one whole rack from the arbiter (e.g. row1/rack3); "
             "only that subtree degrades to floors and SAFE",
    )
    fleet.add_argument(
        "--partition-start", type=int, default=8, metavar="EPOCH",
        help="partition window start (with --partition-rack)",
    )
    fleet.add_argument(
        "--partition-end", type=int, default=14, metavar="EPOCH",
        help="partition window end, exclusive (with --partition-rack)",
    )
    fleet.add_argument(
        "--crash-faults", default=None, metavar="SCENARIO",
        help="inject a named crash scenario (see 'repro-power faults')",
    )
    fleet.add_argument(
        "--lease-ttl", type=int, default=3, metavar="EPOCHS",
        help="cap-lease TTL in epochs",
    )
    fleet.add_argument(
        "--quick", action="store_true",
        help="small smoke fleet (2x2x8 nodes, short epochs)",
    )
    fleet.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache",
    )
    sweep = sub.add_parser(
        "sweep", help="seeded random-mix sweep (generalized Fig 11)"
    )
    sweep.set_defaults(handler=_cmd_sweep)
    sweep.add_argument("--policy", default="frequency-shares")
    sweep.add_argument("--limit", type=float, default=45.0)
    sweep.add_argument("--seeds", type=int, default=5)
    sweep.add_argument(
        "--quick", action="store_true", help="shorter, noisier runs"
    )
    sweep.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan independent runs across N worker processes",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache",
    )
    for name, handler, helptext in (
        ("run", _cmd_run, "run a custom configuration"),
        ("watch", _cmd_watch,
         "run a custom configuration and chart its dynamics"),
    ):
        custom = sub.add_parser(name, help=helptext)
        custom.set_defaults(handler=handler)
        custom.add_argument("--platform", default="skylake")
        custom.add_argument("--policy", default="frequency-shares")
        custom.add_argument("--limit", type=float, default=50.0)
        custom.add_argument(
            "--apps",
            default="leela:90,cactusBSSN:10",
            help="comma list of name[:shares[:high|low]]",
        )
        custom.add_argument("--duration", type=float, default=40.0)
        custom.add_argument(
            "--faults",
            default=None,
            metavar="SCENARIO",
            help=(
                "inject a named fault scenario into the daemon "
                "(see 'repro-power faults')"
            ),
        )
        custom.add_argument(
            "--fault-seed", type=int, default=0,
            help="seed for the fault schedule (deterministic replay)",
        )
    list_parser.set_defaults(handler=_cmd_list, commands=sorted(sub.choices))
    return parser


def _cmd_list(args) -> int:
    for name in args.commands:
        print(name)
    return 0


def _cmd_faults(args) -> int:
    from repro.faults import (
        CRASH_SCENARIOS,
        SCENARIOS,
        TELEMETRY_SCENARIOS,
        TRANSPORT_SCENARIOS,
    )
    from repro.faults.scenario import RATE_FIELDS, TRANSPORT_RATE_FIELDS

    if args.json:
        import dataclasses
        import json

        payload = {
            "daemon": {
                name: dataclasses.asdict(s)
                for name, s in SCENARIOS.items()
            },
            "transport": {
                name: dataclasses.asdict(s)
                for name, s in TRANSPORT_SCENARIOS.items()
            },
            "crash": {
                name: dataclasses.asdict(s)
                for name, s in CRASH_SCENARIOS.items()
            },
            "telemetry": {
                name: dataclasses.asdict(s)
                for name, s in TELEMETRY_SCENARIOS.items()
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    width = max(
        len(name)
        for name in (
            list(SCENARIOS)
            + list(TRANSPORT_SCENARIOS)
            + list(CRASH_SCENARIOS)
            + list(TELEMETRY_SCENARIOS)
        )
    )
    for name, scenario in sorted(SCENARIOS.items()):
        active = [f for f in RATE_FIELDS if getattr(scenario, f) > 0]
        if scenario.app_crashes:
            active.append("app_crashes")
        if scenario.window_s is not None:
            active.append(f"window={scenario.window_s}")
        print(f"{name.ljust(width)}  {', '.join(active) or 'clean'}")
    print()
    print("transport scenarios (cluster --transport-faults):")
    for name, ts in sorted(TRANSPORT_SCENARIOS.items()):
        active = [f for f in TRANSPORT_RATE_FIELDS if getattr(ts, f) > 0]
        if ts.partitions:
            active.append(
                "partitions=" + ",".join(
                    f"{p.node or '*'}@{p.start_epoch}-{p.end_epoch}"
                    for p in ts.partitions
                )
            )
        print(f"{name.ljust(width)}  {', '.join(active) or 'clean'}")
    print()
    print("crash scenarios (cluster --crash-faults):")
    for name, cs in sorted(CRASH_SCENARIOS.items()):
        print(f"{name.ljust(width)}  {cs.description}")
    print()
    print("telemetry scenarios (cluster --telemetry-faults):")
    for name, tel in sorted(TELEMETRY_SCENARIOS.items()):
        active = [
            f"{f.node}:{f.kind}@{f.start_epoch}-"
            f"{'' if f.end_epoch is None else f.end_epoch}"
            for f in tel.faults
        ]
        if tel.garbage_rate > 0:
            active.append(f"garbage_rate={tel.garbage_rate}")
        print(f"{name.ljust(width)}  {', '.join(active) or 'clean'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv[:1] == ["lint"]:
            from repro.analysis.cli import run_lint

            status = run_lint(argv[1:])
        else:
            args = build_parser().parse_args(argv)
            try:
                status = args.handler(args)
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = 1
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader exited early (``| head``): send what is still
        # buffered to /dev/null, so the flush at exit stays quiet too
        with contextlib.suppress(OSError, ValueError):  # no descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
