"""The layer map: which public call belongs to which layer.

Each entry names the place a caller looks the function up — a module
attribute for functions imported with ``from x import f`` (the caller's
module holds its own reference) or a class attribute for methods.  A
function is wrapped in every module the workloads call it from, and
nowhere else: ``refill_pool`` counts as ``core.minfund`` where the
daemon's share policies call it and stays inside ``fleet.arbiter``
where the arbiter calls it.
"""

from __future__ import annotations

from typing import Callable

from spans import Probe, SpanRecorder, resolve

_SHARES_MODULES = (
    "repro.core.frequency_shares",
    "repro.core.power_shares",
    "repro.core.performance_shares",
)

#: (layer, module, attribute) for every wrapped call.
LAYER_CALLS: tuple[tuple[str, str, str], ...] = (
    ("sim.soa", "repro.sim.soa", "advance_chips"),
    ("sim.engine", "repro.cluster.stepper", "run_lockstep"),
    ("sim.engine", "repro.sim.engine", "SimEngine.run_ticks"),
    ("sim.chip.scalar", "repro.sim.chip", "Chip.advance_ticks"),
    ("sim.chip.scalar", "repro.sim.chip", "Chip.tick"),
    ("core.daemon", "repro.core.daemon", "PowerDaemon.iteration"),
    ("core.policy", "repro.core.frequency_shares",
     "FrequencySharesPolicy.redistribute"),
    ("core.policy", "repro.core.power_shares",
     "PowerSharesPolicy.redistribute"),
    ("core.policy", "repro.core.performance_shares",
     "PerformanceSharesPolicy.redistribute"),
    ("core.policy", "repro.core.priority", "PriorityPolicy.redistribute"),
    ("core.policy", "repro.core.rapl_baseline",
     "RaplBaselinePolicy.redistribute"),
    ("core.policy", "repro.core.hwp_hints", "HwpHintsPolicy.redistribute"),
    *(
        ("core.minfund", module, name)
        for module in _SHARES_MODULES
        for name in ("refill_pool", "pool_bounds")
    ),
    ("core.minfund", "repro.core.power_shares", "proportional_targets"),
    ("core.minfund", "repro.core.performance_shares", "proportional_targets"),
    ("core.minfund", "repro.core.priority", "distribute_min_funding"),
    ("core.pstate_select", "repro.core.daemon", "select_pstate_levels"),
    ("telemetry.turbostat", "repro.telemetry.turbostat", "Turbostat.sample"),
    ("cluster.transport", "repro.cluster.transport",
     "UnreliableTransport.send"),
    ("cluster.transport", "repro.cluster.transport",
     "UnreliableTransport.deliver"),
    ("cluster.transport", "repro.cluster.runtime", "fold_reports"),
    ("fleet.arbiter", "repro.cluster.arbiter", "ClusterArbiter.rebalance"),
    ("fleet.waterfill", "repro.fleet.arbiter", "waterfill"),
    ("cluster.trust", "repro.cluster.trust", "DemandValidator.screen"),
    ("cluster.trust", "repro.cluster.trust", "DemandValidator.validate"),
    ("cluster.trust", "repro.cluster.trust", "TrustBook.observe"),
    ("cluster.lease", "repro.cluster.lease", "NodeLease.observe"),
    ("cluster.lease", "repro.cluster.lease", "NodeLease.restart"),
    ("cluster.node", "repro.cluster.node", "ClusterNode.begin_epoch"),
    ("cluster.node", "repro.cluster.node", "ClusterNode.finish_epoch"),
    ("cluster.node", "repro.cluster.node", "ClusterNode.idle_report"),
    ("cluster.stepper", "repro.cluster.stepper", "SerialNodeStepper.step"),
    ("cluster.stepper", "repro.cluster.stepper", "StackedNodeStepper.step"),
    ("cluster.trace", "repro.cluster.trace", "ClusterTrace.record_epoch"),
    ("cluster.trace", "repro.cluster.trace", "ClusterTrace.record_control"),
    # the journal layer: appends plus the public snapshot() calls that
    # build each entry's payload
    ("cluster.journal", "repro.cluster.journal", "Journal.append"),
    ("cluster.journal", "repro.cluster.arbiter", "ClusterArbiter.snapshot"),
    ("cluster.journal", "repro.fleet.arbiter", "FleetArbiter.snapshot"),
    ("cluster.journal", "repro.cluster.transport", "SequenceGuard.snapshot"),
    ("cluster.journal", "repro.cluster.transport",
     "UnreliableTransport.snapshot"),
    ("cluster.journal", "repro.cluster.lease", "NodeLease.snapshot"),
    ("cluster.journal", "repro.faults.telemetry",
     "TelemetryCorruptor.snapshot"),
    ("config.build_stack", "repro.cluster.node", "build_stack"),
    ("config.build_stack", "repro.experiments.runner", "build_stack"),
    # one layer per paper section of the quick report
    ("experiments.fig01", "repro.experiments.rapl_interference",
     "run_fig1_rapl_interference"),
    ("experiments.fig02_03", "repro.experiments.dvfs_sweep",
     "run_dvfs_sweep"),
    ("experiments.fig04", "repro.experiments.rapl_interference",
     "run_fig4_percore_dvfs"),
    ("experiments.fig05", "repro.experiments.latency_exp",
     "run_fig5_unfair_throttling"),
    ("experiments.fig06", "repro.experiments.timeshare_exp",
     "run_fig6_timeshare"),
    ("experiments.fig07", "repro.experiments.priority_exp",
     "run_fig7_priority_skylake"),
    ("experiments.fig08", "repro.experiments.priority_exp",
     "run_fig8_priority_ryzen"),
    ("experiments.fig09", "repro.experiments.shares_exp",
     "run_fig9_shares_skylake"),
    ("experiments.fig10", "repro.experiments.shares_exp",
     "run_fig10_shares_ryzen"),
    ("experiments.fig11", "repro.experiments.random_exp",
     "run_fig11_random_skylake"),
    ("experiments.fig12_13", "repro.experiments.latency_exp",
     "run_fig12_policies"),
    ("experiments.cluster", "repro.experiments.cluster_exp",
     "run_cluster_experiment"),
)

#: every layer, in report order (python.gc is fed by gc.callbacks).
LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys([layer for layer, _, _ in LAYER_CALLS] + ["python.gc"])
)

#: calls whose argument says how many scalar ticks they run.
_UNITS: dict[str, Callable[..., int]] = {
    "Chip.advance_ticks": lambda chip, n: n,
    "Chip.tick": lambda chip: 1,
}

#: set-up calls, timed in every run and excluded from wall time.
SETUP_CALLS: tuple[tuple[str, str], ...] = (
    ("repro.cluster.node", "build_stack"),
    ("repro.experiments.runner", "build_stack"),
)


#: frequently called functions that give the speedometer its chance
#: to calibrate (every workload calls at least one of them).
HEARTBEATS: tuple[tuple[str, str], ...] = (
    ("repro.core.daemon", "PowerDaemon.iteration"),
    ("repro.sim.engine", "SimEngine.run_ticks"),
    ("repro.cluster.arbiter", "ClusterArbiter.rebalance"),
)


def probe_replacements(probe: Probe, daemon_epochs: bool) -> list:
    """Hooks every run installs: set-up timing, epoch marks, heartbeats.

    Cluster workloads mark an epoch at each ``rebalance``; the
    single-socket report marks each daemon's control period instead.
    """
    hooks: dict[tuple[int, str], tuple] = {}

    def add(module: str, attr: str, make: Callable) -> None:
        owner, name = resolve(module, attr)
        key = (id(owner), name)
        fn = hooks[key][2] if key in hooks else owner.__dict__[name]
        hooks[key] = (owner, name, make(fn))

    for module, attr in SETUP_CALLS:
        add(module, attr, probe.setup)
    if daemon_epochs:
        add("repro.core.daemon", "PowerDaemon.iteration", probe.keyed_epoch)
    else:
        add("repro.cluster.arbiter", "ClusterArbiter.rebalance", probe.epoch)
    for module, attr in HEARTBEATS:
        add(module, attr, probe.speed.beat)
    return list(hooks.values())


def span_replacements(recorder: SpanRecorder, underneath: list) -> list:
    """Span wrappers for every layer call, stacked over ``underneath``
    (the probe hooks, so both run in a traced pass)."""
    inner = {(id(owner), name): fn for owner, name, fn in underneath}
    out = []
    for layer, module, attr in LAYER_CALLS:
        owner, name = resolve(module, attr)
        fn = inner.pop((id(owner), name), owner.__dict__[name])
        out.append(
            (owner, name, recorder.wrap(layer, fn, _UNITS.get(attr)))
        )
    # probe hooks with no layer wrapper of their own stay installed
    by_key = {(id(owner), name): (owner, name) for owner, name, _ in underneath}
    out.extend(by_key[key] + (fn,) for key, fn in inner.items())
    return out
