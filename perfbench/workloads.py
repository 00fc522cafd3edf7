"""The three workloads: inputs from the seed, one measured pass each.

* ``fleet-day`` — the 4x8x32 = 1,024-node fleet grid over one diurnal
  day (8 epochs, 15-65 % of each rack active, rows phased) under a
  quiet control plane.  The seed draws every app's shares.  Node
  stepping dominates: ``sim.*`` and ``core.*``.
* ``control-plane`` — the same grid with activation 0, so every node
  idle-skips and nothing is simulated, under flaky links plus one
  rack's partition window, an arbiter crash and redo, two liars and 2 %
  fleet-wide garbage telemetry.  The seed picks the rack, the window,
  the liars, and seeds the transport and corruption streams.
* ``paper-quick`` — ``generate_report(quick=True)``: every paper table
  and figure, one worker, no cache.  Its experiments fix their own
  seeds, so the seed is recorded but changes nothing.

Each workload is run in one process (``jobs=1``: stacked stepper,
array engine).  A pass returns timings, per-operation digests and the
modelled counters; :mod:`checks` judges them.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable

from layers import LAYER_CALLS, probe_replacements, span_replacements
from spans import (
    Probe,
    SpanRecorder,
    Speedometer,
    clock,
    intervals_ms,
    patched,
    resolve,
)

FLEET_GRID = {"full": (4, 8, 32), "toy": (1, 2, 4)}
#: one simulated day: 8 arbitration epochs.
FLEET_DAY_EPOCHS = 8
#: daemon iterations per fleet-day epoch (the default epoch is 10).
FLEET_EPOCH_TICKS = 5
#: share levels the seed draws each app's weight from.
SHARE_LEVELS = (25.0, 50.0, 75.0, 100.0)

CONTROL_GRID = {"full": (4, 8, 32), "toy": (1, 2, 8)}
CONTROL_EPOCHS = {"full": 100, "toy": 24}
#: the partitioned rack's outage, epochs (a rack_partition window).
PARTITION_EPOCHS = 8

#: the modelled counters every cluster pass must reproduce.
COUNTERS = (
    "slo_attainment",
    "shed_grants",
    "degraded_grants",
    "safe_node_epochs",
    "trust_violations",
    "crash_recoveries",
)

#: tolerance of the cap-sum invariant, watts.
CAP_SUM_SLACK_W = 1e-6


@dataclass
class PassResult:
    """What one measured pass produced.

    Times are in reference seconds (see :class:`spans.Speedometer`)
    except ``host_s``, which the per-layer shares divide by.
    """

    #: seconds of the workload, set-up excluded.
    wall_s: float
    #: seconds of the pass's set-up.
    setup_s: float
    #: seconds from the first set-up call to the end.
    total_s: float
    #: host seconds of the same span, reference-kernel bursts included.
    host_s: float
    #: ms of each control epoch, set-up excluded.
    epoch_ms: list[float]
    #: one digest per operation (epoch or report section).
    op_digests: list[str]
    #: operation indices that broke an invariant.
    broken: list[int]
    #: SHA-256 of the whole output (journal JSONL or report text).
    digest: str
    counters: dict[str, Any] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)
    #: the pass's output text, for recording expected copies.
    text: str = ""
    probe: Probe | None = None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _hooks(
    stack: ExitStack,
    probe: Probe,
    recorder: SpanRecorder | None,
    *,
    daemon_epochs: bool,
    extra: list | None = None,
) -> None:
    """Install the probe (and span) wrappers for one pass."""
    hooks = probe_replacements(probe, daemon_epochs) + (extra or [])
    if recorder is not None:
        hooks = span_replacements(recorder, hooks)
        stack.enter_context(recorder.gc_watch())
    stack.enter_context(patched(hooks))


# -- cluster workloads -------------------------------------------------------------


def fleet_day_config(seed: int, scale: str):
    from repro.experiments.fleet_exp import fleet_config
    from repro.fleet import DiurnalSchedule

    config = fleet_config(
        *FLEET_GRID[scale],
        seed=seed,
        schedule=DiurnalSchedule(period_epochs=FLEET_DAY_EPOCHS),
        epoch_ticks=FLEET_EPOCH_TICKS,
        engine="array",
    )
    rng = random.Random(seed)
    nodes = tuple(
        dataclasses.replace(
            spec,
            apps=tuple(
                dataclasses.replace(app, shares=rng.choice(SHARE_LEVELS))
                for app in spec.apps
            ),
        )
        for spec in config.nodes
    )
    return dataclasses.replace(config, nodes=nodes)


def control_plane_config(seed: int, scale: str):
    from repro.experiments.fleet_exp import fleet_config, rack_partition
    from repro.faults import TelemetryFault, TelemetryScenario
    from repro.faults.scenario import get_transport_scenario
    from repro.fleet import DiurnalSchedule, leaf_racks

    idle_day = DiurnalSchedule(
        period_epochs=FLEET_DAY_EPOCHS,
        base_active_fraction=0.0,
        peak_active_fraction=0.0,
    )
    config = fleet_config(
        *CONTROL_GRID[scale], seed=seed, schedule=idle_day, engine="array"
    )
    rng = random.Random(seed)
    epochs = CONTROL_EPOCHS[scale]
    rack = rng.choice(leaf_racks(config.topology)).name
    start = rng.randrange(epochs // 4, epochs // 2)
    window = rack_partition(
        config.topology, rack, start, start + PARTITION_EPOCHS
    )
    transport = dataclasses.replace(
        get_transport_scenario("flaky-links"),
        name=f"flaky-links+{window.name}",
        partitions=window.partitions,
    )
    inflator, stuck = rng.sample([spec.name for spec in config.nodes], 2)
    telemetry = TelemetryScenario(
        name="liar-storm-grid",
        faults=(
            TelemetryFault(inflator, "inflate", start_epoch=2, magnitude=3.0),
            TelemetryFault(stuck, "stuck", start_epoch=3),
        ),
        garbage_rate=0.02,
    )
    return dataclasses.replace(
        config,
        transport=transport,
        telemetry=telemetry,
        crash_faults="arbiter-crash",
    )


def _journal_digests(journal) -> tuple[str, list[str], int]:
    """SHA-256 of the journal JSONL, of each epoch's lines, and its size.

    The JSONL of a long fleet run is hundreds of megabytes, so it is
    built once and scanned line by line instead of split."""
    jsonl = journal.to_jsonl()
    per_epoch: dict[int, Any] = {}
    pos = 0
    for entry in journal.entries:
        end = jsonl.index("\n", pos) + 1
        per_epoch.setdefault(entry.epoch, hashlib.sha256()).update(
            jsonl[pos:end].encode()
        )
        pos = end
    epochs = [per_epoch[e].hexdigest() for e in sorted(per_epoch)]
    # json.dumps escapes to ASCII: characters are bytes
    return _sha(jsonl), epochs, len(jsonl)


def cap_sum_broken(grants, budget_w: float) -> list[int]:
    """Epochs where granted plus reserved watts exceed the budget."""
    broken = []
    for index, grant in enumerate(grants):
        reserved = sum(grant.reserved_w.values())
        granted = sum(
            cap for name, cap in grant.caps_w.items()
            if name not in grant.reserved_w
        )
        if granted + reserved > budget_w + CAP_SUM_SLACK_W:
            broken.append(index)
    return broken


def inflate_first_cap(rebalance: Callable) -> Callable:
    """Fault injection for the smoke check: every grant's first cap is
    raised by the whole budget, breaking the cap-sum invariant."""

    def broken(arbiter, epoch, reports):
        grant = rebalance(arbiter, epoch, reports)
        caps = dict(grant.caps_w)
        first = sorted(caps)[0]
        caps[first] += arbiter.config.budget_w
        return dataclasses.replace(grant, caps_w=caps)

    return broken


def cluster_pass(
    make_config: Callable[[], Any],
    n_epochs: int,
    recorder: SpanRecorder | None = None,
    inject: str | None = None,
    summarize: bool = True,
) -> PassResult:
    """One cluster run.  ``summarize`` adds the modelled counters (the
    program's run summary, quadratic in nodes x epochs); later passes of
    a run skip it, since their journals must match the first byte for
    byte anyway."""
    from repro.cluster import ClusterSim
    from repro.experiments.cluster_exp import summarize_cluster_run

    gc.collect()
    probe = Probe(Speedometer(recorder))
    speed = probe.speed
    with ExitStack() as stack:
        if inject == "cap-sum":
            owner, name = resolve("repro.cluster.arbiter",
                                  "ClusterArbiter.rebalance")
            stack.enter_context(patched(
                [(owner, name, inflate_first_cap(owner.__dict__[name]))]
            ))
        _hooks(stack, probe, recorder, daemon_epochs=False)
        host_start = clock()
        start = speed.now()
        config = make_config()
        sim = ClusterSim(config, jobs=1)
        built = speed.now()
        run = sim.run(n_epochs * config.epoch_s)
        end = speed.now()
        host_s = clock() - host_start
    setup_s = (built - start) + probe.setup_s
    counters = {}
    if summarize:
        duration_s = n_epochs * config.epoch_s
        result = summarize_cluster_run(
            run, duration_s=duration_s, warmup_s=duration_s / 5.0
        )
        counters = {name: getattr(result, name) for name in COUNTERS}
    digest, epoch_digests, journal_bytes = _journal_digests(run.journal)
    stats = run.transport_stats
    stepped = sum(
        len(reports.keys() - idle)
        for reports, idle in zip(run.reports, run.idle_sets)
    )
    reused = sum(g.fleet_stats.get("reused", 0) for g in run.grants)
    refills = reused + sum(g.fleet_stats.get("refilled", 0) for g in run.grants)
    wall_s = (end - built) - probe.setup_s
    return PassResult(
        wall_s=wall_s,
        setup_s=setup_s,
        total_s=end - start,
        host_s=host_s,
        epoch_ms=intervals_ms(probe.marks, (end, probe.setup_s)),
        op_digests=epoch_digests,
        broken=cap_sum_broken(run.grants, config.budget_w),
        digest=digest,
        counters=counters,
        extras={
            "sim.node_s_per_host_s": stepped * config.epoch_s / wall_s,
            "cluster.transport.delivered_ratio": (
                stats.delivered / stats.sent if stats.sent else 0.0
            ),
            "fleet.arbiter.reuse_ratio": (
                reused / refills if refills else 0.0
            ),
            "cluster.trust.violations": float(
                sum(len(g.trust_violations) for g in run.grants)
            ),
            "cluster.journal.bytes": float(journal_bytes),
        },
        probe=probe,
    )


# -- the quick paper report ----------------------------------------------------------

#: the report's wall-clock footer, the one line that differs per run.
FOOTER_PREFIX = "(generated in "

#: toy reports shorten every simulated experiment by this factor.
TOY_DURATION_FACTOR = 0.1

#: the experiments a toy report shortens: every figure section (the
#: cluster section's epochs are already short).
_SHORTENED = tuple(
    (module, attr) for layer, module, attr in LAYER_CALLS
    if layer.startswith("experiments.fig")
)


def _shortened(fn: Callable) -> Callable:
    def short(*args, **kwargs):
        for key in ("duration_s", "warmup_s"):
            if key in kwargs:
                kwargs[key] *= TOY_DURATION_FACTOR
        return fn(*args, **kwargs)

    return short


def _changed_table2(fn: Callable) -> Callable:
    """Fault injection for the smoke check: one Table 2 cell changes."""

    def changed():
        rows = [dict(row) for row in fn()]
        first = next(iter(rows[0]))
        rows[0][first] = f"{rows[0][first]}*"
        return rows

    return changed


def report_sections(text: str) -> list[str]:
    """The report split at its ``## `` headings, footer removed."""
    sections: list[list[str]] = [[]]
    for line in text.splitlines():
        if line.startswith(FOOTER_PREFIX):
            continue
        if line.startswith("## ") and sections[-1]:
            sections.append([])
        sections[-1].append(line)
    return ["\n".join(lines) for lines in sections]


def report_pass(
    scale: str,
    recorder: SpanRecorder | None = None,
    inject: str | None = None,
) -> PassResult:
    from repro.experiments.full_report import generate_report

    captured: list[Any] = []
    owner, name = resolve("repro.experiments.cluster_exp",
                          "run_cluster_experiment")
    cluster_fn = owner.__dict__[name]

    def capture(*args, **kwargs):
        result = cluster_fn(*args, **kwargs)
        captured.append(result)
        return result

    extra = [(owner, name, capture)]
    gc.collect()
    probe = Probe(Speedometer(recorder))
    with ExitStack() as stack:
        edits = []
        if scale == "toy":
            for module, attr in _SHORTENED:
                fn_owner, fn_name = resolve(module, attr)
                edits.append((fn_owner, fn_name,
                              _shortened(fn_owner.__dict__[fn_name])))
        if inject == "report-table":
            fn_owner, fn_name = resolve("repro.experiments.tables",
                                        "table2_rows")
            edits.append((fn_owner, fn_name,
                          _changed_table2(fn_owner.__dict__[fn_name])))
        stack.enter_context(patched(edits))
        _hooks(stack, probe, recorder, daemon_epochs=True, extra=extra)
        host_start = clock()
        start = probe.speed.now()
        text = generate_report(quick=True, use_cache=False, jobs=1)
        end = probe.speed.now()
        host_s = clock() - host_start
    sections = report_sections(text)
    epoch_ms: list[float] = []
    for marks in probe.keyed:
        epoch_ms.extend(intervals_ms(marks[:-1], marks[-1]))
    cluster = captured[-1] if captured else None
    body = "\n".join(sections)
    return PassResult(
        wall_s=(end - start) - probe.setup_s,
        setup_s=probe.setup_s,
        total_s=end - start,
        host_s=host_s,
        epoch_ms=epoch_ms,
        op_digests=[_sha(section) for section in sections],
        broken=[],
        digest=_sha(body),
        counters={
            "cap_violations": cluster.cap_violations if cluster else -1,
        },
        extras={},
        text=body + "\n",
        probe=probe,
    )


# -- the workload table ------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    #: nominal host seconds of one full-scale pass, output checks
    #: included: a run makes round(--seconds / pass_s) passes, at
    #: least one.
    pass_s: float
    #: set-up samples per run (passes plus replays of the set-up).
    setup_samples: int
    run_pass: Callable[..., PassResult]
    #: rebuilds the set-up once, for the extra set-up samples.
    replay_setup: Callable[[int, str, PassResult], float]
    #: epochs per pass (cluster workloads), counted failed if it raises.
    epochs: Callable[[str], int] | None = None
    #: epoch percentiles over time rather than over samples.
    weighted_epochs: bool = False


def _cluster_workload(pass_s, setup_samples, make, epochs):
    def run_pass(seed, scale, recorder=None, inject=None, first=True):
        return cluster_pass(
            lambda: make(seed, scale), epochs(scale), recorder, inject,
            summarize=first,
        )

    def replay(seed, scale, done: PassResult) -> float:
        from repro.cluster import ClusterSim

        speed = done.probe.speed
        start = speed.now()
        ClusterSim(make(seed, scale), jobs=1)
        built = speed.now() - start
        return built + done.probe.replay_setup()

    return Workload(pass_s, setup_samples, run_pass, replay, epochs)


WORKLOADS: dict[str, Workload] = {
    "fleet-day": _cluster_workload(
        pass_s=30.0,
        setup_samples=7,
        make=fleet_day_config,
        epochs=lambda scale: FLEET_DAY_EPOCHS,
    ),
    # Runnable for its per-layer breakdown, but not in BENCHMARK.json:
    # its end-to-end spread stayed near 10 % (see NOTES.md).
    "control-plane": _cluster_workload(
        pass_s=20.0,
        setup_samples=5,
        make=control_plane_config,
        epochs=lambda scale: CONTROL_EPOCHS[scale],
    ),
    # The short daemon periods of the array-engine figures all fall in
    # one stretch of the report, so a percentile over samples would
    # measure the host during that stretch only; over time, the
    # percentiles draw on every section.
    "paper-quick": Workload(
        pass_s=40.0,
        setup_samples=7,
        run_pass=lambda seed, scale, recorder=None, inject=None, first=True: (
            report_pass(scale, recorder, inject)
        ),
        replay_setup=lambda seed, scale, done: done.probe.replay_setup(),
        weighted_epochs=True,
    ),
}
