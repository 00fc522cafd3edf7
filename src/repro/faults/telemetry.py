"""Telemetry-corruption fault family: nodes that report *wrong* data.

Every earlier fault family models data that goes *missing* — dropped
envelopes, dead processes, skipped ticks.  This one models data that
arrives on time, well-formed, and **false**: a stuck RAPL sensor
replaying yesterday's reading, a miscalibrated node whose gain drifts a
few percent per epoch, a greedy tenant inflating its demand to siphon
the facility budget, a flapping estimator, and NaN/garbage bursts.

A :class:`TelemetryScenario` is the declarative, seeded schedule
(mirroring :class:`~repro.faults.scenario.TransportScenario`); the
:class:`TelemetryCorruptor` applies it to the report stream inside the
cluster runtime's epoch loop, outside the node stepper, so serial and
stacked stepping corrupt identically and a run replays byte-for-byte.  The
defense lives on the other side of the wire in
:mod:`repro.cluster.trust`: the corruptor only ever touches what nodes
*say*, never what they *do* — ground truth (the simulated power draw)
is untouched, which is exactly what lets the chaos tests measure how
much a liar can steal.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import FaultConfigError
from repro.units import is_zero

if TYPE_CHECKING:
    from repro.cluster.node import NodeEpochReport

#: seed salt so the corruption schedule is independent of the transport
#: and node fault schedules drawn from the same cluster seed.
_SEED_SALT = 0x7E1E3E7A

#: recognized per-node corruption kinds.
TELEMETRY_KINDS = ("stuck", "drift", "inflate", "flap", "garbage")

#: the absurd reading injected by non-NaN garbage, watts.
GARBAGE_POWER_W = 1.0e9


@dataclass(frozen=True)
class TelemetryFault:
    """One node's sensor or estimator lying for a window of epochs.

    ``magnitude`` is kind-specific: the per-epoch gain increment for
    ``drift`` (0.08 = +8 %/epoch), the demand multiplier for
    ``inflate``, and the peak/trough ratio for ``flap``.  ``stuck`` and
    ``garbage`` ignore it.
    """

    node: str
    kind: str
    start_epoch: int = 0
    #: first epoch the telemetry is honest again (exclusive end);
    #: None lies until the end of the run.
    end_epoch: int | None = None
    magnitude: float = 2.0

    def __post_init__(self) -> None:
        if not self.node:
            raise FaultConfigError("telemetry fault needs a node name")
        if self.kind not in TELEMETRY_KINDS:
            known = ", ".join(TELEMETRY_KINDS)
            raise FaultConfigError(
                f"unknown telemetry fault kind {self.kind!r}; "
                f"known: {known}"
            )
        if self.start_epoch < 0:
            raise FaultConfigError("fault start epoch cannot be negative")
        if self.end_epoch is not None and self.end_epoch <= self.start_epoch:
            raise FaultConfigError(
                f"telemetry window [{self.start_epoch}, {self.end_epoch}) "
                "is not a valid epoch range"
            )
        if self.magnitude <= 0:
            raise FaultConfigError("fault magnitude must be positive")

    def active_at(self, epoch: int) -> bool:
        """Whether this fault corrupts reports sent at this epoch."""
        if epoch < self.start_epoch:
            return False
        return self.end_epoch is None or epoch < self.end_epoch


@dataclass(frozen=True)
class TelemetryScenario:
    """Seeded description of one telemetry-corruption schedule.

    ``faults`` target named nodes deterministically; ``garbage_rate``
    is a per-report background probability that *any* node's reading is
    replaced by NaN or an absurd value (a fleet-wide sensor-quality
    floor, rolled from the one seeded RNG in sorted-node order).
    """

    name: str = "custom"
    seed: int = 0
    faults: tuple[TelemetryFault, ...] = ()
    garbage_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise FaultConfigError("seed cannot be negative")
        if not 0.0 <= self.garbage_rate <= 1.0:
            raise FaultConfigError(
                f"garbage_rate must be in [0, 1], got {self.garbage_rate}"
            )

    @property
    def quiet(self) -> bool:
        """No corruption configured: every report is honest."""
        return not self.faults and is_zero(self.garbage_rate)

    def with_seed(self, seed: int) -> "TelemetryScenario":
        """The same schedule shape replayed from a different seed."""
        return dataclasses.replace(self, seed=seed)

    def node_names(self) -> tuple[str, ...]:
        """Nodes with targeted faults (the scenario's named liars)."""
        return tuple(sorted({f.node for f in self.faults}))

    def faults_for(self, node: str, epoch: int) -> tuple[TelemetryFault, ...]:
        """Active targeted faults for one node at one epoch."""
        return tuple(
            f for f in self.faults
            if f.node == node and f.active_at(epoch)
        )


#: Named telemetry scenarios, mild to severe.  All reference
#: ``node0``/``node1`` — the first nodes of every CLI-built and curated
#: cluster — and epoch numbers assume the 14-epoch evaluation runs.
#: ``liar-storm`` is the acceptance scenario: two simultaneous liars
#: plus background garbage, under which honest nodes' grants must stay
#: within 5 % of the corruption-free run.
TELEMETRY_SCENARIOS: dict[str, TelemetryScenario] = {
    "none": TelemetryScenario(name="none"),
    # the whole report freezes (epoch field included), so the arbiter
    # sees a payload that stops aging even though envelopes keep
    # arriving — the classic stuck-RAPL signature.
    "stuck-sensor": TelemetryScenario(
        name="stuck-sensor",
        faults=(TelemetryFault("node0", "stuck", start_epoch=3),),
    ),
    # a greedy tenant triples its reported draw and feigns throttling
    # to claim the whole budget; trust decay must starve it instead.
    "greedy-node": TelemetryScenario(
        name="greedy-node",
        faults=(
            TelemetryFault("node0", "inflate", start_epoch=2,
                           magnitude=3.0),
        ),
    ),
    # gain miscalibration compounding +8 %/epoch: plausible at first,
    # caught by internal consistency once power and headroom disagree.
    "drifting-gain": TelemetryScenario(
        name="drifting-gain",
        faults=(
            TelemetryFault("node0", "drift", start_epoch=2,
                           magnitude=0.08),
        ),
    ),
    # demand alternating 2x/0.5x every epoch: each report is
    # self-consistent but the swing violates rate-of-change limits.
    "flapping-demand": TelemetryScenario(
        name="flapping-demand",
        faults=(
            TelemetryFault("node0", "flap", start_epoch=2,
                           magnitude=2.0),
        ),
    ),
    # a bounded NaN burst: the validator must never let a NaN reach
    # the water-filling, and the node must recover trust after epoch 8.
    "nan-burst": TelemetryScenario(
        name="nan-burst",
        faults=(
            TelemetryFault("node0", "garbage", start_epoch=4,
                           end_epoch=8),
        ),
    ),
    # everything at once: a greedy inflator, a stuck sensor, and
    # fleet-wide background garbage.  The acceptance scenario.
    "liar-storm": TelemetryScenario(
        name="liar-storm",
        faults=(
            TelemetryFault("node0", "inflate", start_epoch=2,
                           magnitude=3.0),
            TelemetryFault("node1", "stuck", start_epoch=3),
        ),
        garbage_rate=0.02,
    ),
}


def get_telemetry_scenario(
    name: str, *, seed: int | None = None
) -> TelemetryScenario:
    """Resolve a named telemetry scenario, optionally re-seeded."""
    try:
        scenario = TELEMETRY_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(TELEMETRY_SCENARIOS))
        raise FaultConfigError(
            f"unknown telemetry scenario {name!r}; known: {known}"
        ) from None
    if seed is not None:
        scenario = scenario.with_seed(seed)
    return scenario


class TelemetryCorruptor:
    """Applies one scenario to the outgoing report stream.

    Runs in the cluster epoch loop between report generation and
    transport send, so every stepper corrupts identically.  All RNG draws (the
    ``garbage_rate`` rolls) happen in sorted-node order; targeted
    faults consume no randomness at all.  State is the RNG plus the
    frozen first-seen reports of stuck sensors, both of which
    checkpoint into the journal fence via :meth:`snapshot`.
    """

    def __init__(
        self, scenario: TelemetryScenario, *, seed: int | None = None
    ):
        if seed is not None:
            scenario = scenario.with_seed(seed)
        self.scenario = scenario
        self._rng = random.Random(scenario.seed ^ _SEED_SALT)
        #: node -> the report its stuck sensor latched onto.
        self._stuck: dict[str, "NodeEpochReport"] = {}

    def corrupt(
        self, epoch: int, reports: dict[str, "NodeEpochReport"]
    ) -> dict[str, "NodeEpochReport"]:
        """The scenario's view of one epoch's honest reports.

        Returns a new dict (same key order); the inputs are never
        mutated — the runtime keeps the honest reports as ground truth
        for traces and results.
        """
        if self.scenario.quiet:
            return dict(reports)
        corrupted: dict[str, "NodeEpochReport"] = {}
        for name in sorted(reports):
            corrupted[name] = self._corrupt_one(epoch, reports[name])
        return {name: corrupted[name] for name in reports}

    def _corrupt_one(
        self, epoch: int, report: "NodeEpochReport"
    ) -> "NodeEpochReport":
        for fault in self.scenario.faults_for(report.name, epoch):
            report = self._apply(fault, epoch, report)
        if self.scenario.garbage_rate > 0:
            if self._rng.random() < self.scenario.garbage_rate:
                value = (
                    float("nan")
                    if self._rng.random() < 0.5
                    else GARBAGE_POWER_W
                )
                report = dataclasses.replace(
                    report, mean_power_w=value, headroom_w=value
                )
        return report

    def _apply(
        self, fault: TelemetryFault, epoch: int, report: "NodeEpochReport"
    ) -> "NodeEpochReport":
        if fault.kind == "stuck":
            # latch the first report seen in the window and replay it
            # verbatim (epoch field included) forever after.
            if report.name not in self._stuck:
                self._stuck[report.name] = report
            return self._stuck[report.name]
        if fault.kind == "drift":
            # compounding gain error on the power channel only; the
            # stale headroom makes the report internally inconsistent.
            gain = (1.0 + fault.magnitude) ** (
                epoch - fault.start_epoch + 1
            )
            return dataclasses.replace(
                report, mean_power_w=report.mean_power_w * gain
            )
        if fault.kind == "inflate":
            # a greedy node: inflated draw, feigned throttling, zero
            # headroom — the maximal plausible-looking demand claim.
            return dataclasses.replace(
                report,
                mean_power_w=report.mean_power_w * fault.magnitude,
                throttle_pressure=1.0,
                headroom_w=0.0,
            )
        if fault.kind == "flap":
            # alternate peak/trough by epoch parity; each report stays
            # self-consistent, but the swing trips rate-of-change.
            factor = (
                fault.magnitude
                if (epoch - fault.start_epoch) % 2 == 0
                else 1.0 / fault.magnitude
            )
            power = report.mean_power_w * factor
            return dataclasses.replace(
                report,
                mean_power_w=power,
                headroom_w=max(report.cap_w - power, 0.0),
            )
        # "garbage": a NaN burst on the targeted node.
        return dataclasses.replace(
            report,
            mean_power_w=float("nan"),
            headroom_w=float("nan"),
        )

    # -- checkpointing -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Checkpoint RNG and stuck-sensor latches (journal fence).

        Stuck reports are kept as live frozen dataclasses; the journal
        converts them to JSON form when dumped to disk.
        """
        return {
            "rng": self._rng.getstate(),
            "stuck": {
                name: self._stuck[name] for name in sorted(self._stuck)
            },
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Restore a fence checkpoint into this (same-scenario) corruptor."""
        self._rng.setstate(state["rng"])
        self._stuck = dict(state["stuck"])
