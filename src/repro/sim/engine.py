"""Simulation engine: tick loop with periodic callbacks.

The engine advances a :class:`~repro.sim.chip.Chip` through simulated
time and invokes registered periodic callbacks — most importantly the
power daemon's 1 s control iteration (paper section 5) and the
telemetry sampler.  Callbacks fire *after* the ticks covering their
period have run, which matches a real daemon waking from ``sleep(1)``
and reading counters that accumulated while it slept.

Periodic callbacks accept an optional *gate* — a scheduling-fault hook
consulted at every deadline that can let the callback fire, drop the
deadline outright (a missed wakeup; the next deadline is a full period
later), or defer it by some seconds (scheduler jitter).  The fault
injector (:mod:`repro.faults.ticks`) uses this to model a daemon that
oversleeps or gets preempted past its deadline.  One-shot events
(:meth:`SimEngine.at`) model externally-timed happenings such as an
application crashing mid-run.

The tick loop steps from deadline to deadline: it computes the next
pending deadline across all periodic and one-shot callbacks and
advances the whole gap in one call.  A gate is consulted only when the
loop reaches its callback's deadline, and the loop stops at every
deadline, so a fault-injected run draws its fault stream in the order a
tick-by-tick loop would and steps like any other run.

Orthogonally to *when* callbacks fire, ``engine="scalar"|"array"``
selects *how* a gap is stepped: ``Chip.advance_ticks`` (the
per-tick reference loop) or :func:`repro.sim.soa.advance_chip`, the
struct-of-arrays numpy batch, which is bit-identical by contract and
hands the ticks it cannot batch to the fused per-tick loop
(:mod:`repro.sim.fused`).  :func:`run_lockstep` extends the array path
across engines: chips of multiple nodes stepped through the same window
are stacked along the core axis into one batch, and what they produce
stays in the window's arrays from deadline to deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

from repro.analysis.sanitizer import StateDigest, sanitize_enabled
from repro.errors import SimulationError
from repro.sim import soa
from repro.sim.chip import Chip
from repro.units import is_zero

#: engine selector values accepted by :class:`SimEngine` and the config
#: layers above it.
ENGINES = ("scalar", "array")

#: What a gate may return: ``"fire"`` (or ``None``) runs the callback,
#: ``"drop"`` skips this deadline entirely, a positive float defers the
#: deadline by that many seconds (at least one tick).
GateResult = Union[str, float, None]
TickGate = Callable[[float], GateResult]

#: A due callback with the simulated time it fires at.
DueCall = tuple[Callable[[float], object], float]
#: A batch entry point (see :meth:`SimEngine.every`): given the due
#: calls of one lockstep boundary and the lockstep window, it must have
#: the effect of ``callback(now_s)`` for every pair it takes, and
#: returns the pairs it leaves to be fired in place.
BatchEntry = Callable[[list[DueCall], soa.Window], list[DueCall]]


def _chip_digest(chip: Chip) -> dict[str, object]:
    """Canonical per-window chip state for the determinism sanitizer.

    Everything downstream software can observe: simulated time, package
    energy, and the per-core frequency and counter vectors.  Floats are
    left exact — the sanitizer's canonical form uses ``repr``, so a
    single-ULP divergence between engines is visible.
    """
    n = chip.platform.n_cores
    return {
        "time_s": float(chip.time_s),
        "pkg_energy_j": float(chip.energy.package_energy_joules),
        "eff_mhz": [float(chip.effective_frequency(i)) for i in range(n)],
        "aperf": [float(x) for x in chip._aperf_cycles],
        "mperf": [float(x) for x in chip._mperf_cycles],
        "instr": [float(x) for x in chip._instr_total],
    }


@dataclass
class _Periodic:
    period_ticks: int
    callback: Callable[[float], None]
    next_due: int
    gate: TickGate | None = None
    batch: BatchEntry | None = None


@dataclass
class _OneShot:
    due_tick: int
    callback: Callable[[float], None]
    fired: bool = False


class SimEngine:
    """Drives a chip and its periodic software."""

    def __init__(self, chip: Chip, *, engine: str = "array"):
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self.chip = chip
        #: resolved stepping mode: ``"scalar"`` or ``"array"``.
        self.engine_mode = engine
        self._periodics: list[_Periodic] = []
        self._oneshots: list[_OneShot] = []
        self._ticks_run = 0
        #: number of deadline-to-deadline chip advances taken
        #: (observability/tests).
        self.batched_segments = 0
        #: determinism sanitizer (``REPRO_SANITIZE=1``): records a chip
        #: digest after every ``run_ticks`` window, keyed by tick count,
        #: so scalar/array/lockstep runs can be diffed field by field.
        self.sanitizer: StateDigest | None = (
            StateDigest(f"engine/{engine}") if sanitize_enabled() else None
        )

    @property
    def time_s(self) -> float:
        return self.chip.time_s

    def every(
        self, period_s: float, callback: Callable[[float], None], *,
        phase_s: float | None = None,
        gate: TickGate | None = None,
        batch: BatchEntry | None = None,
    ) -> None:
        """Register ``callback(sim_time_s)`` to run every ``period_s``.

        ``phase_s`` delays the first invocation (default: one full
        period, like a daemon that sleeps before its first sample).  A
        phase of exactly zero fires at the next tick boundary; a
        non-zero phase below one tick cannot be honoured and raises
        rather than being silently rewritten.

        ``gate`` is consulted at every deadline; see :data:`GateResult`.

        ``batch`` is an optional batch entry point for
        :func:`run_lockstep`: at a boundary where this is the engine's
        only due callback, the lockstep loop hands ``(callback, now_s)``
        to one ``batch(due, window)`` call per boundary together with
        every other gang engine's, instead of calling it in place.  It
        must have the same effect as calling each callback it takes and
        returns the rest, which the loop fires in place;
        :meth:`run_ticks` always calls the callback itself.
        """
        period_ticks = int(round(period_s / self.chip.tick_s))
        if period_ticks <= 0:
            raise SimulationError(
                f"period {period_s}s is below one tick "
                f"({self.chip.tick_s}s)"
            )
        if phase_s is None:
            first = self._ticks_run + period_ticks
        else:
            phase_ticks = int(round(phase_s / self.chip.tick_s))
            if phase_ticks < 0:
                raise SimulationError("phase cannot be negative")
            if phase_ticks == 0 and not is_zero(phase_s):
                raise SimulationError(
                    f"phase {phase_s}s is below one tick "
                    f"({self.chip.tick_s}s); use phase_s=0 for the next "
                    "tick boundary"
                )
            first = self._ticks_run + phase_ticks
        self._periodics.append(
            _Periodic(period_ticks, callback, first, gate, batch)
        )

    def at(self, time_s: float, callback: Callable[[float], None]) -> None:
        """Schedule a one-shot ``callback(sim_time_s)`` at ``time_s``.

        Fires after the tick covering ``time_s`` has run, alongside any
        periodic callbacks due on the same boundary.
        """
        due_tick = int(round(time_s / self.chip.tick_s))
        if due_tick <= self._ticks_run:
            raise SimulationError(
                f"one-shot at {time_s}s is not in the future "
                f"(simulated time is {self.time_s}s)"
            )
        self._oneshots.append(_OneShot(due_tick, callback))

    def run(self, duration_s: float) -> None:
        """Advance simulated time by ``duration_s``."""
        n_ticks = int(round(duration_s / self.chip.tick_s))
        if n_ticks < 0:
            raise SimulationError("duration cannot be negative")
        self.run_ticks(n_ticks)

    def _process_due_callbacks(
        self,
        window: soa.Window | None = None,
        batches: dict[BatchEntry, list[tuple["SimEngine", DueCall]]]
        | None = None,
    ) -> None:
        """Fire every periodic/one-shot due at the current tick count.

        In a lockstep ``window``, a lone due callback that registered a
        batch entry point is queued in ``batches`` instead, with the
        chip's time from the window, and its deadline advanced as
        below; anything else due fires in place once the window has
        handed the chip back to its objects.
        """
        if window is not None:
            now = self._ticks_run
            due = [p for p in self._periodics if now >= p.next_due]
            shot = any(
                not o.fired and now >= o.due_tick for o in self._oneshots
            )
            if not due and not shot:
                return
            if len(due) == 1 and not shot:
                lone = due[0]
                if lone.batch is not None and lone.gate is None:
                    assert batches is not None
                    call = (lone.callback, window.time_s(self.chip))
                    batches.setdefault(lone.batch, []).append((self, call))
                    lone.next_due = now + lone.period_ticks
                    return
            window.release(self.chip)
        flushed = False
        for periodic in self._periodics:
            if self._ticks_run < periodic.next_due:
                continue
            verdict: GateResult = "fire"
            if periodic.gate is not None:
                verdict = periodic.gate(self.chip.time_s)
            if verdict == "drop":
                # missed deadline: the wakeup never happens and the
                # next one is a full period out
                periodic.next_due = (
                    self._ticks_run + periodic.period_ticks
                )
                continue
            if isinstance(verdict, (int, float)) and not isinstance(
                verdict, bool
            ):
                # jitter: the wakeup slips by the returned seconds
                if verdict < 0:
                    raise SimulationError("gate returned a negative deferral")
                delay = int(round(verdict / self.chip.tick_s))
                periodic.next_due = self._ticks_run + max(1, delay)
                continue
            if not flushed:
                # counters are published lazily; latch them so
                # software callbacks read fresh values
                self.chip.flush_counters()
                flushed = True
            periodic.callback(self.chip.time_s)
            periodic.next_due = self._ticks_run + periodic.period_ticks
        any_fired = False
        for oneshot in self._oneshots:
            if oneshot.fired or self._ticks_run < oneshot.due_tick:
                continue
            if not flushed:
                self.chip.flush_counters()
                flushed = True
            oneshot.callback(self.chip.time_s)
            oneshot.fired = True
            any_fired = True
        if any_fired:
            self._oneshots = [
                o for o in self._oneshots if not o.fired
            ]

    def _fire_released(self, call: DueCall, window: soa.Window) -> None:
        """Fire in place a queued call its batch entry left."""
        window.release(self.chip)
        self.chip.flush_counters()
        callback, now_s = call
        callback(now_s)

    def _gap_to_next_deadline(self, remaining: int) -> int:
        """Ticks until the earliest pending deadline, capped and >= 1."""
        due = [p.next_due for p in self._periodics]
        due += [o.due_tick for o in self._oneshots if not o.fired]
        if not due:
            return remaining
        return max(1, min(remaining, min(due) - self._ticks_run))

    def run_ticks(self, n_ticks: int) -> None:
        remaining = n_ticks
        while remaining > 0:
            gap = self._gap_to_next_deadline(remaining)
            if self.engine_mode == "array":
                soa.advance_chip(self.chip, gap)
            else:
                self.chip.advance_ticks(gap)
            self._ticks_run += gap
            remaining -= gap
            self.batched_segments += 1
            self._process_due_callbacks()
        self.chip.flush_counters()
        if self.sanitizer is not None and n_ticks > 0:
            self.sanitizer.record(
                self._ticks_run, "chip", _chip_digest(self.chip)
            )


def run_lockstep(engines: Sequence[SimEngine], n_ticks: int) -> None:
    """Advance several engines through the same tick window together.

    Engines that run the scalar engine step individually; the rest,
    gated ones included, are gang-stepped: their chips advance as one
    stacked ``(ticks, nodes x cores)`` array batch per shared deadline
    gap, with each engine's callbacks fired at its own deadlines exactly
    as :meth:`SimEngine.run_ticks` would.  Semantically equivalent to
    running each engine's ``run_ticks(n_ticks)`` in sequence — node
    chips are independent, so interleaving their ticks cannot change
    any result.

    The whole call is one :class:`~repro.sim.soa.Window`: what the
    chips produce stays in its arrays from deadline to deadline, and
    each chip is written back and flushed once, at the end.  A callback
    registered with a batch entry point (the power daemon's iteration,
    see :mod:`repro.core.gang`) is not fired in place when it is its
    engine's only callback due at a boundary: every such call of the
    boundary goes to one ``batch(due, window)`` call, which reads the
    counters from the window.  Any other callback (a gated one
    included), and every call the batch entry leaves, fires in place
    after the window has handed that engine's chip back to its objects
    (it is gathered again before its next batch).
    """
    gang: list[SimEngine] = []
    for engine in engines:
        if engine.engine_mode != "array":
            engine.run_ticks(n_ticks)
        else:
            gang.append(engine)
    if not gang:
        return
    chips = [engine.chip for engine in gang]
    window = soa.Window(chips)
    try:
        remaining = n_ticks
        while remaining > 0:
            gap = min(
                engine._gap_to_next_deadline(remaining) for engine in gang
            )
            soa.advance_chips(chips, gap, window)
            batches: dict[BatchEntry, list[tuple[SimEngine, DueCall]]] = {}
            for engine in gang:
                engine._ticks_run += gap
                engine.batched_segments += 1
                engine._process_due_callbacks(window, batches)
            for batch, queued in batches.items():
                left = batch([call for _, call in queued], window)
                if left:
                    ids = set(map(id, left))
                    for engine, call in queued:
                        if id(call) in ids:
                            engine._fire_released(call, window)
            remaining -= gap
    finally:
        window.close()
    for engine in gang:
        engine.chip.flush_counters()
        if engine.sanitizer is not None and n_ticks > 0:
            engine.sanitizer.record(
                engine._ticks_run, "chip", _chip_digest(engine.chip)
            )
