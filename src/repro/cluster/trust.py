"""Model-based demand validation, trust scores, and the brownout ladder.

Every robustness layer before this one assumed nodes fail *silently or
cleanly*; the arbiter still took each demand report at face value, so a
stuck sensor or a greedy tenant could siphon the whole facility budget
(see :mod:`repro.faults.telemetry` for the attack family).  This module
is the defense, three mechanisms the arbiters compose per epoch:

* :class:`DemandValidator` cross-checks every *fresh* report against
  the node's own power model — the platform envelope (a node cannot
  draw more than its P-state table allows), the cap it was actually
  granted, rate-of-change limits, and the internal consistency of the
  power/headroom/throttle channels — and clamps implausible values to
  the model envelope, so no lie ever reaches the water-filling raw.
  Each epoch's fresh reports go once through :meth:`DemandValidator.
  screen`, one numpy pass that proves the clean majority clean;
  :meth:`DemandValidator.validate` judges the residue, one report at a
  time, and is the reference the tests hold the screen to.
* :class:`TrustBook` keeps a per-node trust score in ``[0, 1]``:
  exponential decay on each violating epoch, slow probationary
  recovery on clean ones.  Low-trust demand is discounted toward the
  node's floor and repeat offenders are **quarantined** (demand pinned
  at the floor) once the score falls below the threshold — with decay
  of 0.5 per violating epoch against a threshold of 0.3, an offender
  is quarantined within **2 violating epochs** of first detection.
* :class:`BrownoutController` is the facility ladder
  NORMAL → BROWNOUT1 → BROWNOUT2 → SHED for *sustained* infeasibility.
  Demand exceeding the budget is ordinary contention — the water-fill
  resolves it every epoch.  Infeasibility is the *commitment* layer
  overflowing: live members' floors plus silent members' lease
  reservations exceeding the budget, which no fill can satisfy.  When
  that load stays above the enter ratio for ``k`` consecutive epochs
  the ladder steps up, shedding in priority order — idle-node floors
  first, then best-effort shares, then floors themselves — and steps
  down only after a longer run of calm epochs (hysteresis), so the
  fleet cannot flap.

Validation and trust updates run only on reports with fresh samples:
a node that is merely partitioned or held over is judged by the lease
ladder (:mod:`repro.cluster.lease`), never by trust — the two penalty
tracks cannot double-fire.  All state here snapshots into the journal
fence, so crash recovery replays trust decisions byte-identically.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Collection, Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.cluster.node import NodeEpochReport

#: multiplier applied to the trust score on each violating epoch.
TRUST_DECAY = 0.5

#: score regained per clean fresh epoch once probation has passed.
TRUST_RECOVERY = 0.1

#: clean fresh epochs a violator must string together before its score
#: starts recovering (the probationary period).
TRUST_PROBATION_EPOCHS = 2

#: scores below this are quarantined: demand pinned at the floor.
QUARANTINE_THRESHOLD = 0.3

#: tolerance above the platform maximum before a power reading is
#: physically impossible (sensor quantization headroom).
PLATFORM_MARGIN = 1.05

#: tolerance above the enforced cap before a reading is implausible
#: (the daemon's backstop allows brief overshoot, not 10 %).
CAP_OVERAGE = 1.1

#: maximum plausible epoch-over-epoch demand growth factor.
RATE_GROWTH = 1.5

#: a booting node with no accepted history may plausibly report up to
#: this multiple of its floor before the rate limit engages.
BOOT_FLOOR_FACTOR = 2.0

#: absolute tolerance on the headroom-consistency cross-check, watts.
#: Honest daemons compute ``headroom = max(cap - power, 0)`` from the
#: same floats they report, so the honest mismatch is exactly zero.
_CONSISTENCY_TOL_W = 1e-6

#: brownout ladder levels, in order.
BROWNOUT_LEVELS = ("normal", "brownout1", "brownout2", "shed")

#: committed load above ``enter_ratio`` x budget for this many
#: consecutive epochs steps the ladder up one level.
BROWNOUT_ENTER_EPOCHS = 2

#: committed load at or below ``exit_ratio`` x budget for this many
#: consecutive epochs steps the ladder down one level (hysteresis).
BROWNOUT_EXIT_EPOCHS = 3

#: committed/budget ratio that counts as infeasible.  Commitments are
#: floors plus lease reservations — config validation guarantees the
#: all-floors sum fits, so only reservation storms (partitions holding
#: budget at old caps) push past this.
BROWNOUT_ENTER_RATIO = 1.02

#: committed/budget ratio that counts as calm: the commitments fit the
#: budget again.  Strictly below the enter ratio so the ladder cannot
#: flap across one boundary.
BROWNOUT_EXIT_RATIO = 1.0

#: fraction of a node's floor kept when brownout sheds the floor
#: itself — the same idle-power fraction the diurnal scheduler uses.
BROWNOUT_FLOOR_FRACTION = 0.6


class DemandValidator:
    """Clamps each fresh report to the node's model envelope.

    Stateful only in the per-node last *accepted* power reading, which
    anchors the rate-of-change limit; that dict checkpoints into the
    journal fence via :meth:`snapshot`, so a restored validator judges
    the next report exactly as the original would.  ``validate`` never
    mutates the incoming report — it returns a clamped copy plus the
    violation reasons, and the caller stores the clamped copy as demand
    history so a lie never survives in ``_last_report`` either.
    """

    def __init__(self, lease_ttl: int):
        self._ttl = lease_ttl
        #: node -> last accepted (post-clamp) power reading, watts.
        self._prev_power: dict[str, float] = {}

    def validate(
        self,
        report: NodeEpochReport,
        *,
        epoch: int,
        floor_w: float,
        max_cap_w: float,
        granted_w: float | None,
    ) -> tuple[NodeEpochReport, tuple[str, ...]]:
        """Cross-check one fresh report against the node's power model.

        ``granted_w`` is the cap *this arbiter* last granted the node
        (None for a member with no grant yet); ``max_cap_w`` is the
        platform envelope from the node's P-state table.  Returns
        ``(clamped_report, violations)`` — an empty violations tuple
        means the report passed every check and is byte-identical to
        the input.
        """
        violations: list[str] = []
        power = report.mean_power_w
        throttle = report.throttle_pressure
        headroom = report.headroom_w
        prev = self._prev_power.get(report.name)

        finite = all(
            math.isfinite(v) for v in (power, throttle, headroom)
        )
        if not finite:
            # NaN/inf anywhere poisons every downstream fill: fall back
            # to the last accepted reading (or the floor) wholesale.
            violations.append("non-finite")
            power = prev if prev is not None else floor_w
            throttle = 0.0
        else:
            if not 0.0 <= throttle <= 1.0:
                violations.append("throttle-range")
                throttle = min(max(throttle, 0.0), 1.0)
            expected = max(report.cap_w - power, 0.0)
            if abs(headroom - expected) > _CONSISTENCY_TOL_W:
                # power and headroom disagree about the same cap: one
                # of the two channels is miscalibrated (gain drift).
                violations.append("inconsistent-headroom")

        # the model envelope: physically bounded by the platform, and
        # plausibly bounded by the enforced cap and the ramp rate.  The
        # first accepted report seeds the model and is held only to the
        # platform bound — boot overshoot (the daemon's backstop
        # engaging mid-epoch) is real and can exceed the cap ratio.
        if prev is None:
            ceiling = max_cap_w * PLATFORM_MARGIN
        else:
            claimed_cap = min(max(report.cap_w, 0.0), max_cap_w)
            enforced = max(granted_w or 0.0, claimed_cap)
            ceiling = max(
                enforced * CAP_OVERAGE,
                floor_w * BOOT_FLOOR_FACTOR,
                prev * RATE_GROWTH,
            )
            ceiling = min(ceiling, max_cap_w * PLATFORM_MARGIN)
        if power > max_cap_w * PLATFORM_MARGIN:
            violations.append("exceeds-platform")
        elif power > ceiling + _CONSISTENCY_TOL_W:
            violations.append("implausible-demand")
        power = min(power, ceiling)

        self._prev_power[report.name] = power

        # a payload frozen in the past while envelopes keep arriving is
        # the stuck-sensor signature; normal delivery lag (including
        # transport delay) never exceeds the lease TTL.
        if epoch - report.epoch > self._ttl:
            violations.append("stale-payload")

        if not violations:
            return report, ()
        headroom = max(report.cap_w - power, 0.0)
        if not math.isfinite(headroom):
            headroom = 0.0
        clamped = dataclasses.replace(
            report,
            mean_power_w=power,
            throttle_pressure=throttle,
            headroom_w=headroom,
        )
        return clamped, tuple(violations)

    def screen(
        self,
        reports: Sequence[NodeEpochReport],
        names: Sequence[str],
        *,
        epoch: int,
        floors: Mapping[str, float],
        maxes: Mapping[str, float],
        granted: Mapping[str, float],
    ) -> Sequence[int]:
        """Prescreen one epoch's fresh reports; ``names[i]`` must be
        ``reports[i].name``.

        Returns the indices whose reports must still go through
        :meth:`validate`; every other index is *proven* clean — the
        report passes every model check unmodified, and accepting it
        leaves the validator in exactly the state :meth:`validate`
        would have left.

        One numpy pass replicates the :meth:`validate` ceiling over the
        whole batch but accepts only readings strictly inside it — no
        float tolerance, so borderline readings fall through to
        :meth:`validate` for the authoritative verdict, and a NaN
        anywhere (channels or missing anchor) fails every comparison
        and defers too.  Accepted reports have their rate anchors
        updated here, exactly as :meth:`validate` would.

        The combined outcome — accepted reports, violation verdicts,
        validator state — is identical to validating every report
        individually; the unit tests assert that equivalence on
        adversarial batches and through the arbiters' ingest.
        """
        cut = epoch - self._ttl
        p = np.array([r.mean_power_w for r in reports])
        tp = np.array([r.throttle_pressure for r in reports])
        h = np.array([r.headroom_w for r in reports])
        c = np.array([r.cap_w for r in reports])
        e = np.array([r.epoch for r in reports])
        f = np.array([floors[name] for name in names])
        m = np.array([maxes[name] for name in names])
        g = np.array([granted.get(name, 0.0) for name in names])
        prev = np.array(
            [self._prev_power.get(name, math.nan) for name in names]
        )
        # NaN fails every comparison, landing the report in the
        # suspect set — exactly where a non-finite reading belongs.
        ok = np.abs(h - np.maximum(c - p, 0.0)) <= _CONSISTENCY_TOL_W
        ok &= (tp >= 0.0) & (tp <= 1.0)
        ok &= e >= cut
        claimed = np.minimum(np.maximum(c, 0.0), m)
        ceiling = np.minimum(
            np.maximum.reduce(
                [
                    np.maximum(g, claimed) * CAP_OVERAGE,
                    f * BOOT_FLOOR_FACTOR,
                    prev * RATE_GROWTH,
                ]
            ),
            m * PLATFORM_MARGIN,
        )
        ok &= p <= ceiling
        for i in np.nonzero(ok)[0].tolist():
            self._prev_power[names[i]] = reports[i].mean_power_w
        suspects: list[int] = np.nonzero(~ok)[0].tolist()
        return suspects

    def forget(self, name: str) -> None:
        """Drop a retired member's rate-limit anchor."""
        self._prev_power.pop(name, None)

    def snapshot(self) -> dict[str, float]:
        """Checkpoint the rate-limit anchors (journal fence)."""
        return dict(sorted(self._prev_power.items()))

    def restore(self, state: dict[str, float]) -> None:
        self._prev_power = dict(state)


class TrustBook:
    """Per-node trust scores: decay on violations, slow recovery.

    Scores start at 1.0 (full trust) and are updated **only** from
    fresh reports — silence is the lease ladder's jurisdiction, so a
    partitioned node keeps its score frozen and is never
    double-penalized.  A violating epoch halves the score; a clean
    epoch first serves out a probation, then earns back
    :data:`TRUST_RECOVERY`.  Below :data:`QUARANTINE_THRESHOLD` the
    node is quarantined and its demand ceiling collapses to its floor.
    """

    def __init__(self) -> None:
        #: node -> trust score in [0, 1]; absent means 1.0.
        self._score: dict[str, float] = {}
        #: node -> consecutive clean fresh epochs since last violation.
        self._streak: dict[str, int] = {}
        #: total violating node-epochs observed (health roll-ups).
        self.violations = 0

    def observe(self, name: str, violated: bool) -> None:
        """Fold one fresh epoch's verdict into the node's score."""
        if violated:
            self.violations += 1
            self._score[name] = self.score(name) * TRUST_DECAY
            self._streak[name] = 0
            return
        if name not in self._score:
            # full trust already: nothing to recover, and the streak
            # is only ever consulted while a score exists — skip the
            # bookkeeping so clean epochs on honest nodes are free.
            return
        streak = self._streak.get(name, 0) + 1
        self._streak[name] = streak
        score = self._score[name]
        if streak > TRUST_PROBATION_EPOCHS:
            score = min(1.0, score + TRUST_RECOVERY)
            if score >= 1.0:
                # fully restored: drop the bookkeeping so the node is
                # indistinguishable from one that never violated.
                del self._score[name]
                del self._streak[name]
            else:
                self._score[name] = score

    def observe_clean(
        self, names: Iterable[str], *, skip: Collection[str] = ()
    ) -> None:
        """Batch clean-epoch observes for one epoch's fresh reports.

        ``skip`` holds the names already observed individually this
        epoch (the validator's suspect set).  When no node holds a
        degraded score the whole call is a single dict check — the
        common case on a healthy fleet.
        """
        if not self._score:
            return
        for name in names:
            if name not in skip:
                self.observe(name, False)

    def score(self, name: str) -> float:
        return self._score.get(name, 1.0)

    @property
    def scores(self) -> Mapping[str, float]:
        """Live read-only view of the degraded scores (absent = 1.0).

        Hot arbitration loops probe this directly — emptiness means
        every node holds full trust and per-node discount calls can
        be skipped wholesale.  Callers must not mutate it.
        """
        return self._score

    def quarantined(self, name: str) -> bool:
        return (
            self._score.get(name, 1.0) < QUARANTINE_THRESHOLD
        )

    def quarantined_names(self) -> tuple[str, ...]:
        return tuple(
            sorted(n for n in self._score if self.quarantined(n))
        )

    def discount_hi(self, name: str, lo: float, hi: float) -> float:
        """The trust-discounted demand ceiling.

        Full trust passes ``hi`` through bit-identically (so trusted
        runs match the pre-trust arbiter byte-for-byte); partial trust
        interpolates toward the floor; quarantine pins to it.
        """
        if not self._score:
            return hi
        score = self._score.get(name, 1.0)
        if score >= 1.0 or hi <= lo:
            return hi
        if score < QUARANTINE_THRESHOLD:
            return lo
        return lo + (hi - lo) * score

    def forget(self, name: str) -> None:
        """Reset a retired member: a rebooted node starts fresh."""
        self._score.pop(name, None)
        self._streak.pop(name, None)

    def snapshot(self) -> dict[str, Any]:
        """Checkpoint scores and streaks (journal fence)."""
        return {
            "score": dict(sorted(self._score.items())),
            "streak": dict(sorted(self._streak.items())),
            "violations": self.violations,
        }

    def restore(self, state: dict[str, Any]) -> None:
        self._score = dict(state["score"])
        self._streak = dict(state["streak"])
        self.violations = int(state["violations"])


class BrownoutController:
    """The facility ladder for sustained infeasibility.

    Observes the epoch's *committed* load — live members' floors plus
    silent members' lease reservations, measured **before** the
    reservation shave and before brownout shedding, so the signal
    cannot chase its own effect — and steps the ladder with
    hysteresis: :data:`BROWNOUT_ENTER_EPOCHS` consecutive epochs above
    the enter ratio step up one level; :data:`BROWNOUT_EXIT_EPOCHS`
    consecutive epochs at or below the exit ratio step down one.  The
    band between the two ratios holds the current level, so the fleet
    never flaps across one boundary.  The level applied to claims is
    the level *entering* the epoch — a deliberate one-epoch control
    lag that keeps the grant a pure function of journaled state.
    """

    def __init__(self) -> None:
        self._level = 0
        self._over = 0
        self._under = 0

    @property
    def level(self) -> int:
        return self._level

    @property
    def level_name(self) -> str:
        return BROWNOUT_LEVELS[self._level]

    def observe(self, pressure_w: float, budget_w: float) -> int:
        """Fold one epoch's committed load; returns the new level."""
        if budget_w <= 0:
            return self._level
        ratio = pressure_w / budget_w
        if ratio > BROWNOUT_ENTER_RATIO:
            self._over += 1
            self._under = 0
            if self._over >= BROWNOUT_ENTER_EPOCHS:
                self._level = min(
                    self._level + 1, len(BROWNOUT_LEVELS) - 1
                )
                self._over = 0
        elif ratio <= BROWNOUT_EXIT_RATIO:
            self._under += 1
            self._over = 0
            if self._under >= BROWNOUT_EXIT_EPOCHS:
                self._level = max(self._level - 1, 0)
                self._under = 0
        else:
            # the hysteresis band: hold the level, reset both streaks
            self._over = 0
            self._under = 0
        return self._level

    def snapshot(self) -> dict[str, int]:
        """Checkpoint the ladder position (journal fence)."""
        return {
            "level": self._level,
            "over": self._over,
            "under": self._under,
        }

    def restore(self, state: dict[str, int]) -> None:
        self._level = int(state["level"])
        self._over = int(state["over"])
        self._under = int(state["under"])


def brownout_claim_bounds(
    level: int,
    *,
    floor_w: float,
    raw_hi_w: float,
    shares: float,
    top_shares: float,
) -> tuple[float, float]:
    """One node's claim bounds under the current brownout level.

    ``raw_hi_w`` is the trust-discounted demand ceiling *before* the
    usual ``max(hi, lo)`` flooring; ``top_shares`` is the largest
    shares value among this round's bidders (nodes below it are the
    best-effort tier).  Shedding order, cumulative by level:

    * **BROWNOUT1** — idle-node floors: a node demanding less than its
      floor no longer gets the full floor held for it; its claim
      collapses to its demand, bounded below by the idle fraction.
    * **BROWNOUT2** — best-effort shares: lower-share nodes are pinned
      at their floors (no growth above the no-starvation minimum).
    * **SHED** — floor-shedding: best-effort floors drop to the idle
      fraction and even top-share nodes are pinned at their floors.

    Returns ``(lo, hi)`` with ``lo <= hi`` guaranteed; level 0 is
    bit-identical to the pre-brownout bounds.
    """
    lo = floor_w
    if level >= 1 and raw_hi_w < lo:
        lo = max(raw_hi_w, BROWNOUT_FLOOR_FRACTION * floor_w)
    best_effort = shares < top_shares
    if level >= 3:
        if best_effort:
            lo = BROWNOUT_FLOOR_FRACTION * floor_w
        return lo, lo
    if level >= 2 and best_effort:
        return lo, lo
    return lo, max(raw_hi_w, lo)
