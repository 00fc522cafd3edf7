"""Diurnal traffic schedule and the oversubscription safety check.

The ROADMAP demo is a day of websearch traffic rolling across a
simulated datacenter: load follows a smooth diurnal curve, offset per
row (rows stand in for timezones/regions), and at any instant only a
fraction of each rack's nodes serve traffic — the rest idle.  The
fleet layer exploits that sparsity twice: idle nodes are skipped by
the stacked stepper (they file a synthetic idle report instead of
simulating 10 daemon ticks of nothing), and their flat demand keeps
their racks *clean* in the arbiter's dirty-subtree scheme.

:class:`DiurnalSchedule` is pure arithmetic on the epoch counter — a
cosine between the base and peak active fractions, phase-shifted per
row — so runs replay deterministically and serial and stacked
stepping agree on who is idle.  Within a rack the first ``k`` nodes
(rack declaration order) are active; traffic "rolls" because ``k``
changes with the curve, not because membership shuffles.

**Oversubscription.**  A fleet is provisioned against *expected* load,
not the sum of nameplate maxima: Σ node ceilings deliberately exceeds
the facility budget.  :func:`assess_oversubscription` quantifies the
bet — the worst single-epoch demand over one schedule period, taking
every active node at its ceiling and every idle node at its floor —
and reports whether the budget covers it.  When the bet loses at
runtime (demand above budget), the arbiter degrades gracefully: the
water-fill pins the excess nodes at their floors and surfaces them as
``shed`` on the grant, never exceeding the physical envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.fleet.topology import (
    DomainSpec,
    leaf_racks,
    rack_row_indices,
)


@dataclass(frozen=True)
class DiurnalSchedule:
    """Deterministic cosine load curve over the epoch counter."""

    #: epochs per full day (trough at epoch 0, peak half-way through).
    period_epochs: int = 24
    #: fraction of each rack serving traffic at the trough / the peak.
    base_active_fraction: float = 0.15
    peak_active_fraction: float = 0.65
    #: phase shift between consecutive rows, epochs — traffic rolls
    #: across the fleet instead of breathing in lockstep.
    row_phase_epochs: int = 2

    def __post_init__(self) -> None:
        if self.period_epochs < 2:
            raise ConfigError("period_epochs must be at least 2")
        for name in ("base_active_fraction", "peak_active_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.peak_active_fraction < self.base_active_fraction:
            raise ConfigError(
                "peak_active_fraction below base_active_fraction"
            )
        if self.row_phase_epochs < 0:
            raise ConfigError("row_phase_epochs cannot be negative")

    def active_fraction(self, epoch: int, row_index: int = 0) -> float:
        """The fraction of a row's nodes serving traffic this epoch."""
        phase = (
            2.0
            * math.pi
            * ((epoch - row_index * self.row_phase_epochs)
               % self.period_epochs)
            / self.period_epochs
        )
        mid = (self.base_active_fraction + self.peak_active_fraction) / 2.0
        amplitude = (
            self.peak_active_fraction - self.base_active_fraction
        ) / 2.0
        return mid - amplitude * math.cos(phase)

    def active_count(self, n: int, epoch: int, row_index: int = 0) -> int:
        """How many of a rack's ``n`` nodes are active this epoch."""
        count = int(round(n * self.active_fraction(epoch, row_index)))
        return min(max(count, 0), n)


@dataclass(frozen=True)
class OversubscriptionReport:
    """The oversubscription bet, quantified."""

    budget_w: float
    #: Σ node cap ceilings — what the fleet could draw all-out.
    ceiling_sum_w: float
    #: Σ node cap floors — what the fleet draws fully idle.
    floor_sum_w: float
    #: ceiling_sum / budget: how far the fleet is oversubscribed.
    ratio: float
    #: worst single-epoch demand over one schedule period (active
    #: nodes at ceiling + idle nodes at floor).
    peak_demand_w: float
    peak_epoch: int
    #: whether the budget covers the statistical peak.
    safe: bool

    @property
    def margin_w(self) -> float:
        """Budget left over at the statistical peak (negative: the
        bet can lose and shedding will engage)."""
        return self.budget_w - self.peak_demand_w


def assess_oversubscription(
    budget_w: float,
    root: DomainSpec,
    floors: dict[str, float],
    ceilings: dict[str, float],
    schedule: DiurnalSchedule | None = None,
) -> OversubscriptionReport:
    """Statistical-safety check for an oversubscribed fleet.

    Walks one full schedule period applying the *same* first-``k``
    activation rule the runtime uses, so the reported peak is exactly
    the worst demand the configured day can present.  Without a
    schedule every node counts active and the check degenerates to
    the conservative ``Σ ceilings <= budget``.
    """
    racks = leaf_racks(root)
    rows = rack_row_indices(root)
    ceiling_sum = sum(
        ceilings[name] for rack in racks for name in rack.nodes
    )
    floor_sum = sum(floors[name] for rack in racks for name in rack.nodes)
    epochs = range(schedule.period_epochs) if schedule is not None else (0,)
    peak_demand = 0.0
    peak_epoch = 0
    for epoch in epochs:
        demand = 0.0
        for rack in racks:
            members = rack.nodes
            if schedule is None:
                active = len(members)
            else:
                active = schedule.active_count(
                    len(members), epoch, rows[rack.name]
                )
            rack_demand = sum(
                ceilings[n] for n in members[:active]
            ) + sum(floors[n] for n in members[active:])
            if rack.ceiling_w is not None:
                # the rack's breaker caps what its nodes can draw
                rack_demand = min(rack_demand, rack.ceiling_w)
            demand += rack_demand
        if demand > peak_demand:
            peak_demand = demand
            peak_epoch = epoch
    return OversubscriptionReport(
        budget_w=budget_w,
        ceiling_sum_w=ceiling_sum,
        floor_sum_w=floor_sum,
        ratio=ceiling_sum / budget_w if budget_w > 0 else float("inf"),
        peak_demand_w=peak_demand,
        peak_epoch=peak_epoch,
        safe=peak_demand <= budget_w,
    )
