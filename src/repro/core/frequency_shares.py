"""Frequency shares (paper sections 4.2 and 5.2).

Applications run at frequencies proportional to their shares.  Needs
only package power telemetry plus per-core DVFS, so it works on both
platforms, and — the paper's headline result — it isolates performance
about as well as the more complex performance shares while being more
stable.

Control loop (verbatim from the paper):

* the *translation function* converts a power delta into a frequency
  budget through the naive model::

      alpha          = PowerDelta / MaxPower
      FrequencyDelta = alpha * MaxFrequency * NumAvailableCores

* the *initial distribution* puts the highest-share application at
  maximum frequency and the rest at their proportions of it,
* the *redistribution function* spreads FrequencyDelta over
  non-saturated applications with min-funding revocation.

One stabilisation beyond the paper's sketch: the steady-state operating
point often sits *between* two quantized P-states — the turbo voltage
cliff can be worth several watts across the socket — so a naive loop
dithers: creep up a bin, violate the limit, fall back, repeat forever.
After an upward move that ends in violation the policy rolls the pool
back and backs off further probes with geometrically growing holds, so
the dither decays instead of cycling.
"""

from __future__ import annotations

from repro.core.minfund import Claim, pool_bounds, refill_pool
from repro.core.policy import Policy, PolicyConfig
from repro.core.types import ManagedApp, PolicyDecision, PolicyInputs
from repro.hw.platform import PlatformSpec


class FrequencySharesPolicy(Policy):
    """Proportional shares of core frequency."""

    name = "frequency-shares"

    #: initial upward-probe hold after an overshoot, iterations; doubles
    #: on every consecutive overshoot up to the maximum.
    probe_hold_initial = 8
    probe_hold_max = 256

    def __init__(
        self,
        platform: PlatformSpec,
        apps: list[ManagedApp],
        limit_w: float,
        config: PolicyConfig | None = None,
    ):
        super().__init__(platform, apps, limit_w, config)
        #: each app's claim shares and ceiling, in app order; both are
        #: fixed for the policy's life (see :meth:`_claims`)
        self.claim_shares = tuple(app.shares for app in self.apps)
        self.claim_ceilings_mhz = tuple(
            self.achievable_max_frequency(app) for app in self.apps
        )
        self._targets: dict[str, float] = {}
        self._pool_mhz = 0.0
        # probe-backoff state (see module docstring)
        self._last_move_up = False
        self._pool_before_move = 0.0
        self._hold_until = 0
        self._hold_length = self.probe_hold_initial

    def initial_distribution(self) -> PolicyDecision:
        top_shares = max(app.shares for app in self.apps)
        targets: dict[str, float] = {}
        for app in self.apps:
            fraction = app.shares / top_shares
            freq = fraction * self.achievable_max_frequency(app)
            targets[app.label] = max(freq, self.min_frequency)
        self._targets = dict(targets)
        self._pool_mhz = sum(targets.values())
        return PolicyDecision(targets=targets)

    def _claims(self) -> list[Claim]:
        """Claims over frequency with saturation bounds.

        An app saturates *up* at its (AVX-capped, all-active-turbo)
        maximum and *down* at the daemon floor — the paper never starves
        share-holders (section 5.2), so the floor is the lowest P-state,
        not zero.
        """
        return [
            Claim(
                label=app.label,
                shares=shares,
                current=self._targets[app.label],
                lo=self.min_frequency,
                hi=ceiling_mhz,
            )
            for app, shares, ceiling_mhz in zip(
                self.apps, self.claim_shares, self.claim_ceilings_mhz
            )
        ]

    def redistribute(self, inputs: PolicyInputs) -> PolicyDecision:
        claims = self._claims()
        lo, hi = pool_bounds(claims)
        pool = self.step_pool(inputs.power_error_w, inputs.iteration, lo, hi)
        if pool is not None:
            self._targets = refill_pool(pool, claims)
        return PolicyDecision(targets=dict(self._targets))

    def step_pool(
        self, power_error_w: float, iteration: int, lo: float, hi: float
    ) -> float | None:
        """Advance the probe/backoff state machine by one iteration.

        ``lo``/``hi`` are the pool bounds of this iteration's claims.
        Returns the pool the targets must be refilled to, or ``None``
        when they stay as they are (probe on hold, or inside the
        deadband).  The lockstep daemon pass (:mod:`repro.core.gang`)
        calls this per node and refills every returned pool at once.
        """
        error_w = self.scaled_step(power_error_w)

        if error_w < 0.0 and self._last_move_up:
            # the upward move we just made overshot the limit
            step = self._pool_mhz - self._pool_before_move
            dither_step = 1.5 * self.platform.step_mhz * len(self.apps)
            if step > dither_step:
                # a genuine climb that went too far: halve it (binary
                # convergence) rather than discarding the progress —
                # otherwise a mis-calibrated alpha model could loop
                # probe/rollback forever far below the limit
                self._pool_mhz = min(
                    max(self._pool_before_move + step / 2, lo), hi
                )
                self._pool_before_move = min(
                    max(self._pool_before_move, lo), hi
                )
                # stay in "probing" mode so a repeat violation halves
                # again
                return self._pool_mhz
            # sub-bin dither at the quantization edge: roll back fully
            # and hold off, doubling the hold on repeats
            self._pool_mhz = min(max(self._pool_before_move, lo), hi)
            self._hold_until = iteration + self._hold_length
            self._hold_length = min(
                self._hold_length * 2, self.probe_hold_max
            )
            self._last_move_up = False
            return self._pool_mhz

        if error_w > 0.0:
            if iteration < self._hold_until:
                # probing is on hold after a recent overshoot
                return None
        # repro-lint: disable=float-equality — scaled_step deadband returns literal 0.0
        elif error_w == 0.0:
            self._last_move_up = False
            return None
        else:
            # genuine over-limit not caused by our own probe: respond
            # immediately and forget the backoff (workload changed)
            self._hold_length = self.probe_hold_initial

        frequency_delta = (
            self.alpha(error_w)
            * self.platform.max_frequency_mhz
            * len(self.apps)
        )
        self._pool_before_move = self._pool_mhz
        self._last_move_up = error_w > 0.0
        self._pool_mhz = min(max(self._pool_mhz + frequency_delta, lo), hi)
        return self._pool_mhz
