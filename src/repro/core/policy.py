"""Policy interface (paper section 5.2).

Every share mechanism is implemented with three functions:

* **initial distribution** — allocations when applications start,
* **redistribution** — the per-iteration control step, applying
  min-funding revocation to excesses/shortages and handling saturation,
* **translation** — converting managed-resource units into frequencies
  programmable into the CPU.

:class:`Policy` captures that contract.  Policies receive telemetry and
return continuous frequency targets; the daemon owns quantization onto
the platform grid and the Ryzen three-P-state reduction, since those are
platform concerns shared by every policy.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import ConfigError, UnsupportedFeatureError
from repro.core.types import ManagedApp, PolicyDecision, PolicyInputs
from repro.hw.platform import PlatformSpec
from repro.hw.turbo import TurboModel


@dataclass(frozen=True)
class PolicyConfig:
    """Constants shared by the redistribution control loops.

    ``max_power_w`` anchors the paper's naive conversion factor
    ``alpha = PowerDelta / MaxPower`` (section 5.2); the TDP is the
    natural choice.  ``uncore_estimate_w`` is the daemon's guess of
    non-core package draw — deliberately an estimate, since a userspace
    daemon cannot measure it.  ``deadband_w`` stops the loop from
    chasing noise when power is already near the limit.
    """

    max_power_w: float
    uncore_estimate_w: float = 7.0
    deadband_w: float = 0.75
    #: fraction of the computed positive (upward) step actually applied;
    #: raising frequency risks overshooting past the turbo voltage cliff,
    #: so the loop climbs slower than it backs off.
    upward_gain: float = 0.5

    def __post_init__(self) -> None:
        if self.max_power_w <= 0:
            raise ConfigError("max_power_w must be positive")
        if not 0 < self.upward_gain <= 1.0:
            raise ConfigError("upward_gain must be in (0, 1]")


class Policy(abc.ABC):
    """Base class for all power-delivery policies."""

    #: human-readable policy name used in reports.
    name: str = "abstract"
    #: platform features the policy needs (checked at construction).
    requires_per_core_energy: bool = False
    requires_rapl_limit: bool = False
    #: False when another agent (hardware RAPL, an HWP controller) owns
    #: the actual P-state requests and the daemon must not program
    #: frequencies from the decision targets.
    programs_frequencies: bool = True

    def __init__(
        self,
        platform: PlatformSpec,
        apps: list[ManagedApp],
        limit_w: float,
        config: PolicyConfig | None = None,
    ):
        if not apps:
            raise ConfigError("policy needs at least one managed app")
        labels = [a.label for a in apps]
        if len(set(labels)) != len(labels):
            raise ConfigError("duplicate app labels")
        cores = [a.core_id for a in apps]
        if len(set(cores)) != len(cores):
            raise ConfigError("two managed apps pinned to the same core")
        if limit_w <= 0:
            raise ConfigError("power limit must be positive")
        if self.requires_per_core_energy and not platform.has_per_core_energy:
            raise UnsupportedFeatureError(
                f"{self.name} needs per-core power telemetry, which "
                f"{platform.name} does not provide (paper section 4.2)"
            )
        if self.requires_rapl_limit and not platform.has_rapl_limit:
            raise UnsupportedFeatureError(
                f"{self.name} needs hardware RAPL limiting, which "
                f"{platform.name} does not provide"
            )
        self.platform = platform
        self.apps = list(apps)
        self.limit_w = limit_w
        #: turbo ceiling with every managed app active (see
        #: :meth:`achievable_max_frequency`); platform and app count are
        #: fixed for the policy's life.
        self._all_active_ceiling_mhz = TurboModel(platform).ceiling_mhz(
            len(self.apps)
        )
        self.config = config or PolicyConfig(
            max_power_w=platform.power.tdp_watts
        )

    # -- shared helpers --------------------------------------------------------

    def app_max_frequency(self, app: ManagedApp) -> float:
        if app.max_frequency_mhz is not None:
            return app.max_frequency_mhz
        return self.platform.max_frequency_mhz

    def achievable_max_frequency(self, app: ManagedApp) -> float:
        """App maximum clipped to the turbo ceiling with *all* managed
        apps active.

        Share policies keep every application running, so the few-core
        turbo bins (XFR/top TurboBoost) are never grantable; claiming up
        to them would skew the proportional split toward saturated apps.
        The priority policy deliberately does NOT use this — parking LP
        apps is exactly how it unlocks those bins."""
        return min(self.app_max_frequency(app), self._all_active_ceiling_mhz)

    @property
    def min_frequency(self) -> float:
        """Lowest frequency policies program (the daemon floor, which on
        Ryzen is 800 MHz per the paper's P-state remapping)."""
        return self.platform.policy_floor_mhz

    def alpha(self, power_delta_w: float) -> float:
        """The paper's conversion factor: PowerDelta / MaxPower."""
        return power_delta_w / self.config.max_power_w

    def scaled_step(self, power_error_w: float) -> float:
        """Apply deadband and asymmetric gain to a raw power error."""
        if abs(power_error_w) <= self.config.deadband_w:
            return 0.0
        if power_error_w > 0:
            return power_error_w * self.config.upward_gain
        return power_error_w

    # -- the three functions of section 5.2 -------------------------------------

    @abc.abstractmethod
    def initial_distribution(self) -> PolicyDecision:
        """Allocations used when starting the applications."""

    @abc.abstractmethod
    def redistribute(self, inputs: PolicyInputs) -> PolicyDecision:
        """One control-loop step from measured telemetry."""
