"""Per-application energy accounting over daemon history.

The paper positions itself against energy-accounting systems (Cinder,
ECOSystem, Power Containers): those budget *energy over time* while the
paper polices *power at all times*.  The ledger bridges the two views —
it folds a :class:`~repro.core.daemon.PowerDaemon` history into per-app
cumulative energy, so power-policy runs can also be judged on the energy
metrics those systems care about (joules, instructions per joule, EDP).

Attribution:

* on platforms with per-core energy counters (Ryzen) the measurement is
  direct;
* on package-only platforms (Skylake) core energy is attributed by each
  app's modelled dynamic weight, ``f³``-proportional within the interval
  (the standard V∝f approximation), after subtracting an uncore
  estimate — the same kind of model-based attribution Power Containers
  describes, and clearly labelled as an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import
    # cycle: core.daemon itself imports the telemetry package
    from repro.core.daemon import DaemonSample


@dataclass
class AppEnergyAccount:
    """Cumulative per-app energy and work."""

    label: str
    energy_j: float = 0.0
    instructions: float = 0.0
    active_s: float = 0.0
    measured: bool = True  # False when attribution was model-based

    @property
    def instructions_per_joule(self) -> float:
        if self.energy_j <= 0:
            raise ConfigError(f"{self.label}: no energy recorded")
        return self.instructions / self.energy_j

    @property
    def mean_power_w(self) -> float:
        if self.active_s <= 0:
            raise ConfigError(f"{self.label}: no active time recorded")
        return self.energy_j / self.active_s


class EnergyLedger:
    """Accumulates per-app energy from daemon samples."""

    def __init__(self, *, uncore_estimate_w: float = 7.0):
        if uncore_estimate_w < 0:
            raise ConfigError("uncore estimate cannot be negative")
        self.uncore_estimate_w = uncore_estimate_w
        self._accounts: dict[str, AppEnergyAccount] = {}
        self._last_time: float | None = None
        self.package_energy_j = 0.0

    def accounts(self) -> dict[str, AppEnergyAccount]:
        return dict(self._accounts)

    def account(self, label: str) -> AppEnergyAccount:
        try:
            return self._accounts[label]
        except KeyError:
            known = ", ".join(sorted(self._accounts)) or "<none>"
            raise ConfigError(
                f"no account for {label!r}; known: {known}"
            ) from None

    def ingest(self, sample: "DaemonSample") -> None:
        """Fold one daemon interval into the ledger."""
        if self._last_time is None:
            self._last_time = sample.time_s
            # first sample establishes the time base but carries a full
            # interval of data too (the daemon reports deltas); use its
            # nominal interval by looking at iteration cadence
            dt = sample.time_s / max(sample.iteration, 1)
        else:
            dt = sample.time_s - self._last_time
            self._last_time = sample.time_s
        if dt <= 0:
            raise ConfigError("daemon samples must move forward in time")
        self.package_energy_j += sample.package_power_w * dt

        labels = list(sample.app_frequency_mhz)
        for label in labels:
            self._accounts.setdefault(label, AppEnergyAccount(label))

        measured = all(
            sample.app_power_w[label] is not None for label in labels
        )
        if measured:
            for label in labels:
                account = self._accounts[label]
                power = sample.app_power_w[label]
                assert power is not None
                account.energy_j += power * dt
                self._credit_work(account, sample, label, dt)
            return

        # model-based attribution: split (package - uncore estimate)
        # by f^3 weights among non-parked apps
        budget_w = max(
            sample.package_power_w - self.uncore_estimate_w, 0.0
        )
        weights = {}
        for label in labels:
            if sample.app_parked[label]:
                weights[label] = 0.0
            else:
                weights[label] = sample.app_frequency_mhz[label] ** 3
        total_weight = sum(weights.values())
        for label in labels:
            account = self._accounts[label]
            account.measured = False
            if total_weight > 0:
                share = weights[label] / total_weight
                account.energy_j += budget_w * share * dt
            self._credit_work(account, sample, label, dt)

    def _credit_work(
        self,
        account: AppEnergyAccount,
        sample: "DaemonSample",
        label: str,
        dt: float,
    ) -> None:
        account.instructions += sample.app_ips[label] * dt
        if not sample.app_parked[label]:
            account.active_s += dt

    def ingest_history(self, history: Iterable["DaemonSample"]) -> None:
        for sample in history:
            self.ingest(sample)

    def to_rows(self) -> list[dict]:
        rows = []
        for account in self._accounts.values():
            rows.append(
                {
                    "app": account.label,
                    "energy_j": account.energy_j,
                    "gi": account.instructions / 1e9,
                    "gips_per_j": (
                        account.instructions / account.energy_j / 1e9
                        if account.energy_j > 0
                        else None
                    ),
                    "measured": account.measured,
                }
            )
        return sorted(rows, key=lambda r: -r["energy_j"])
