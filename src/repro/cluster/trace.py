"""Cluster telemetry roll-up on the paper's trace machinery.

:class:`ClusterTrace` folds every epoch's per-node reports and arbiter
grants into named :class:`~repro.telemetry.trace.TraceSeries` — the same
summary machinery the single-socket figures use — so cluster runs get
box-plot-ready series for free:

* per node: ``<name>.power_w``, ``<name>.cap_w``, ``<name>.throttle``,
  ``<name>.headroom_w``, ``<name>.parked``, ``<name>.quarantined``;
* global: ``cluster.power_w`` (sum over live nodes),
  ``cluster.cap_w`` (sum of granted caps), ``cluster.budget_w``;
* control plane (when the lease supervisor runs): per node
  ``<name>.lease`` (0 granted · 1 holdover · 2 degraded · 3 safe),
  plus ``transport.sent|delivered|dropped|delayed|duplicated|stale``
  per-epoch counts, ``cluster.reserved_w`` (budget the arbiter holds
  for leased-but-silent nodes), ``cluster.degraded_grants``, the
  crash-fault counters ``cluster.restarts`` (node reboots executed at
  the epoch boundary) and ``cluster.crash_recoveries`` (arbiter
  crashes redone from the journal), and the trust counters
  ``cluster.brownout`` (ladder level in effect), ``cluster.
  trust_violations`` (nodes whose report failed validation this
  epoch), and ``cluster.quarantined`` (nodes below the trust
  threshold).

Sampling is at epoch cadence: one point per series per arbitration
round, timestamped with the epoch's end.  ``to_jsonable`` emits a
stable, fully-ordered form the determinism tests byte-compare.
"""

from __future__ import annotations

from repro.cluster.node import NodeEpochReport
from repro.telemetry.trace import Trace, TraceSeries


class ClusterTrace:
    """Per-node and cluster-wide series, sampled every epoch."""

    def __init__(self) -> None:
        self.trace = Trace()

    def record_epoch(
        self,
        t_end_s: float,
        reports: dict[str, NodeEpochReport],
        caps_w: dict[str, float],
        budget_w: float,
    ) -> None:
        """Fold one finished epoch into the series."""
        rec = self.trace.record
        for name in sorted(reports):
            report = reports[name]
            rec(f"{name}.power_w", t_end_s, report.mean_power_w)
            rec(f"{name}.cap_w", t_end_s, report.cap_w)
            rec(f"{name}.throttle", t_end_s, report.throttle_pressure)
            rec(f"{name}.headroom_w", t_end_s, report.headroom_w)
            rec(f"{name}.parked", t_end_s, float(report.parked_cores))
            rec(
                f"{name}.quarantined",
                t_end_s,
                float(report.quarantined_cores),
            )
        # sum in sorted-name order: float addition is not associative,
        # and the stacked stepper files idle reports after the stepped
        # ones, not in node order
        rec(
            "cluster.power_w",
            t_end_s,
            sum(reports[name].mean_power_w for name in sorted(reports)),
        )
        rec(
            "cluster.cap_w",
            t_end_s,
            sum(caps_w[name] for name in sorted(caps_w)),
        )
        rec("cluster.budget_w", t_end_s, budget_w)

    def record_control(
        self,
        t_end_s: float,
        *,
        transport_epoch: dict[str, int],
        lease_codes: dict[str, int],
        reserved_w: float,
        degraded_grants: int,
        restarts: int = 0,
        crash_recoveries: int = 0,
        fleet: dict[str, int] | None = None,
        brownout: int = 0,
        trust_violations: int = 0,
        quarantined: int = 0,
    ) -> None:
        """Fold one epoch's control-plane health into the series.

        ``transport_epoch`` is one :meth:`~repro.cluster.transport.
        TransportStats.take_epoch` window; ``lease_codes`` maps node
        name to its :data:`~repro.cluster.lease.LEASE_CODES` value at
        the end of the epoch; ``restarts`` counts node reboots executed
        at this epoch's boundary and ``crash_recoveries`` arbiter
        crashes redone from the journal this epoch.  ``fleet`` carries
        hierarchical-arbitration counters (racks refilled vs reused,
        shed members, idle nodes) when a topology is configured; flat
        runs pass ``None`` and their traces stay byte-identical to
        pre-fleet ones.
        """
        rec = self.trace.record
        for event in sorted(transport_epoch):
            rec(f"transport.{event}", t_end_s, float(transport_epoch[event]))
        for name in sorted(lease_codes):
            rec(f"{name}.lease", t_end_s, float(lease_codes[name]))
        rec("cluster.reserved_w", t_end_s, reserved_w)
        rec("cluster.degraded_grants", t_end_s, float(degraded_grants))
        rec("cluster.restarts", t_end_s, float(restarts))
        rec("cluster.crash_recoveries", t_end_s, float(crash_recoveries))
        rec("cluster.brownout", t_end_s, float(brownout))
        rec("cluster.trust_violations", t_end_s, float(trust_violations))
        rec("cluster.quarantined", t_end_s, float(quarantined))
        if fleet is not None:
            for key in sorted(fleet):
                rec(f"fleet.{key}", t_end_s, float(fleet[key]))

    def series(self, name: str) -> TraceSeries:
        return self.trace.series(name)

    def names(self) -> tuple[str, ...]:
        return self.trace.names()

    def __contains__(self, name: str) -> bool:
        return name in self.trace

    def node_mean_power_w(self, name: str, *, after_s: float = 0.0) -> float:
        """Mean of a node's power series, optionally post-warm-up."""
        return self.series(f"{name}.power_w").window(after_s).mean()

    def to_jsonable(self) -> dict:
        """Stable nested form: {series: {"t": [...], "v": [...]}}."""
        out: dict[str, dict[str, list[float]]] = {}
        for name in self.names():
            series = self.series(name)
            out[name] = {
                "t": list(series.times),
                "v": list(series.values),
            }
        return out
