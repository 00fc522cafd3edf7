"""Write-ahead journal for the cluster control plane.

Every decision the supervisor makes — membership changes, arbitration
grants, lease transitions, node steps, crash re-admissions — is
appended as an epoch-tagged :class:`JournalEntry` *before* its effects
leave the process, and each completed epoch is sealed with a ``fence``
entry carrying a full checkpoint of the message layer.  That ordering
buys two recovery guarantees:

* **redo within an epoch** — an arbiter that dies after its decision is
  journaled but before any grant is sent can be rebuilt from the last
  ``arbitration`` entry and resend the *identical* grants, making the
  crash invisible (byte-identical to a run that never crashed);
* **replay across epochs** — :meth:`Journal.replay` folds the entries
  up to the last fence into a :class:`RecoveredState`;
  :func:`~repro.cluster.runtime.recover_cluster_sim` restores the
  arbiter, every lease ladder and sequence-guard position, the
  transport queues and RNG, and re-steps the node simulations through
  the journaled ``step`` entries — so continuing the run produces
  byte-identical grants, lease states, and trace points from the fence
  on.

Entry kinds, in per-epoch append order::

    admit / retire          membership at the epoch boundary
    crash / readmit         scenario crashes and restart re-admissions
    arbitration             the grant decision + full arbiter snapshot
    leases                  every lease's post-observe ladder position
    step                    the caps/safe/down/restart sets the nodes ran
    fence                   epoch sealed: transport + seq checkpoint

Entries are deterministic (no wall clock, no unseeded randomness) and
the JSON-lines dump is fully ordered, so two runs of the same seeded
config produce byte-identical journals.  :meth:`Journal.load` tolerates
a torn final line — the classic crash-during-append — by dropping it,
which is safe because an unfenced suffix is redone, never trusted.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.cluster.node import NodeEpochReport
from repro.cluster.transport import Envelope
from repro.errors import ConfigError

#: entry kinds, in the order one epoch appends them.
ENTRY_KINDS = (
    "admit",
    "retire",
    "crash",
    "readmit",
    "arbitration",
    "leases",
    "step",
    "fence",
)


@dataclass(frozen=True)
class JournalEntry:
    """One journaled control-plane event."""

    #: global append position (dense, starts at 0).
    seq: int
    #: the arbitration epoch the event belongs to.
    epoch: int
    kind: str
    data: dict[str, Any]

    def __post_init__(self) -> None:
        if self.kind not in ENTRY_KINDS:
            raise ConfigError(f"unknown journal entry kind {self.kind!r}")
        if self.epoch < 0:
            raise ConfigError("journal entry epoch cannot be negative")


@dataclass(frozen=True)
class RecoveredState:
    """Everything :meth:`Journal.replay` folds out of the entries.

    All control-plane state as of the last fence, plus the per-epoch
    ``step`` directives needed to rebuild the node simulations by
    re-stepping them (deterministic, because every cap/safe/down/
    restart decision was rolled in the epoch loop and journaled).
    """

    last_fenced_epoch: int
    admitted: tuple[str, ...]
    down: tuple[str, ...]
    seqs: dict[str, int]
    transport: dict[str, Any] | None
    #: telemetry-corruptor checkpoint (None: no corruption configured
    #: or a pre-trust journal).
    telemetry: dict[str, Any] | None
    arbiter: dict[str, Any] | None
    guard: dict[str, int]
    leases: dict[str, dict[str, Any]]
    #: per fenced epoch: (epoch, caps_w, safe, down, restarts, idle).
    steps: tuple[tuple[int, dict[str, float], tuple[str, ...],
                       tuple[str, ...], tuple[str, ...],
                       tuple[str, ...]], ...]


class Journal:
    """Append-only, epoch-fenced control-plane journal."""

    def __init__(self) -> None:
        self._entries: list[JournalEntry] = []
        self._last_fenced = -1

    # -- writing -----------------------------------------------------------------

    def append(
        self, kind: str, epoch: int, data: dict[str, Any]
    ) -> JournalEntry:
        entry = JournalEntry(
            seq=len(self._entries), epoch=epoch, kind=kind, data=data
        )
        self._entries.append(entry)
        if kind == "fence":
            self._last_fenced = epoch
        return entry

    # -- introspection -----------------------------------------------------------

    @property
    def entries(self) -> tuple[JournalEntry, ...]:
        return tuple(self._entries)

    @property
    def last_fenced_epoch(self) -> int:
        """Newest epoch sealed by a fence (-1: nothing fenced yet)."""
        return self._last_fenced

    def __len__(self) -> int:
        return len(self._entries)

    def last_of(self, kind: str) -> JournalEntry | None:
        """The newest entry of a kind (the redo source for recovery)."""
        for entry in reversed(self._entries):
            if entry.kind == kind:
                return entry
        return None

    # -- replay ------------------------------------------------------------------

    def replay(self) -> RecoveredState:
        """Fold the fenced prefix into a recoverable control-plane state.

        Entries after the last fence describe an epoch that never
        committed; they are ignored here (the runtime redoes unfenced
        arbitration from :meth:`last_of` during in-epoch recovery).
        """
        fence: JournalEntry | None = None
        arbitration: JournalEntry | None = None
        leases: dict[str, dict[str, Any]] = {}
        steps: list[
            tuple[int, dict[str, float], tuple[str, ...], tuple[str, ...],
                  tuple[str, ...], tuple[str, ...]]
        ] = []
        for entry in self._entries:
            if entry.epoch > self._last_fenced:
                break
            if entry.kind == "fence":
                fence = entry
            elif entry.kind == "arbitration":
                arbitration = entry
            elif entry.kind == "leases":
                leases = {
                    name: dict(snap) for name, snap in entry.data.items()
                }
            elif entry.kind == "step":
                steps.append((
                    entry.epoch,
                    dict(entry.data["caps"]),
                    tuple(entry.data["safe"]),
                    tuple(entry.data["down"]),
                    tuple(entry.data["restarts"]),
                    # pre-fleet journals carry no idle set
                    tuple(entry.data.get("idle", ())),
                ))
        return RecoveredState(
            last_fenced_epoch=self._last_fenced,
            admitted=tuple(fence.data["admitted"]) if fence else (),
            down=tuple(fence.data["down"]) if fence else (),
            seqs=dict(fence.data["seqs"]) if fence else {},
            transport=fence.data["transport"] if fence else None,
            # pre-trust journals carry no telemetry checkpoint
            telemetry=fence.data.get("telemetry") if fence else None,
            arbiter=arbitration.data["arbiter"] if arbitration else None,
            guard=dict(arbitration.data["guard"]) if arbitration else {},
            leases=leases,
            steps=tuple(steps),
        )

    # -- (de)serialization ---------------------------------------------------------

    def to_jsonl(self) -> str:
        """Deterministic JSON-lines form (one entry per line)."""
        lines = [
            json.dumps(_entry_to_jsonable(entry), sort_keys=True)
            for entry in self._entries
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def dump(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str) -> "Journal":
        """Parse a JSON-lines dump, dropping a torn final line.

        A crash mid-append leaves a truncated last record; dropping it
        is safe because everything after the last fence is redone from
        scratch, never trusted.  A malformed line anywhere *else* is
        corruption and raises.
        """
        journal = cls()
        lines = [line for line in text.splitlines() if line.strip()]
        for lineno, line in enumerate(lines):
            try:
                raw = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines) - 1:
                    break  # torn tail: the unfenced suffix is redone
                raise ConfigError(
                    f"corrupt journal entry at line {lineno + 1}"
                ) from None
            entry = _entry_from_jsonable(raw)
            if entry.seq != len(journal):
                raise ConfigError(
                    f"journal sequence gap at line {lineno + 1}: "
                    f"expected seq {len(journal)}, got {entry.seq}"
                )
            journal.append(entry.kind, entry.epoch, entry.data)
        return journal

    @classmethod
    def load(cls, path: str | Path) -> "Journal":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_jsonl(handle.read())


# -- JSON conversion helpers ------------------------------------------------------
#
# Journal entries hold live objects in memory (frozen dataclasses, RNG
# state tuples) so in-process recovery is exact and allocation-free;
# these helpers own the disk round trip.  Python floats survive the
# repr-based JSON round trip exactly, so a journal restored from disk
# recovers byte-identical state.


def _report_to_jsonable(report: NodeEpochReport) -> dict[str, Any]:
    return asdict(report)


def _report_from_jsonable(data: dict[str, Any]) -> NodeEpochReport:
    return NodeEpochReport(**data)


def _envelope_to_jsonable(env: Envelope) -> dict[str, Any]:
    if isinstance(env.payload, NodeEpochReport):
        payload: dict[str, Any] = {"report": _report_to_jsonable(env.payload)}
    else:
        payload = {"cap": env.payload}
    return {
        "kind": env.kind,
        "src": env.src,
        "dst": env.dst,
        "epoch": env.epoch,
        "seq": env.seq,
        "payload": payload,
    }


def _envelope_from_jsonable(data: dict[str, Any]) -> Envelope:
    payload = data["payload"]
    value: object
    if "report" in payload:
        value = _report_from_jsonable(payload["report"])
    else:
        value = payload["cap"]
    return Envelope(
        kind=data["kind"],
        src=data["src"],
        dst=data["dst"],
        epoch=data["epoch"],
        seq=data["seq"],
        payload=value,
    )


def _transport_to_jsonable(state: dict[str, Any]) -> dict[str, Any]:
    version, internal, gauss = state["rng"]
    return {
        "order": state["order"],
        "rng": {
            "version": version,
            "state": list(internal),
            "gauss": gauss,
        },
        "queues": {
            dst: [
                [epoch, order, _envelope_to_jsonable(env)]
                for epoch, order, env in items
            ]
            for dst, items in state["queues"].items()
        },
        "stats": state["stats"],
    }


def _transport_from_jsonable(data: dict[str, Any]) -> dict[str, Any]:
    rng = data["rng"]
    return {
        "order": data["order"],
        "rng": (rng["version"], tuple(rng["state"]), rng["gauss"]),
        "queues": {
            dst: [
                (epoch, order, _envelope_from_jsonable(env))
                for epoch, order, env in items
            ]
            for dst, items in data["queues"].items()
        },
        "stats": data["stats"],
    }


def _telemetry_to_jsonable(state: dict[str, Any]) -> dict[str, Any]:
    version, internal, gauss = state["rng"]
    return {
        "rng": {
            "version": version,
            "state": list(internal),
            "gauss": gauss,
        },
        "stuck": {
            name: _report_to_jsonable(report)
            for name, report in state["stuck"].items()
        },
    }


def _telemetry_from_jsonable(data: dict[str, Any]) -> dict[str, Any]:
    rng = data["rng"]
    return {
        "rng": (rng["version"], tuple(rng["state"]), rng["gauss"]),
        "stuck": {
            name: _report_from_jsonable(report)
            for name, report in data["stuck"].items()
        },
    }


def _arbiter_to_jsonable(state: dict[str, Any]) -> dict[str, Any]:
    out = dict(state)
    out["last_report"] = {
        name: _report_to_jsonable(report)
        for name, report in state["last_report"].items()
    }
    return out


def _arbiter_from_jsonable(data: dict[str, Any]) -> dict[str, Any]:
    out = dict(data)
    out["last_report"] = {
        name: _report_from_jsonable(report)
        for name, report in data["last_report"].items()
    }
    return out


def _entry_to_jsonable(entry: JournalEntry) -> dict[str, Any]:
    data = dict(entry.data)
    if entry.kind == "fence":
        data["transport"] = _transport_to_jsonable(data["transport"])
        if data.get("telemetry") is not None:
            data["telemetry"] = _telemetry_to_jsonable(data["telemetry"])
    elif entry.kind == "arbitration":
        data["arbiter"] = _arbiter_to_jsonable(data["arbiter"])
    return {
        "seq": entry.seq,
        "epoch": entry.epoch,
        "kind": entry.kind,
        "data": data,
    }


def _entry_from_jsonable(raw: dict[str, Any]) -> JournalEntry:
    data = dict(raw["data"])
    if raw["kind"] == "fence":
        data["transport"] = _transport_from_jsonable(data["transport"])
        if data.get("telemetry") is not None:
            data["telemetry"] = _telemetry_from_jsonable(data["telemetry"])
    elif raw["kind"] == "arbitration":
        data["arbiter"] = _arbiter_from_jsonable(data["arbiter"])
    return JournalEntry(
        seq=raw["seq"], epoch=raw["epoch"], kind=raw["kind"], data=data
    )
