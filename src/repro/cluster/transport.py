"""Unreliable control-plane transport between nodes and the arbiter.

PR 3's cluster assumed a perfect network: every ``NodeEpochReport``
arrived intact and every cap grant applied instantly.  Real
per-application power delivery at datacenter scale rides a lossy
control plane, so this module makes the message layer explicit — and
faultable.  All cluster traffic travels as epoch-sequenced
:class:`Envelope` values through one :class:`UnreliableTransport`:

* ``demand`` envelopes carry a node's :class:`~repro.cluster.node.
  NodeEpochReport` to the arbiter (sent at the end of epoch *e*,
  normally picked up at the start of epoch *e+1* — the same one-epoch
  reporting lag the perfect-network runtime always had);
* ``grant`` envelopes carry the arbiter's cap back (sent and normally
  delivered within the granting epoch).

A seeded :class:`~repro.faults.scenario.TransportScenario` injects
drop, N-epoch delay, duplication, per-batch reordering, and named
node↔arbiter partitions.  Every roll comes from one ``random.Random``
consumed in a deterministic order (senders iterate sorted names), so a
faulty run replays byte-identically — and the serial and stacked node
steppers stay byte-identical because *all* transport logic runs in the
epoch loop, outside them; steppers only ever see the caps that survived
delivery.

Receivers defend themselves with a :class:`SequenceGuard`: an envelope
whose epoch is at or below the newest accepted from the same sender is
a duplicate or a reordered straggler and is rejected (counted as
``stale``).  :func:`fold_reports` is the arbiter-side ingestion built
on that guard; the property suite proves that any permutation and
duplication of one epoch's envelopes folds to the identical report set,
hence byte-identical grants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.faults.scenario import TransportScenario

#: reserved endpoint name for the arbiter's side of every link.
ARBITER = "arbiter"

#: envelope kinds.
DEMAND = "demand"
GRANT = "grant"

#: seed salt so the transport schedule is independent of the node fault
#: schedules drawn from the same cluster seed.
_SEED_SALT = 0x7247A45F


@dataclass(frozen=True)
class Envelope:
    """One control-plane message, sequenced by arbitration epoch."""

    kind: str
    src: str
    dst: str
    #: the epoch the payload describes; doubles as the sequence number
    #: receivers deduplicate and order by (one payload per epoch per
    #: sender direction).
    epoch: int
    #: sender's running send counter — a deterministic tie-break for
    #: delivery ordering, never consulted for acceptance.
    seq: int
    payload: object

    def __post_init__(self) -> None:
        if self.kind not in (DEMAND, GRANT):
            raise ConfigError(f"unknown envelope kind {self.kind!r}")
        if self.epoch < 0:
            raise ConfigError("envelope epoch cannot be negative")


@dataclass
class TransportStats:
    """Running totals plus a per-epoch window the supervisor samples."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    delayed: int = 0
    duplicated: int = 0
    #: duplicate/reordered envelopes rejected by a receiver's guard.
    stale: int = 0
    _window: dict[str, int] = field(
        default_factory=lambda: {
            "sent": 0, "delivered": 0, "dropped": 0,
            "delayed": 0, "duplicated": 0, "stale": 0,
        }
    )
    #: closed per-epoch windows (epoch -> counts), archived by
    #: :meth:`take_epoch` when it is given the epoch being sealed.
    _epochs: dict[int, dict[str, int]] = field(default_factory=dict)

    def count(self, event: str, n: int = 1) -> None:
        setattr(self, event, getattr(self, event) + n)
        self._window[event] += n

    def take_epoch(self, epoch: int | None = None) -> dict[str, int]:
        """Counts since the last call (one arbitration epoch's worth).

        With ``epoch`` given, the closed window is also archived so
        whole-run dumps can report every epoch's transport health.
        """
        window = dict(self._window)
        for key in self._window:
            self._window[key] = 0
        if epoch is not None:
            self._epochs[epoch] = window
        return window

    def epoch_windows(self) -> tuple[tuple[int, dict[str, int]], ...]:
        """The archived windows, sorted by epoch.

        The archive dict fills in arbitration order, but recovery can
        interleave re-fills, so dumps must not trust insertion order —
        sorting here is what keeps a recovered run's dump byte-equal
        to an uninterrupted one's.
        """
        return tuple(
            (epoch, dict(self._epochs[epoch]))
            for epoch in sorted(self._epochs)
        )

    def windows_jsonable(self) -> list[dict]:
        """Byte-stable JSON form: one row per epoch, sorted keys."""
        return [
            {"epoch": epoch, **{k: window[k] for k in sorted(window)}}
            for epoch, window in self.epoch_windows()
        ]

    def snapshot(self) -> dict:
        """Checkpoint the totals and the open window (journal fence)."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "delayed": self.delayed,
            "duplicated": self.duplicated,
            "stale": self.stale,
            "window": dict(self._window),
            "epochs": [
                [epoch, dict(window)]
                for epoch, window in sorted(self._epochs.items())
            ],
        }

    def restore(self, state: dict) -> None:
        """Restore counters in place (guards and leases keep their
        references to this object across a recovery)."""
        for event in ("sent", "delivered", "dropped", "delayed",
                      "duplicated", "stale"):
            setattr(self, event, state[event])
        self._window = dict(state["window"])
        # pre-window-archive journals carry no "epochs" key
        self._epochs = {
            int(epoch): dict(window)
            for epoch, window in state.get("epochs", [])
        }


class SequenceGuard:
    """Rejects duplicate and out-of-order envelopes per (kind, src).

    Acceptance is monotone in epoch: an envelope at or below the newest
    accepted epoch from the same sender is stale.  Folding a batch
    through the guard is therefore order-independent in outcome — the
    newest epoch wins no matter how the batch was permuted or
    duplicated — which is exactly the property the grants-equality
    tests assert.
    """

    def __init__(self, stats: TransportStats | None = None):
        self._high: dict[tuple[str, str], int] = {}
        self._stats = stats

    def accept(self, env: Envelope) -> bool:
        key = (env.kind, env.src)
        if env.epoch <= self._high.get(key, -1):
            if self._stats is not None:
                self._stats.count("stale")
            return False
        self._high[key] = env.epoch
        return True

    def prime(self, kind: str, src: str, epoch: int) -> None:
        """Pre-position the high-water mark without accepting anything.

        A rebooted node primes its grant guard at its last *fenced*
        epoch so every pre-crash straggler still in flight is stale on
        arrival — the wire-level half of the restart protocol.
        """
        key = (kind, src)
        if epoch > self._high.get(key, -1):
            self._high[key] = epoch

    def snapshot(self) -> dict[str, int]:
        """Checkpoint the high-water marks ("kind|src" -> epoch)."""
        return {
            f"{kind}|{src}": epoch
            for (kind, src), epoch in sorted(self._high.items())
        }

    def restore(self, state: dict[str, int]) -> None:
        self._high = {}
        for key, epoch in state.items():
            kind, src = key.split("|", 1)
            self._high[(kind, src)] = epoch


def fold_reports(
    envelopes: list[Envelope], guard: SequenceGuard
) -> dict:
    """Fold delivered demand envelopes into a per-node report dict.

    Later epochs overwrite earlier ones from the same node, so the
    result is the newest accepted report per node regardless of the
    order (or multiplicity) the envelopes arrived in.
    """
    reports: dict[str, object] = {}
    epochs: dict[str, int] = {}
    for env in envelopes:
        if env.kind != DEMAND:
            continue
        if not guard.accept(env):
            continue
        if env.epoch >= epochs.get(env.src, -1):
            reports[env.src] = env.payload
            epochs[env.src] = env.epoch
    return reports


class UnreliableTransport:
    """Seeded, deterministic message layer for one cluster run.

    ``send`` rolls the scenario's fault schedule and enqueues surviving
    copies with a delivery epoch; ``deliver`` hands an endpoint
    everything due by the current epoch, in deterministic send order
    unless the scenario reorders the batch.  Partitions are checked at
    both ends of the flight: an envelope sent into a severed link is
    lost immediately, and one whose delay lands it inside a partition
    window dies at the receiver's door.
    """

    def __init__(self, scenario: TransportScenario, *, seed: int | None = None):
        if seed is not None:
            scenario = scenario.with_seed(seed)
        self.scenario = scenario
        self._rng = random.Random(scenario.seed ^ _SEED_SALT)
        self.stats = TransportStats()
        #: dst -> [(delivery_epoch, order, envelope)]
        self._queues: dict[str, list[tuple[int, int, Envelope]]] = {}
        self._order = 0

    # -- sending -----------------------------------------------------------------

    def _node_of(self, env: Envelope) -> str:
        """The node endpoint of the link this envelope travels."""
        return env.src if env.dst == ARBITER else env.dst

    def _enqueue(self, env: Envelope, delivery_epoch: int) -> None:
        self._order += 1
        self._queues.setdefault(env.dst, []).append(
            (delivery_epoch, self._order, env)
        )

    def send(self, env: Envelope, now_epoch: int) -> None:
        """Submit one envelope at the current epoch."""
        s = self.scenario
        self.stats.count("sent")
        if s.partitioned(self._node_of(env), now_epoch):
            self.stats.count("dropped")
            return
        if s.quiet:
            self._enqueue(env, now_epoch)
            return
        roll = self._rng.random()
        if roll < s.drop_rate:
            self.stats.count("dropped")
            return
        roll -= s.drop_rate
        copies = 1
        if roll < s.dup_rate:
            self.stats.count("duplicated")
            copies = 2
        delivery = now_epoch
        if self._rng.random() < s.delay_rate:
            self.stats.count("delayed")
            delivery = now_epoch + self._rng.randint(1, s.max_delay_epochs)
        for _ in range(copies):
            self._enqueue(env, delivery)

    # -- receiving ---------------------------------------------------------------

    def deliver(self, dst: str, now_epoch: int) -> list[Envelope]:
        """Everything due to ``dst`` by ``now_epoch``, delivery-ordered."""
        queue = self._queues.get(dst, [])
        due = [item for item in queue if item[0] <= now_epoch]
        if not due:
            return []
        self._queues[dst] = [item for item in queue if item[0] > now_epoch]
        due.sort(key=lambda item: (item[0], item[1]))
        batch = [env for _, _, env in due]
        # a delayed packet arriving into a severed link dies at the door
        kept: list[Envelope] = []
        for env in batch:
            if self.scenario.partitioned(
                self._node_of(env), now_epoch
            ):
                self.stats.count("dropped")
            else:
                kept.append(env)
        if len(kept) > 1 and not self.scenario.quiet:
            if self._rng.random() < self.scenario.reorder_rate:
                self._rng.shuffle(kept)
        self.stats.count("delivered", len(kept))
        return kept

    def pending(self, dst: str) -> int:
        """Envelopes still queued for an endpoint (test introspection)."""
        return len(self._queues.get(dst, []))

    def flush(self, dst: str) -> int:
        """Drop everything queued for an endpoint; returns the count.

        A rebooted process has no socket buffers: whatever was in
        flight toward it died with the old incarnation.  The flushed
        envelopes are counted as dropped.
        """
        flushed = len(self._queues.pop(dst, []))
        if flushed:
            self.stats.count("dropped", flushed)
        return flushed

    # -- checkpointing -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Checkpoint queues, RNG, and stats at an epoch fence.

        Envelopes are kept as live objects (payloads are frozen
        dataclasses); the journal converts them to a JSON form when it
        is dumped to disk.
        """
        return {
            "order": self._order,
            "rng": self._rng.getstate(),
            "queues": {
                dst: list(items)
                for dst, items in sorted(self._queues.items())
            },
            "stats": self.stats.snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Restore a fence checkpoint into this (same-scenario) transport."""
        self._order = state["order"]
        self._rng.setstate(state["rng"])
        self._queues = {
            dst: list(items) for dst, items in state["queues"].items()
        }
        self.stats.restore(state["stats"])
