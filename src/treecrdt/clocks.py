"""Lamport timestamps, unique tags, vector clocks, and causal delivery envelopes."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

ReplicaId = str


@dataclass(frozen=True, order=True)
class LamportStamp:
    """Totally ordered logical timestamp; ties on the counter break by origin."""

    counter: int
    origin: ReplicaId

    def render(self) -> str:
        return f"{self.counter}@{self.origin}"


@dataclass(frozen=True, order=True)
class Tag:
    """Globally unique identifier minted by one replica."""

    origin: ReplicaId
    seq: int

    def render(self) -> str:
        return f"{self.origin}.{self.seq}"


class VectorClock:
    """Per-origin delivery counts with entrywise merge and partial-order compare."""

    def __init__(self, counts: Optional[Dict[ReplicaId, int]] = None):
        self.counts: Dict[ReplicaId, int] = dict(counts or {})

    def get(self, origin: ReplicaId) -> int:
        return self.counts.get(origin, 0)

    def increment(self, origin: ReplicaId) -> None:
        self.counts[origin] = self.get(origin) + 1

    def merge(self, other: "VectorClock") -> None:
        for origin, count in other.counts.items():
            if count > self.get(origin):
                self.counts[origin] = count

    def dominates(self, other: "VectorClock") -> bool:
        """True iff self >= other entrywise (absent entries read as zero)."""
        return all(self.get(o) >= c for o, c in other.counts.items())

    def copy(self) -> "VectorClock":
        return VectorClock(self.counts)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return {o: c for o, c in self.counts.items() if c} == {
            o: c for o, c in other.counts.items() if c
        }

    def __repr__(self) -> str:
        inner = ",".join(f"{o}:{c}" for o, c in sorted(self.counts.items()))
        return f"VectorClock({inner})"


@dataclass(frozen=True)
class Envelope:
    """An op in flight: payload plus origin, causal dependencies, and stamp.

    deps snapshots the sender's delivered clock at generation time, so
    deps.get(origin) counts the sender's own earlier ops and doubles as the
    per-origin sequence number minus one.
    """

    payload: Any
    origin: ReplicaId
    deps: VectorClock
    stamp: LamportStamp

    @property
    def seq(self) -> int:
        return self.deps.get(self.origin) + 1


def deliverable(env: Envelope, delivered: VectorClock) -> bool:
    """True iff all causal dependencies are met and origin FIFO order holds."""
    return delivered.dominates(env.deps) and delivered.get(env.origin) == env.seq - 1


@dataclass
class ReplicaClock:
    """Per-replica sources of timestamps, tags, randomness, and delivery state."""

    replica_id: ReplicaId
    seed: int = 0
    counter: int = 0
    tag_seq: int = 0
    delivered: VectorClock = field(default_factory=VectorClock)
    _rng: Optional[random.Random] = field(default=None, init=False, repr=False, compare=False)

    @property
    def rng(self) -> random.Random:
        """The replica's random source, seeded on first use: most clocks
        never draw, and seeding a string-keyed generator is not free."""
        if self._rng is None:
            self._rng = random.Random(f"{self.seed}/{self.replica_id}")
        return self._rng

    def next_stamp(self) -> LamportStamp:
        self.counter += 1
        return LamportStamp(self.counter, self.replica_id)

    def fresh_tag(self) -> Tag:
        self.tag_seq += 1
        return Tag(self.replica_id, self.tag_seq)

    def observe(self, stamp: LamportStamp) -> None:
        """Advance the local counter past a received stamp."""
        if stamp.counter > self.counter:
            self.counter = stamp.counter

    def wrap(self, payload: Any) -> Envelope:
        """Build the envelope for a locally generated op and count it as delivered."""
        env = Envelope(
            payload=payload,
            origin=self.replica_id,
            deps=self.delivered.copy(),
            stamp=self.next_stamp(),
        )
        self.delivered.increment(self.replica_id)
        return env

    def accept(self, env: Envelope) -> None:
        """Record delivery of a remote envelope."""
        self.delivered.increment(env.origin)
        self.observe(env.stamp)


class DeliveryBuffer:
    """Holds incoming envelopes until their causal dependencies are satisfied."""

    def __init__(self):
        self.pending: list = []

    def add(self, env: Envelope) -> None:
        self.pending.append(env)

    def drain(self, delivered: VectorClock) -> Iterator[Envelope]:
        """Yield envelopes as they become deliverable; caller must accept each.

        Each step yields the earliest-arrived deliverable envelope.  Only an
        envelope with its origin's next seq can be one, so a step checks one
        per origin, more only where copies arrived.  When the drain ends,
        the envelopes it yielded leave ``pending``, and so does any whose
        seq its origin has already had delivered: a duplicate or a replay
        is dropped instead of waiting forever.
        """
        waiting: Dict[Tuple[ReplicaId, int], List[int]] = {}
        for i, env in enumerate(self.pending):
            waiting.setdefault((env.origin, env.seq), []).append(i)
        origins = {origin for origin, _ in waiting}
        taken: Set[int] = set()
        while True:
            first = None
            for origin in origins:
                for i in waiting.get((origin, delivered.get(origin) + 1), ()):
                    if i not in taken and deliverable(self.pending[i], delivered):
                        if first is None or i < first:
                            first = i
                        break
            if first is None:
                break
            taken.add(first)
            yield self.pending[first]
        self.pending = [
            env
            for i, env in enumerate(self.pending)
            if i not in taken and env.seq > delivered.get(env.origin)
        ]
