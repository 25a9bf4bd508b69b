"""Lamport timestamps, unique tags, vector clocks, and causal delivery envelopes."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterator, List, Set, Tuple

ReplicaId = str


@dataclass(frozen=True, slots=True, order=True)
class LamportStamp:
    """Totally ordered logical timestamp; ties on the counter break by origin."""

    counter: int
    origin: ReplicaId

    def render(self) -> str:
        return f"{self.counter}@{self.origin}"


@dataclass(frozen=True, slots=True, order=True)
class Tag:
    """Globally unique identifier minted by one replica."""

    origin: ReplicaId
    seq: int

    def render(self) -> str:
        return f"{self.origin}.{self.seq}"


# A version vector counts the ops delivered from each origin.  Counter is
# one: |= is the entrywise join, >= is dominance, an absent origin reads as
# 0, and == ignores zero counts.
VectorClock = Counter


@dataclass(frozen=True, slots=True)
class Envelope:
    """An op in flight: payload plus origin, causal dependencies, and stamp.

    deps snapshots the sender's delivered clock at generation time, so
    deps[origin] counts the sender's own earlier ops and doubles as the
    per-origin sequence number minus one.
    """

    payload: Any
    origin: ReplicaId
    deps: VectorClock
    stamp: LamportStamp

    @property
    def seq(self) -> int:
        return self.deps[self.origin] + 1


def deliverable(env: Envelope, delivered: VectorClock) -> bool:
    """True iff all causal dependencies are met and origin FIFO order holds."""
    return delivered >= env.deps and delivered[env.origin] == env.seq - 1


@dataclass
class ReplicaClock:
    """Per-replica sources of timestamps, tags, randomness, and delivery state."""

    replica_id: ReplicaId
    seed: int = 0
    counter: int = 0
    tag_seq: int = 0
    delivered: VectorClock = field(default_factory=VectorClock)

    @cached_property
    def rng(self) -> random.Random:
        """The replica's random source, seeded on first use: most clocks
        never draw, and seeding a string-keyed generator is not free.  It is
        not a field, so it is no part of the clock's repr or equality."""
        return random.Random(f"{self.seed}/{self.replica_id}")

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
        self.delivered[self.replica_id] += 1
        return env

    def accept(self, env: Envelope) -> None:
        """Record delivery of a remote envelope."""
        self.delivered[env.origin] += 1
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
                for i in waiting.get((origin, delivered[origin] + 1), ()):
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
            if i not in taken and env.seq > delivered[env.origin]
        ]
