"""Five replicated set types, each in a state-based and an op-based flavor.

State-based payloads converge by merge; op-based payloads converge by applying
every op exactly once in causal order.  Local generation both mutates the local
payload and returns the op, so one history can drive either flavor.
`SetCrdt` owns the four entry points that change a payload, and `copy`; each
kind writes only its payload rules, its reads and its canonical text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import AbstractSet, Any, Dict, FrozenSet, Optional, Set

from .clocks import LamportStamp, ReplicaClock, Tag
from .errors import IllegalCombo, KindMismatch, PreconditionViolation
from .render import render, sorted_elements

KINDS = ("g", "2p", "lww", "c", "or")
FLAVORS = ("state", "op")

ADD = "add"
RMV = "rmv"

_VERSIONS = itertools.count(1)
_NO_TAGS: FrozenSet[Tag] = frozenset()


def next_version() -> int:
    """A payload version never handed out before in this process.

    Every set takes a new version when it is built or copied and after each
    accepted `local_add`, `local_rmv`, `apply` or `merge`, and a refused one
    keeps it.  So equal versions mean the same set in the same state, and a
    lookup cached under them is current.
    """
    return next(_VERSIONS)


@dataclass(frozen=True, slots=True)
class SetOp:
    """One generated add or remove, with whatever metadata its kind needs."""

    verb: str
    element: Any
    stamp: Optional[LamportStamp] = None
    delta: Optional[int] = None
    tag: Optional[Tag] = None
    tags: Optional[FrozenSet[Tag]] = None

    def canonical(self) -> str:
        parts = [f"op {self.verb} {render(self.element)}"]
        if self.stamp is not None:
            parts.append(f"stamp={self.stamp.render()}")
        if self.delta is not None:
            parts.append(f"delta={self.delta}")
        if self.tag is not None:
            parts.append(f"tag={self.tag.render()}")
        if self.tags is not None:
            parts.append("tags=" + render(set(self.tags)))
        return " ".join(parts)


class SetCrdt:
    """Common surface: lookup, checked generation, unchecked generation, sync.

    `local_add`, `local_rmv`, `apply` and `merge` refuse a wrong flavor or
    a peer of another kind or flavor, run the kind's payload rule (`_add`,
    `_rmv`, `_apply`, `_merge`), which raises before it changes anything,
    and only then give the set a new version.  So a refused mutation changes
    neither state nor version.
    """

    kind: str = ""

    def __init__(self, flavor: str):
        if flavor not in FLAVORS:
            raise IllegalCombo(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.version = next_version()

    def lookup(self) -> Set[Any]:
        raise NotImplementedError

    def ever(self) -> Set[Any]:
        """Every element the payload has held, removed ones included."""
        raise NotImplementedError

    def contains(self, e: Any) -> bool:
        return e in self.lookup()

    def gen_add(self, e: Any, clock: ReplicaClock) -> SetOp:
        if self.contains(e):
            raise PreconditionViolation(f"{render(e)} already present")
        return self.local_add(e, clock)

    def gen_rmv(self, e: Any, clock: ReplicaClock) -> SetOp:
        if not self.contains(e):
            raise PreconditionViolation(f"{render(e)} not present")
        return self.local_rmv(e, clock)

    def local_add(self, e: Any, clock: ReplicaClock) -> SetOp:
        """Mutate the local payload for an add without the membership check.

        Tree types call this directly: their preconditions are evaluated on
        the lookup tree, which can disagree with raw set membership.
        """
        op = self._add(e, clock)
        self.version = next_version()
        return op

    def local_rmv(self, e: Any, clock: ReplicaClock) -> SetOp:
        op = self._rmv(e, clock)
        self.version = next_version()
        return op

    def apply(self, op: SetOp) -> None:
        """Apply a remote op; op-based flavor only, exactly once, causal order."""
        if self.flavor != "op":
            raise KindMismatch("apply requires the op-based flavor")
        self._apply(op)
        self.version = next_version()

    def merge(self, other: "SetCrdt") -> None:
        """Fold another replica's state into this one; state-based flavor only."""
        if self.flavor != "state":
            raise KindMismatch("merge requires the state-based flavor")
        if self.kind != other.kind or self.flavor != other.flavor:
            raise KindMismatch(
                f"cannot merge {other.kind}/{other.flavor} into {self.kind}/{self.flavor}"
            )
        self._merge(other)
        self.version = next_version()

    def copy(self) -> "SetCrdt":
        """An equal set under a fresh version that shares no container with this one.

        Each payload container is a set, or a dict whose values are tag sets
        or immutables, so copying one level deep is enough.
        """
        dup = type(self)(self.flavor)
        for name, value in vars(self).items():
            if isinstance(value, set):
                setattr(dup, name, set(value))
            elif isinstance(value, dict):
                inner = {k: set(v) if isinstance(v, set) else v for k, v in value.items()}
                setattr(dup, name, inner)
        return dup

    def state(self) -> Any:
        """A hashable, exact copy of the payload: equal exactly when the payloads are."""
        raise NotImplementedError

    def max_stamp(self) -> Optional[LamportStamp]:
        """Largest timestamp stored in the payload, if the kind keeps any."""
        return None

    def canonical(self) -> str:
        header = f"set kind={self.kind} flavor={self.flavor}"
        body = self._canonical_lines()
        return "\n".join([header] + body)

    def _canonical_lines(self) -> list:
        raise NotImplementedError


class GSet(SetCrdt):
    """Grow-only set: adds union together and nothing is ever removed."""

    kind = "g"

    def __init__(self, flavor: str):
        super().__init__(flavor)
        self.elements: Set[Any] = set()

    def lookup(self) -> Set[Any]:
        return set(self.elements)

    ever = lookup  # nothing is ever removed

    def _add(self, e: Any, clock: ReplicaClock) -> SetOp:
        self.elements.add(e)
        return SetOp(ADD, e)

    def _rmv(self, e: Any, clock: ReplicaClock) -> SetOp:
        raise PreconditionViolation("grow-only sets do not support removal")

    def _apply(self, op: SetOp) -> None:
        if op.verb != ADD:
            raise PreconditionViolation("grow-only sets do not support removal")
        self.elements.add(op.element)

    def _merge(self, other: SetCrdt) -> None:
        self.elements |= other.elements

    def state(self) -> Any:
        return frozenset(self.elements)

    def _canonical_lines(self) -> list:
        return [f"elem {render(e)}" for e in sorted_elements(self.elements)]


class TwoPhaseSet(SetCrdt):
    """Add-then-remove set: a removed element can never come back."""

    kind = "2p"

    def __init__(self, flavor: str):
        super().__init__(flavor)
        self.added: Set[Any] = set()
        self.removed: Set[Any] = set()

    def lookup(self) -> Set[Any]:
        return self.added - self.removed

    def ever(self) -> Set[Any]:
        return set(self.added)

    def _add(self, e: Any, clock: ReplicaClock) -> SetOp:
        if e in self.added or e in self.removed:
            raise PreconditionViolation(f"{render(e)} was already added once")
        self.added.add(e)
        return SetOp(ADD, e)

    # _add refuses every second add, so a membership check would repeat it
    gen_add = SetCrdt.local_add

    def _rmv(self, e: Any, clock: ReplicaClock) -> SetOp:
        self.removed.add(e)
        return SetOp(RMV, e)

    def _apply(self, op: SetOp) -> None:
        if op.verb == ADD:
            self.added.add(op.element)
        else:
            self.removed.add(op.element)

    def _merge(self, other: SetCrdt) -> None:
        self.added |= other.added
        self.removed |= other.removed

    def state(self) -> Any:
        return (frozenset(self.added), frozenset(self.removed))

    def _canonical_lines(self) -> list:
        lines = []
        for e in sorted_elements(self.added | self.removed):
            phase = "removed" if e in self.removed else "added"
            lines.append(f"elem {render(e)} phase={phase}")
        return lines


class LwwSet(SetCrdt):
    """Last-writer-wins set: per element, the highest-stamped add or rmv rules."""

    kind = "lww"

    def __init__(self, flavor: str):
        super().__init__(flavor)
        self.entries: Dict[Any, tuple] = {}

    def lookup(self) -> Set[Any]:
        return {e for e, (_, visible) in self.entries.items() if visible}

    def ever(self) -> Set[Any]:
        return set(self.entries)

    def _add(self, e: Any, clock: ReplicaClock) -> SetOp:
        stamp = clock.next_stamp()
        self.entries[e] = (stamp, True)
        return SetOp(ADD, e, stamp=stamp)

    def _rmv(self, e: Any, clock: ReplicaClock) -> SetOp:
        stamp = clock.next_stamp()
        self.entries[e] = (stamp, False)
        return SetOp(RMV, e, stamp=stamp)

    def _apply(self, op: SetOp) -> None:
        current = self.entries.get(op.element)
        if current is None or current[0] < op.stamp:
            self.entries[op.element] = (op.stamp, op.verb == ADD)

    def _merge(self, other: SetCrdt) -> None:
        for e, pair in other.entries.items():
            if e not in self.entries or self.entries[e][0] < pair[0]:
                self.entries[e] = pair

    def state(self) -> Any:
        return frozenset(self.entries.items())

    def max_stamp(self) -> Optional[LamportStamp]:
        stamps = [stamp for stamp, _ in self.entries.values()]
        return max(stamps) if stamps else None

    def stamp_of(self, e: Any) -> Optional[LamportStamp]:
        pair = self.entries.get(e)
        return pair[0] if pair else None

    def _canonical_lines(self) -> list:
        return [
            f"elem {render(e)} stamp={self.entries[e][0].render()}"
            f" visible={render(self.entries[e][1])}"
            for e in sorted_elements(self.entries)
        ]


class CounterSet(SetCrdt):
    """Counting set: membership is a per-element balance of adds minus removes.

    An add moves the balance to exactly 1 and a remove to exactly 0, so each
    op carries the signed delta that achieved this locally.  The state-based
    payload realizes positive deltas as fresh tags in a grow-only positive
    pool and negative deltas in a negative pool; the balance is the size
    difference, which merging by union keeps equal to the op-based counter.
    """

    kind = "c"

    def __init__(self, flavor: str):
        super().__init__(flavor)
        if flavor == "state":
            self.pos: Dict[Any, Set[Tag]] = {}
            self.neg: Dict[Any, Set[Tag]] = {}
        else:
            self.counts: Dict[Any, int] = {}

    def count(self, e: Any) -> int:
        if self.flavor == "state":
            return len(self.pos.get(e, ())) - len(self.neg.get(e, ()))
        return self.counts.get(e, 0)

    def lookup(self) -> Set[Any]:
        return {e for e in self.ever() if self.count(e) > 0}

    def ever(self) -> Set[Any]:
        if self.flavor == "state":
            return set(self.pos) | set(self.neg)
        return set(self.counts)

    def _settle(self, e: Any, balance: int, clock: ReplicaClock) -> int:
        """Move e's balance to exactly `balance`; returns the delta that took."""
        delta = balance - self.count(e)
        if delta and self.flavor == "op":
            self.counts[e] = self.counts.get(e, 0) + delta
        elif delta:
            pool = self.pos if delta > 0 else self.neg
            pool.setdefault(e, set()).update(clock.fresh_tag() for _ in range(abs(delta)))
        return delta

    def _add(self, e: Any, clock: ReplicaClock) -> SetOp:
        return SetOp(ADD, e, delta=self._settle(e, 1, clock))

    def _rmv(self, e: Any, clock: ReplicaClock) -> SetOp:
        return SetOp(RMV, e, delta=self._settle(e, 0, clock))

    def _apply(self, op: SetOp) -> None:
        # a zero delta changes no balance, so it must not name the element
        if op.delta:
            self.counts[op.element] = self.counts.get(op.element, 0) + op.delta

    def _merge(self, other: SetCrdt) -> None:
        for e, tags in other.pos.items():
            self.pos.setdefault(e, set()).update(tags)
        for e, tags in other.neg.items():
            self.neg.setdefault(e, set()).update(tags)

    def state(self) -> Any:
        if self.flavor == "state":
            return (_frozen_buckets(self.pos), _frozen_buckets(self.neg))
        return frozenset(self.counts.items())

    def _canonical_lines(self) -> list:
        lines = []
        if self.flavor == "state":
            for e in sorted_elements(set(self.pos) | set(self.neg)):
                pos = render(self.pos.get(e, set()))
                neg = render(self.neg.get(e, set()))
                lines.append(f"elem {render(e)} pos={pos} neg={neg}")
        else:
            for e in sorted_elements(self.counts):
                if self.counts[e]:
                    lines.append(f"elem {render(e)} count={self.counts[e]}")
        return lines


class ObservedRemoveSet(SetCrdt):
    """Tagged set: each add mints a tag, a remove kills only tags it has seen.

    Every tag is paired with a clock reading taken when it was minted, so
    elements can also be ranked by how recently they were last added.  The
    op flavor drops removed tags but keeps an element's emptied bucket, so
    ``ever()`` still names it; the canonical text skips empty buckets.
    """

    kind = "or"

    def __init__(self, flavor: str):
        super().__init__(flavor)
        self.tags: Dict[Any, Set[Tag]] = {}
        self.stamps: Dict[Tag, LamportStamp] = {}
        if flavor == "state":
            self.removed: Dict[Any, Set[Tag]] = {}

    def live_tags(self, e: Any) -> AbstractSet[Tag]:
        """The tags of e no remove has seen.  The op flavor returns the
        stored set itself, which callers must not mutate."""
        tags = self.tags.get(e, _NO_TAGS)
        if self.flavor == "state":
            return tags - self.removed.get(e, _NO_TAGS)
        return tags

    def newest_stamp(self, e: Any) -> Optional[LamportStamp]:
        readings = [
            self.stamps[t] for t in self.live_tags(e) if t in self.stamps
        ]
        return max(readings) if readings else None

    def lookup(self) -> Set[Any]:
        if self.flavor == "state":
            return {e for e in self.tags if self.live_tags(e)}
        # an op-flavor bucket holds only live tags
        return {e for e, tags in self.tags.items() if tags}

    def ever(self) -> Set[Any]:
        return set(self.tags)

    def _add(self, e: Any, clock: ReplicaClock) -> SetOp:
        tag = clock.fresh_tag()
        stamp = clock.next_stamp()
        self.tags.setdefault(e, set()).add(tag)
        self.stamps[tag] = stamp
        return SetOp(ADD, e, stamp=stamp, tag=tag)

    def _rmv(self, e: Any, clock: ReplicaClock) -> SetOp:
        observed = frozenset(self.live_tags(e))
        if self.flavor == "state":
            self.removed.setdefault(e, set()).update(observed)
        else:
            self._drop_tags(e, observed)
        return SetOp(RMV, e, tags=observed)

    def _drop_tags(self, e: Any, tags: FrozenSet[Tag]) -> None:
        """Op flavor: forget tags of e, keeping its bucket when one exists."""
        if e in self.tags:
            self.tags[e] -= tags

    def _apply(self, op: SetOp) -> None:
        if op.verb == ADD:
            added = {op.tag}  # an unhashable tag raises here, before any change
            self.tags.setdefault(op.element, set()).update(added)
            if op.stamp is not None:
                self.stamps[op.tag] = op.stamp
        else:
            self._drop_tags(op.element, op.tags)

    def _merge(self, other: SetCrdt) -> None:
        for e, tags in other.tags.items():
            self.tags.setdefault(e, set()).update(tags)
        for e, tags in other.removed.items():
            self.removed.setdefault(e, set()).update(tags)
        self.stamps.update(other.stamps)

    def state(self) -> Any:
        removed = _frozen_buckets(self.removed) if self.flavor == "state" else None
        return (_frozen_buckets(self.tags), frozenset(self.stamps.items()), removed)

    def max_stamp(self) -> Optional[LamportStamp]:
        return max(self.stamps.values()) if self.stamps else None

    def _canonical_lines(self) -> list:
        lines = []
        if self.flavor == "state":
            for e in sorted_elements(set(self.tags) | set(self.removed)):
                tags = render(self.tags.get(e, set()))
                removed = render(self.removed.get(e, set()))
                lines.append(f"elem {render(e)} tags={tags} removed={removed}")
        else:
            for e in sorted_elements(self.tags):
                if self.tags[e]:
                    lines.append(f"elem {render(e)} tags={render(self.tags[e])}")
        for tag in sorted(self.stamps, key=lambda t: (t.origin, t.seq)):
            lines.append(f"tag {tag.render()} stamp={self.stamps[tag].render()}")
        return lines


def _frozen_buckets(buckets: Dict[Any, Set[Tag]]) -> FrozenSet:
    """A hashable copy of an element-to-tags map, empty buckets included."""
    return frozenset((e, frozenset(tags)) for e, tags in buckets.items())


_CLASSES = {
    "g": GSet,
    "2p": TwoPhaseSet,
    "lww": LwwSet,
    "c": CounterSet,
    "or": ObservedRemoveSet,
}


def make_set(kind: str, flavor: str) -> SetCrdt:
    if kind not in _CLASSES:
        raise IllegalCombo(f"unknown set kind {kind!r}")
    return _CLASSES[kind](flavor)
