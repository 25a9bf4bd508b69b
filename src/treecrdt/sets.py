"""Five replicated set types, each in a state-based and an op-based flavor.

State-based payloads converge by merge; op-based payloads converge by applying
every op exactly once in causal order.  Local generation both mutates the local
payload and returns the op, so one history can drive either flavor.
`SetCrdt` owns the four entry points that change a payload, `copy`, and the
view of live elements that `lookup` and `contains` read; each kind writes
only its payload rules, its liveness predicate, its reads and its canonical
text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Optional, Set, Tuple

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


class SetCrdt:
    """Common surface: lookup, checked generation, unchecked generation, sync.

    `local_add`, `local_rmv`, `apply` and `merge` refuse a wrong flavor or
    a peer of another kind or flavor, run the kind's payload rule (`_add`,
    `_rmv`, `_apply`, `_merge`), which raises before it changes anything,
    and only then refresh `live` and give the set a new version.  So a
    refused mutation changes neither state nor version.

    `live` holds exactly the elements the kind's `_is_live` holds for, so a
    read copies it instead of walking the payload.  Each accepted mutation
    re-tests the elements it touched: the op's element, or each element
    whose payload entry a merge changed, which `_merge` returns.  Those
    are not only elements of the peer's `ever()`: a 2P remove or an OR
    tombstone can name an element that was never added.  `live` is
    read-only for callers, and readers that a test double may stand
    behind, such as the engines' reads and the harness oracle, go through
    `lookup()`.

    A tag bucket (the C set's `pos` and `neg`, the OR set's `tags` and
    `removed`) is a `frozenset` that a write replaces and never changes, so
    sets and their copies may share one.
    """

    kind: str = ""

    def __init__(self, flavor: str):
        if flavor not in FLAVORS:
            raise IllegalCombo(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.live: Set[Any] = set()
        self.version = next_version()

    def _is_live(self, e: Any) -> bool:
        raise NotImplementedError

    def _refresh(self, touched: Iterable[Any]) -> None:
        """Re-test each touched element against the payload, then bump the version."""
        for e in touched:
            if self._is_live(e):
                self.live.add(e)
            else:
                self.live.discard(e)
        self.version = next_version()

    def lookup(self) -> Set[Any]:
        return set(self.live)

    def ever(self) -> Set[Any]:
        """Every element the payload has held, removed ones included."""
        raise NotImplementedError

    def contains(self, e: Any) -> bool:
        return e in self.live

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
        self._refresh((e,))
        return op

    def local_rmv(self, e: Any, clock: ReplicaClock) -> SetOp:
        op = self._rmv(e, clock)
        self._refresh((e,))
        return op

    def apply(self, op: SetOp) -> None:
        """Apply a remote op; op-based flavor only, exactly once, causal order."""
        if self.flavor != "op":
            raise KindMismatch("apply requires the op-based flavor")
        self._apply(op)
        self._refresh((op.element,))

    def merge(self, other: "SetCrdt") -> None:
        """Fold another replica's state into this one; state-based flavor only."""
        if self.flavor != "state":
            raise KindMismatch("merge requires the state-based flavor")
        if self.kind != other.kind or self.flavor != other.flavor:
            raise KindMismatch(
                f"cannot merge {other.kind}/{other.flavor} into {self.kind}/{self.flavor}"
            )
        self._refresh(self._merge(other))

    def copy(self) -> "SetCrdt":
        """An equal set under a fresh version that shares no mutable container
        with this one.

        Each payload container, and `live`, is a set, or a dict whose values
        are immutable (tag buckets included), so a plain copy of each is
        enough; the copy shares the values, the buckets among them.
        """
        dup = type(self)(self.flavor)
        for name, value in vars(self).items():
            if isinstance(value, (set, dict)):
                setattr(dup, name, value.copy())
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

    def _is_live(self, e: Any) -> bool:
        return e in self.elements

    def ever(self) -> Set[Any]:
        return set(self.elements)

    def _add(self, e: Any, clock: ReplicaClock) -> SetOp:
        self.elements.add(e)
        return SetOp(ADD, e)

    def _rmv(self, e: Any, clock: ReplicaClock) -> SetOp:
        raise PreconditionViolation("grow-only sets do not support removal")

    def _apply(self, op: SetOp) -> None:
        if op.verb != ADD:
            raise PreconditionViolation("grow-only sets do not support removal")
        self.elements.add(op.element)

    def _merge(self, other: SetCrdt) -> Iterable[Any]:
        new = other.elements - self.elements
        self.elements |= new
        return new

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

    def _is_live(self, e: Any) -> bool:
        return e in self.added and e not in self.removed

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

    def _merge(self, other: SetCrdt) -> Iterable[Any]:
        added, removed = other.added - self.added, other.removed - self.removed
        self.added |= added
        self.removed |= removed
        return added | removed

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

    def _is_live(self, e: Any) -> bool:
        return e in self.entries and self.entries[e][1]

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

    def _merge(self, other: SetCrdt) -> Iterable[Any]:
        newer = []
        for e, pair in other.entries.items():
            if e not in self.entries or self.entries[e][0] < pair[0]:
                self.entries[e] = pair
                newer.append(e)
        return newer

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
            self.pos: Dict[Any, FrozenSet[Tag]] = {}
            self.neg: Dict[Any, FrozenSet[Tag]] = {}
        else:
            self.counts: Dict[Any, int] = {}

    def count(self, e: Any) -> int:
        if self.flavor == "state":
            return len(self.pos.get(e, ())) - len(self.neg.get(e, ()))
        return self.counts.get(e, 0)

    def _is_live(self, e: Any) -> bool:
        return self.count(e) > 0

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
            pool[e] = pool.get(e, _NO_TAGS).union(clock.fresh_tag() for _ in range(abs(delta)))
        return delta

    def _add(self, e: Any, clock: ReplicaClock) -> SetOp:
        return SetOp(ADD, e, delta=self._settle(e, 1, clock))

    def _rmv(self, e: Any, clock: ReplicaClock) -> SetOp:
        return SetOp(RMV, e, delta=self._settle(e, 0, clock))

    def _apply(self, op: SetOp) -> None:
        # a zero delta changes no balance, so it must not name the element
        if op.delta:
            self.counts[op.element] = self.counts.get(op.element, 0) + op.delta

    def _merge(self, other: SetCrdt) -> Iterable[Any]:
        return _join_buckets(self.pos, other.pos) + _join_buckets(self.neg, other.neg)

    def state(self) -> Any:
        if self.flavor == "state":
            return (frozenset(self.pos.items()), frozenset(self.neg.items()))
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
    elements can also be ranked by how recently they were last added.
    ``stamps`` maps each tag to its reading, and ``stamped`` holds the same
    pairs, a tag being minted once with one reading, each flattened to
    (tag origin, tag seq, stamp counter, stamp origin).  A flat tuple hashes
    in C and holds nothing the garbage collector tracks, and ``state()``
    copies the set with its stored hashes.  The op flavor drops removed
    tags but keeps an element's emptied bucket, the shared empty
    ``_NO_TAGS``, so ``ever()`` still names it; the canonical text skips
    empty buckets.
    """

    kind = "or"

    def __init__(self, flavor: str):
        super().__init__(flavor)
        self.tags: Dict[Any, FrozenSet[Tag]] = {}
        self.stamps: Dict[Tag, LamportStamp] = {}
        self.stamped: Set[Tuple[str, int, int, str]] = set()
        if flavor == "state":
            self.removed: Dict[Any, FrozenSet[Tag]] = {}

    def live_tags(self, e: Any) -> FrozenSet[Tag]:
        """The tags of e no remove has seen.  The op flavor returns the
        stored bucket itself, which is immutable."""
        tags = self.tags.get(e, _NO_TAGS)
        if self.flavor == "state":
            return tags - self.removed.get(e, _NO_TAGS)
        return tags

    def newest_stamp(self, e: Any) -> Optional[LamportStamp]:
        readings = [
            self.stamps[t] for t in self.live_tags(e) if t in self.stamps
        ]
        return max(readings) if readings else None

    def _is_live(self, e: Any) -> bool:
        return bool(self.live_tags(e))

    def ever(self) -> Set[Any]:
        return set(self.tags)

    def _add(self, e: Any, clock: ReplicaClock) -> SetOp:
        tag = clock.fresh_tag()
        stamp = clock.next_stamp()
        self.tags[e] = self.tags.get(e, _NO_TAGS) | {tag}
        self.stamps[tag] = stamp
        self.stamped.add((tag.origin, tag.seq, stamp.counter, stamp.origin))
        return SetOp(ADD, e, stamp=stamp, tag=tag)

    def _rmv(self, e: Any, clock: ReplicaClock) -> SetOp:
        observed = self.live_tags(e)
        if self.flavor == "state":
            self.removed[e] = self.removed.get(e, _NO_TAGS) | observed
        else:
            self._drop_tags(e, observed)
        return SetOp(RMV, e, tags=observed)

    def _drop_tags(self, e: Any, tags: FrozenSet[Tag]) -> None:
        """Op flavor: forget tags of e, keeping its bucket when one exists."""
        if e in self.tags:
            self.tags[e] = self.tags[e] - tags or _NO_TAGS

    def _apply(self, op: SetOp) -> None:
        if op.verb == ADD:
            added = {op.tag}  # an unhashable tag raises here, before any change
            if op.stamp is not None:
                # a tag or a stamp without its fields raises here
                tag, stamp = op.tag, op.stamp
                self.stamped.add((tag.origin, tag.seq, stamp.counter, stamp.origin))
                self.stamps[tag] = stamp
            self.tags[op.element] = self.tags.get(op.element, _NO_TAGS) | added
        else:
            self._drop_tags(op.element, op.tags)

    def _merge(self, other: SetCrdt) -> Iterable[Any]:
        self.stamps.update(other.stamps)
        self.stamped |= other.stamped
        return _join_buckets(self.tags, other.tags) + _join_buckets(self.removed, other.removed)

    def state(self) -> Any:
        removed = frozenset(self.removed.items()) if self.flavor == "state" else None
        return (frozenset(self.tags.items()), frozenset(self.stamped), removed)

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


def _join_buckets(
    mine: Dict[Any, FrozenSet[Tag]], theirs: Dict[Any, FrozenSet[Tag]]
) -> list:
    """Union each of their tag buckets into mine, replacing a bucket that
    grows and taking theirs where mine has none; returns the keys whose
    bucket grew."""
    grown = []
    for e, tags in theirs.items():
        bucket = mine.get(e)
        if bucket is None:
            mine[e] = frozenset(tags)
            if tags:
                grown.append(e)
        elif not tags <= bucket:
            mine[e] = bucket | tags
            grown.append(e)
    return grown


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
