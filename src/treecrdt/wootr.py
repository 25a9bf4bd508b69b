"""Recursive sequence elements ordered without keeping tombstones.

An element is one of the two sequence ends or a triple of an atom and the
two elements it was inserted between.  Identity is structural, so the same
concurrent insertion on two replicas produces one element, and a removed
element can be reintroduced.  Ordering recovers the place of referenced
but deleted elements by integrating the whole reference closure, shallow
elements first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, FrozenSet, Iterable, List, Set, Tuple

from .clocks import ReplicaClock
from .errors import IllegalCombo, InvalidInterval, PreconditionViolation
from .render import cached_on_self, render, sort_key
from .sets import SetCrdt, SetOp, make_set

WOOTR_KINDS = ("lww", "c", "or")


@dataclass(frozen=True)
class WootrBound:
    """One of the two fixed ends of every sequence."""

    side: str
    depth = 0  # not a field, so no part of equality, hashing or repr

    def render(self) -> str:
        return "^" if self.side == "begin" else "$"

    def canon_key(self):
        return self.side


BEGIN = WootrBound("begin")
END = WootrBound("end")


@dataclass(frozen=True)
class WootrTriple:
    """An atom placed between two other elements."""

    atom: Any
    prev: WootrBound | WootrTriple
    next: WootrBound | WootrTriple

    def __post_init__(self):
        # the field hash and the nesting depth, each computed once: uncached,
        # either walks the reference DAG once per path through it; a neighbour
        # that is not an element reads as depth 0 (ordering refuses it)
        object.__setattr__(self, "_hash", hash((self.atom, self.prev, self.next)))
        depth = max(getattr(self.prev, "depth", 0), getattr(self.next, "depth", 0))
        object.__setattr__(self, "depth", 1 + depth)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: Any) -> bool:
        # identity first, then the cached hash, then the fields, with an
        # explicit stack and each pair of triples compared once: a
        # recursive compare of equal chains built apart goes one call deep
        # per level, and once per path through a shared reference
        if self is other:
            return True
        if other.__class__ is not WootrTriple:
            return NotImplemented
        if self._hash != other._hash:
            return False
        stack = [(self, other)]
        seen = set()
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not WootrTriple or b.__class__ is not WootrTriple:
                if a != b:
                    return False
                continue
            if a._hash != b._hash or a.atom != b.atom:
                return False
            if (id(a), id(b)) not in seen:
                seen.add((id(a), id(b)))
                stack += ((a.prev, b.prev), (a.next, b.next))
        return True

    def __reduce__(self):
        # unpickling rebuilds the triple, so its hash is the loading
        # process's, whatever that process's hash seed
        return WootrTriple, (self.atom, self.prev, self.next)

    @cached_on_self
    def render(self) -> str:
        return f"<{render(self.atom)}.{render(self.prev)}.{render(self.next)}>"

    def canon_key(self):
        return self.render()


def wootr_closure(elements: Iterable[WootrBound | WootrTriple]) -> Set[WootrTriple]:
    """Every triple reachable through prev/next references."""
    seen: Set[WootrTriple] = set()
    stack = [e for e in elements if isinstance(e, WootrTriple)]
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        for ref in (e.prev, e.next):
            if isinstance(ref, WootrTriple) and ref not in seen:
                stack.append(ref)
    return seen


def _hint(e: WootrTriple) -> Tuple:
    # concurrent elements between the same neighbours order by their atom
    # first; the structural encoding settles equal atoms
    return (sort_key(e.atom), e.render())


def _integrate(seq: List[WootrBound | WootrTriple], e: WootrTriple) -> None:
    """Place e between its two neighbours in the sequence."""
    index = {x: i for i, x in enumerate(seq)}
    lpos, rpos = index.get(e.prev), index.get(e.next)
    # every placed element sits between its own neighbours, so a window that
    # is not empty always holds a wall and the loop below narrows it
    if lpos is None or rpos is None or lpos >= rpos:
        raise InvalidInterval(
            f"the neighbours of atom {render(e.atom)} are not in sequence order"
        )
    while rpos - lpos > 1:
        # narrow the window using only elements whose own references span it
        walls = [lpos]
        for i in range(lpos + 1, rpos):
            x = seq[i]
            if index[x.prev] <= lpos and index[x.next] >= rpos:
                walls.append(i)
        walls.append(rpos)
        k = 1
        while k < len(walls) - 1 and _hint(seq[walls[k]]) < _hint(e):
            k += 1
        lpos, rpos = walls[k - 1], walls[k]
    seq.insert(rpos, e)


def wootr_order(elements: Iterable[WootrBound | WootrTriple]) -> List[WootrTriple]:
    """The given live triples in sequence order, as a fresh list.

    Integrates the whole reference closure shallow-first, so the place of
    a deleted previous or next element is recovered before it is needed,
    then filters the result back down to the live elements.  Raises
    ``InvalidInterval`` for a triple whose previous element does not
    precede its next one.

    The order is memoized per live set, in a memo of fixed size: a lookup
    build orders every sibling group again, though an insert or a merge
    changes one or two of them.  A triple's identity is structural, so an
    equal set of distinct triple objects finds the same entry.
    """
    return list(_order_live(frozenset(e for e in elements if isinstance(e, WootrTriple))))


@lru_cache(maxsize=128)
def _order_live(live: FrozenSet[WootrTriple]) -> Tuple[WootrTriple, ...]:
    # safe to memoize: the closure is sorted by (depth, text), so the result
    # does not depend on the set's iteration order, and lru_cache stores no
    # exception, so a bad window raises InvalidInterval on every call.  Sort
    # keys are computed in list order, so sorting by depth first renders
    # each text after the texts it embeds, and no render recurses deeply
    universe = sorted(wootr_closure(live), key=lambda t: t.depth)
    universe.sort(key=lambda t: (t.depth, t.render()))
    seq: List[WootrBound | WootrTriple] = [BEGIN, END]
    for e in universe:
        _integrate(seq, e)
    return tuple(e for e in seq[1:-1] if e in live)


def check_wootr_kind(kind: str) -> None:
    """Refuse a set kind that cannot hold sequence elements."""
    if kind not in WOOTR_KINDS:
        raise IllegalCombo(
            f"sequence elements need concurrent add/remove resolution,"
            f" which set kind {kind!r} does not provide"
        )


def wootr_line(elements: Iterable[WootrBound | WootrTriple]) -> List[WootrBound | WootrTriple]:
    """The live triples in sequence order between the two ends."""
    return [BEGIN, *wootr_order(elements), END]


class WootrSequence:
    """A collaborative sequence: a set CRDT of elements plus their order."""

    def __init__(self, kind: str, flavor: str):
        check_wootr_kind(kind)
        self.kind = kind
        self.flavor = flavor
        self.elements: SetCrdt = make_set(kind, flavor)

    def order(self) -> List[WootrTriple]:
        return wootr_order(self.elements.lookup())

    def line(self) -> List[WootrBound | WootrTriple]:
        """The current sequence with its two ends, for picking neighbours."""
        return wootr_line(self.elements.lookup())

    def text(self) -> str:
        return "".join(render(e.atom) for e in self.order())

    def gen_insert(
        self,
        atom: Any,
        prev: WootrBound | WootrTriple,
        nxt: WootrBound | WootrTriple,
        clock: ReplicaClock,
    ) -> SetOp:
        line = self.line()
        if prev not in line or nxt not in line or line.index(prev) >= line.index(nxt):
            raise PreconditionViolation(
                "prev must precede next in the current sequence"
            )
        return self.elements.gen_add(WootrTriple(atom, prev, nxt), clock)

    def apply(self, op: SetOp) -> None:
        self.elements.apply(op)

    def merge(self, other: "WootrSequence") -> None:
        self.elements.merge(other.elements)

    def copy(self) -> "WootrSequence":
        dup = WootrSequence(self.kind, self.flavor)
        dup.elements = self.elements.copy()
        return dup
