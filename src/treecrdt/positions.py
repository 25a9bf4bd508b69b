"""Dense, totally ordered, globally unique position identifiers.

A position is a sequence of (digit, origin, seq) triples compared
lexicographically, so a strict prefix sorts before its extensions and the
space between any two distinct positions is never empty.  The final triple
of every generated position carries a fresh origin/seq pair, which makes
the whole identifier unique without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .clocks import ReplicaClock
from .errors import InvalidInterval, PreconditionViolation
from .render import cached_on_self

DIGIT_BASE = 1 << 16

Triple = Tuple[int, str, int]


@dataclass(frozen=True, order=True)
class Upi:
    """A sibling position as a tuple of (digit, origin, seq) triples.

    Like ``WootrTriple``, a position hashes once, at construction, to the
    hash of its field tuple, so set and dict reads never rehash its
    triples; unpickling rebuilds it, so the hash is the loading process's.
    """

    triples: Tuple[Triple, ...] = ()

    def __post_init__(self):
        # not a field, so no part of equality, ordering or repr
        object.__setattr__(self, "_hash", hash((self.triples,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Upi, (self.triples,)

    @cached_on_self
    def render(self) -> str:
        if not self.triples:
            return "-"
        return ":".join(f"{d}.{o}.{s}" for d, o, s in self.triples)

    def canon_key(self) -> Tuple[Triple, ...]:
        return self.triples


UPI_MIN = Upi(())
UPI_MAX = Upi(((DIGIT_BASE, "", 0),))


def upi_between(
    left: Upi, right: Upi, clock: ReplicaClock, base: int = DIGIT_BASE
) -> Upi:
    """A fresh position strictly between two existing ones.

    Walks the two bounds level by level: copies the shared prefix, then
    either drops a random digit into the gap, or slides just below the
    right bound when the digits leave no room.  Once a level separates the
    result from a bound, that bound stops constraining deeper levels.
    """
    if not left < right:
        raise InvalidInterval(f"{left.render()} does not precede {right.render()}")
    low: Sequence[Triple] = left.triples
    high: Sequence[Triple] = right.triples
    out: List[Triple] = []
    i = 0
    while True:
        ld = low[i] if i < len(low) else None
        rd = high[i] if i < len(high) else None
        if ld is not None and ld == rd:
            out.append(ld)
            i += 1
            continue
        lo = ld[0] + 1 if ld is not None else 1
        hi = rd[0] - 1 if rd is not None else base - 1
        if lo <= hi:
            tag = clock.fresh_tag()
            out.append((clock.rng.randint(lo, hi), tag.origin, tag.seq))
            return Upi(tuple(out))
        squeezed = (rd[0], rd[1], rd[2] - 1) if rd is not None else None
        if squeezed is not None and (ld is None or squeezed > ld):
            # no digit gap: slide just below the right bound, then both
            # bounds are cleared and the next level takes any fresh digit
            out.append(squeezed)
            low = high = ()
        else:
            # the copied left triple already clears the right bound
            out.append(ld)
            high = ()
        i += 1


def upi_bounds(siblings: Sequence[Upi], index: int) -> Tuple[Upi, Upi]:
    """The two positions a new one at `index` among the siblings falls between."""
    ordered = sorted(siblings)
    if not 0 <= index <= len(ordered):
        raise PreconditionViolation(f"index {index} outside sibling range 0..{len(ordered)}")
    left = ordered[index - 1] if index > 0 else UPI_MIN
    right = ordered[index] if index < len(ordered) else UPI_MAX
    return left, right


def upi_at(siblings: Sequence[Upi], index: int, clock: ReplicaClock) -> Upi:
    """Allocate a position that lands at `index` among the given siblings."""
    return upi_between(*upi_bounds(siblings, index), clock)
