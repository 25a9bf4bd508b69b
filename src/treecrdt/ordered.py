"""Ordered trees: the position element types and the positioning modes.

Positions order the children of one parent.  They live on nodes (a node is
a ``PositionedNode``, so the tree is add-once), on edges (a dense unique
``Upi`` per edge, or per word-path step, which is a ``PositionedNode`` too),
or are recursive sequence elements (``WootrTriple``) whose structural
identity folds concurrent insertions at the same place into a single child.
Each ``Upi``, ``PositionedNode`` and ``WootrTriple`` hashes once, at
construction, to the hash of its field tuple, and pickling rebuilds it.

This module holds one codec per positioning mode that both engines share
(``Unordered``, ``UpiPositions``, ``WootrPositions``); each stores a child
as a graph edge element and as a word path step.  The graph-only node mode
and the one ``CODECS`` table both engines read are in ``edges``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from .clocks import ReplicaClock
from .errors import PreconditionViolation
from .lookup import LookupTree
from .positions import Upi, upi_at, upi_bounds
from .render import cached_on_self, render, sort_key
from .wootr import (
    BEGIN,
    END,
    WootrTriple,
    check_wootr_kind,
    wootr_line,
    wootr_order,
)

# the neighbours of a sequence element added with no index
WHOLE_LINE = (BEGIN, END)

# stands in for a position not yet drawn from a clock: a drawn position
# holds a fresh tag, so no element holds it, and none holds this either
UNDRAWN = object()


@dataclass(frozen=True)
class PositionedNode:
    """A node, or a word-path step, paired with the position that orders
    it among its siblings.

    Like ``WootrTriple``, it hashes once, at construction, to the hash of
    its field tuple, so set and dict reads rehash neither the element nor
    the position; unpickling rebuilds it, so the hash is the loading
    process's.
    """

    element: Any
    upi: Upi

    def __post_init__(self):
        # not a field, so no part of equality or repr
        object.__setattr__(self, "_hash", hash((self.element, self.upi)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return PositionedNode, (self.element, self.upi)

    @cached_on_self
    def render(self) -> str:
        return f"{render(self.element)}@{self.upi.render()}"

    @cached_on_self
    def canon_key(self):
        return (self.upi.canon_key(), sort_key(self.element))


class Unordered:
    """Positioning mode of trees whose siblings carry no order.

    A codec answers, for one positioning mode, every question the engines
    ask that depends on positions: which set kinds work, where an add or
    an insert at a sibling index goes, how a child is stored as a graph
    edge (``node``, ``encode``, ``decode``) or a word step (``step``,
    ``split``), and how the instances of a freshly built lookup tree are
    relabelled and put in sibling order.  The engine lists the positions
    it holds (``live_positions``); a position is never passed in.
    """

    # a position drawn from the clock goes among siblings, after the last one given no index
    draws = False

    def check_kind(self, kind: str) -> None:
        """Refuse a set kind this positioning mode cannot work with."""

    def choose(self, siblings: list, index: int) -> Any:
        """The position that lands a new child at index among siblings,
        before any draw: the position itself when choosing it takes
        nothing from the clock, else ``UNDRAWN`` for the codec's
        ``position_at`` to draw.  An index it cannot place is refused here."""
        raise PreconditionViolation("insert needs a positioned tree")

    def sibling_positions(self, tree: Any, parent: Any) -> list:
        """The positions of parent's children, one per child, in no order."""
        return tree.live_positions(parent)

    def finish(self, lt: LookupTree) -> None:
        """Rewrite the instances of a freshly built lookup tree in place,
        and put each sibling group in order if the engine could not."""

    def node(self, n: Any, pos: Any) -> Any:
        """The tree node a new child n at position pos is stored as."""
        return n

    def encode(self, m: Any, n: Any, pos: Any) -> Any:
        """The edge element that puts node n under m at pos."""
        return (m, n)

    def decode(self, e: Any) -> Tuple[Any, Any, Any]:
        """The (parent, child, position) an edge element stands for."""
        return e[0], e[1], None

    def step(self, atom: Any, pos: Any) -> Any:
        """The path step that puts atom at pos below its parent path."""
        return atom

    def split(self, step: Any) -> Tuple[Any, Any]:
        """The (atom, position) a path step stands for."""
        return step, None


class UpiPositions(Unordered):
    """Dense unique identifiers, on (parent, child, Upi) edges or
    ``PositionedNode`` steps."""

    draws = True

    def position_at(self, siblings: list, index: int, clock: ReplicaClock) -> Upi:
        return upi_at(siblings, index, clock)

    def choose(self, siblings: list, index: int) -> Any:
        upi_bounds(siblings, index)
        return UNDRAWN

    def encode(self, m: Any, n: Any, pos: Upi) -> Tuple:
        return (m, n, pos)

    def decode(self, e: Tuple) -> Tuple[Any, Any, Any]:
        return e

    def finish(self, lt: LookupTree) -> None:
        lt.sort_siblings()

    def step(self, atom: Any, pos: Upi) -> PositionedNode:
        return PositionedNode(atom, pos)

    def split(self, step: PositionedNode) -> Tuple[Any, Upi]:
        return step.element, step.upi


class WootrPositions(Unordered):
    """Sequence elements; a position is the (prev, next) pair to insert between.

    The stored ``WootrTriple`` is the position: a step, or an edge's child.
    """

    def check_kind(self, kind: str) -> None:
        check_wootr_kind(kind)

    def choose(self, siblings: list, index: int) -> Tuple:
        line = wootr_line(siblings)
        if not 0 <= index <= len(line) - 2:
            raise PreconditionViolation(f"index {index} is outside the sibling sequence")
        return line[index], line[index + 1]

    def finish(self, lt: LookupTree) -> None:
        for kids in lt.kids.values():
            if len(kids) > 1:
                rank = {w: i for i, w in enumerate(wootr_order(k.pos for k in kids))}
                kids.sort(key=lambda k: rank[k.pos])

    def encode(self, m: Any, n: Any, pos: Any) -> Tuple:
        return (m, self.step(n, pos))

    def decode(self, e: Tuple) -> Tuple[Any, Any, Any]:
        return e[0], e[1].atom, e[1]

    def step(self, atom: Any, pos: Any) -> WootrTriple:
        return WootrTriple(atom, *(pos or WHOLE_LINE))

    def split(self, step: WootrTriple) -> Tuple[Any, WootrTriple]:
        return step.atom, step
