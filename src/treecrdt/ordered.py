"""Ordered trees: the position element types and the step codecs.

Positions order the children of one parent.  They live on nodes (a node is
a ``PositionedNode``, so the tree is add-once), on edges (a dense unique
``Upi`` per edge or per word-path ``PathStep``), or are recursive sequence
elements (``WootrTriple``) whose structural identity folds concurrent
insertions at the same place into a single child.

This module holds what the graph and the word engine share about each
positioning mode (``Unordered``, ``UpiPositions``, ``WootrPositions``) and
the step codecs that configure the word engine (``paths.WordTree``); the
edge codecs of the graph engine are in ``edges``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Tuple

from .clocks import ReplicaClock
from .errors import PreconditionViolation
from .lookup import Instance, LookupTree
from .positions import Upi, upi_at
from .render import cached_on_self, render, sort_key
from .wootr import (
    BEGIN,
    END,
    WootrElement,
    WootrTriple,
    check_wootr_kind,
    wootr_line,
    wootr_order,
)

# the neighbours of an element placed with no position given
WHOLE_LINE = (BEGIN, END)


@dataclass(frozen=True)
class PositionedNode:
    """A node paired with the position that orders it among its siblings."""

    element: Any
    upi: Upi

    @cached_on_self
    def render(self) -> str:
        return f"{render(self.element)}@{self.upi.render()}"

    @cached_on_self
    def canon_key(self):
        return (self.upi.canon_key(), sort_key(self.element))


@dataclass(frozen=True)
class PathStep:
    """One positioned step of a word path."""

    upi: Upi
    atom: Any

    @cached_on_self
    def render(self) -> str:
        return f"{render(self.atom)}@{self.upi.render()}"

    @cached_on_self
    def canon_key(self):
        return (self.upi.canon_key(), sort_key(self.atom))


@dataclass(frozen=True)
class SeqPos:
    """A sequence element paired with its rank in the recovered order."""

    rank: int
    element: WootrElement

    def render(self) -> str:
        return self.element.render()

    @cached_on_self
    def canon_key(self):
        return (self.rank, self.element.render())


def rank_siblings(groups: Iterable[List[Instance]], element_of) -> None:
    """Give each instance its sequence element's rank among its siblings."""
    for kids in groups:
        rank = {w: i for i, w in enumerate(wootr_order(element_of(k) for k in kids))}
        for k in kids:
            w = element_of(k)
            k.pos = SeqPos(rank[w], w)


class Unordered:
    """Positioning mode of trees whose siblings carry no order.

    A codec answers, for one positioning mode, every question the engines
    ask that depends on positions: which set kinds work, where an insert
    at a sibling index goes, whether a requested position is usable, and
    how the instances of a freshly built lookup tree are relabelled.
    """

    def check_kind(self, kind: str) -> None:
        """Refuse a set kind this positioning mode cannot work with."""

    def position_at(self, siblings: list, index: int, clock: ReplicaClock) -> Any:
        """The position that lands a new child at index among siblings."""
        raise PreconditionViolation("insert needs a positioned tree")

    def check_position(self, tree: Any, parent: Any, pos: Any) -> None:
        """Refuse a position a new child of parent may not take."""
        if pos is not None:
            raise PreconditionViolation("this tree does not order siblings")

    def finish(self, lt: LookupTree) -> None:
        """Rewrite the instances of a freshly built lookup tree in place."""


class UpiPositions(Unordered):
    """Dense unique identifiers; each new child takes a fresh one."""

    def position_at(self, siblings: list, index: int, clock: ReplicaClock) -> Upi:
        return upi_at(siblings, index, clock)

    def check_position(self, tree: Any, parent: Any, pos: Any) -> None:
        if not isinstance(pos, Upi):
            raise PreconditionViolation("a positioned tree needs a position identifier")
        if pos in self.used_positions(tree):
            raise PreconditionViolation("position identifier is not fresh")

    def used_positions(self, tree: Any) -> Iterable[Upi]:
        """Every position the tree's payload has ever held."""
        raise NotImplementedError


class WootrPositions(Unordered):
    """Sequence elements; a position is the (prev, next) pair to insert between."""

    def check_kind(self, kind: str) -> None:
        check_wootr_kind(kind)

    def position_at(self, siblings: list, index: int, clock: ReplicaClock) -> Tuple:
        line = wootr_line(siblings)
        if not 0 <= index <= len(line) - 2:
            raise PreconditionViolation(f"index {index} is outside the sibling sequence")
        return line[index], line[index + 1]

    def check_position(self, tree: Any, parent: Any, pos: Any) -> None:
        prev, nxt = pos or WHOLE_LINE
        line = wootr_line(self.sibling_positions(tree, parent))
        if prev not in line or nxt not in line or line.index(prev) >= line.index(nxt):
            raise PreconditionViolation("prev must precede next under this parent")


# --- step codecs: one word-path step per positioning mode ---


class PlainSteps(Unordered):
    """A step is the bare atom."""

    def step(self, atom: Any, pos: Any) -> Any:
        return atom

    def position_of(self, step: Any) -> Any:
        return None

    def sibling_positions(self, tree: Any, parent: Any) -> list:
        """Positions of the live paths one step below parent."""
        return [self.position_of(q[-1]) for q in tree.live_paths() if q[:-1] == parent]


class UpiSteps(UpiPositions, PlainSteps):
    """A step is a ``PathStep``: the atom and its position."""

    def step(self, atom: Any, pos: Upi) -> PathStep:
        return PathStep(pos, atom)

    def position_of(self, step: PathStep) -> Upi:
        return step.upi

    def used_positions(self, tree: Any) -> Iterable[Upi]:
        return (step.upi for q in tree.paths.ever() for step in q)

    def finish(self, lt: LookupTree) -> None:
        for inst in lt.instances.values():
            step = inst.key[-1]
            inst.label = render(step.atom)
            inst.pos = step.upi


class WootrSteps(WootrPositions, PlainSteps):
    """A step is a ``WootrTriple`` naming the atom and its neighbours."""

    def step(self, atom: Any, pos: Any) -> WootrTriple:
        return WootrTriple(atom, *(pos or WHOLE_LINE))

    def position_of(self, step: WootrTriple) -> WootrTriple:
        return step

    def finish(self, lt: LookupTree) -> None:
        for inst in lt.instances.values():
            inst.label = render(inst.key[-1].atom)
        rank_siblings(lt.kids.values(), lambda k: k.key[-1])


STEP_CODECS = {None: PlainSteps(), "edge": UpiSteps(), "wootr": WootrSteps()}
