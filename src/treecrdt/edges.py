"""Edge codecs: how the graph engine stores one edge as a set element.

``graph.GraphTree`` keeps its edges in one set CRDT.  Its positioning mode
picks the codec here that turns an edge into a set element and back
into (parent, child, position): a plain (parent, child) pair, a
(parent, child, Upi) triple, a (parent, WootrTriple) pair whose element
names the child, or a (parent, PositionedNode) pair whose child carries
its own position.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

from .errors import PreconditionViolation
from .lookup import LookupTree
from .ordered import (
    WHOLE_LINE,
    PositionedNode,
    Unordered,
    UpiPositions,
    WootrPositions,
    rank_siblings,
)
from .positions import Upi
from .render import render
from .wootr import WootrTriple


class PlainEdges(Unordered):
    """(parent, child) pairs; siblings are unordered."""

    def node(self, n: Any, pos: Any) -> Any:
        """The tree node a new child n at position pos is stored as."""
        return n

    def encode(self, m: Any, n: Any, pos: Any) -> Any:
        return (m, n)

    def decode(self, e: Any) -> Tuple[Any, Any, Any]:
        """The (parent, child, position) an edge element stands for."""
        return e[0], e[1], None

    def sibling_positions(self, tree: Any, m: Any) -> list:
        """Positions of the live edges out of m."""
        return [pos for src, _, pos in map(self.decode, tree.edges.lookup()) if src == m]


class UpiEdges(UpiPositions, PlainEdges):
    """(parent, child, Upi) triples: the edge orders its child."""

    def encode(self, m: Any, n: Any, pos: Upi) -> Tuple:
        return (m, n, pos)

    def decode(self, e: Tuple) -> Tuple[Any, Any, Any]:
        return e

    def used_positions(self, tree: Any) -> Iterable[Upi]:
        return (pos for _, _, pos in map(self.decode, tree.edges.ever()))


class NodePositions(UpiPositions, PlainEdges):
    """(parent, PositionedNode) pairs: the node orders itself."""

    def node(self, n: Any, pos: Upi) -> PositionedNode:
        return PositionedNode(n, pos)

    def used_positions(self, tree: Any) -> Iterable[Upi]:
        return (node.upi for _, node, _ in map(self.decode, tree.edges.ever()))

    def sibling_positions(self, tree: Any, m: Any) -> List[Upi]:
        """Positions of m's children in the visible tree."""
        lt = tree.lookup()
        if m == tree.root:
            key: Tuple = ()
        else:
            insts = lt.instances_of(m)
            if not insts:
                raise PreconditionViolation(f"parent {render(m)} is not in the tree")
            key = insts[0].key
        return [inst.node.upi for inst in lt.children(key)]

    def finish(self, lt: LookupTree) -> None:
        for inst in lt.instances.values():
            node = inst.node
            if isinstance(node, PositionedNode):
                # keep any mapping-policy suffix after the node's own text
                inst.label = render(node.element) + inst.label[len(render(node)):]
                inst.pos = node.upi


class WootrEdges(WootrPositions, PlainEdges):
    """(parent, WootrTriple) pairs: the sequence element names the child."""

    def encode(self, m: Any, n: Any, pos: Any) -> Tuple:
        return (m, WootrTriple(n, *(pos or WHOLE_LINE)))

    def decode(self, e: Tuple) -> Tuple[Any, Any, Any]:
        return e[0], e[1].atom, e[1]

    def finish(self, lt: LookupTree) -> None:
        rank_siblings(lt.kids.values(), lambda k: k.pos)


EDGE_CODECS = {
    None: PlainEdges(),
    "node": NodePositions(),
    "edge": UpiEdges(),
    "wootr": WootrEdges(),
}
