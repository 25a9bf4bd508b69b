"""The graph-only node positioning mode and the one codec table.

A tree's positioning mode picks the codec here that both engines use to
store a child and its position.  ``graph.GraphTree`` turns an edge into a
set element and back into (parent, child, position): a plain (parent,
child) pair, a (parent, child, Upi) triple, a (parent, WootrTriple) pair
whose element names the child, or a (parent, PositionedNode) pair whose
child carries its own position.  ``paths.WordTree`` takes a path step
from the same codec (a bare atom, a ``PositionedNode`` or a
``WootrTriple``) and refuses node positions.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

from .errors import PreconditionViolation
from .lookup import LookupTree
from .ordered import PositionedNode, Unordered, UpiPositions, WootrPositions
from .positions import Upi
from .render import render


class NodePositions(UpiPositions):
    """(parent, PositionedNode) pairs: the node orders itself."""

    # the edge is a plain pair; its child node holds the position
    encode = Unordered.encode
    decode = Unordered.decode

    def node(self, n: Any, pos: Upi) -> PositionedNode:
        return PositionedNode(n, pos)

    def used_positions(self, tree: Any) -> Iterable[Upi]:
        return (node.upi for _, node in tree.edges.ever())

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
        lt.sort_siblings()


CODECS = {
    None: Unordered(),
    "node": NodePositions(),
    "edge": UpiPositions(),
    "wootr": WootrPositions(),
}
