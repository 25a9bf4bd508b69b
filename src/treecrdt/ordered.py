"""Ordered tree CRDTs: sibling sequences layered over the unordered types.

Positions can live on nodes (each node is an (element, position) pair, so
the tree is add-once), on edges (edges become triples and word-path steps
pair a position with each atom), or be recursive sequence elements whose
structural identity folds concurrent insertions at the same place into a
single child.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from .clocks import ReplicaClock
from .edges import EdgeTree
from .errors import IllegalCombo, PreconditionViolation
from .graph import ROOT, GraphTree, TreeOp, edge_weights
from .lookup import Instance, LookupTree
from .paths import EPSILON, WordTree, check_atom
from .policies import DEFAULT_SEVERAL_CAP, EdgeInfo
from .positions import Upi, upi_at
from .render import Path, cached_on_self, render, sort_key, sorted_elements
from .sets import ADD
from .wootr import BEGIN, END, WOOTR_KINDS, WootrElement, WootrTriple, wootr_order


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


class _PiMarked:
    """Mixin recording the positioning mode in the canonical header."""

    def canonical(self) -> str:
        lines = super().canonical().splitlines()
        lines[0] += f" pi={self.pi_mode}"
        return "\n".join(lines)


def _positioned_edge_infos(edge_set, kind: str, map_policy: str) -> list:
    """EdgeInfo list for (parent, child, position) edge triples."""
    live = sorted_elements(edge_set.lookup())
    weights = edge_weights(edge_set, kind, map_policy, live)
    return [
        EdgeInfo(src=e[0], dst=e[1], weight=weights.get(e, 0), pos=e[2]) for e in live
    ]


def _wootr_edge_infos(edge_set, kind: str, map_policy: str) -> list:
    """EdgeInfo list for (parent, element) edges; the element names the child."""
    live = sorted_elements(edge_set.lookup())
    weights = edge_weights(edge_set, kind, map_policy, live)
    return [
        EdgeInfo(src=e[0], dst=e[1].atom, weight=weights.get(e, 0), pos=e[1])
        for e in live
    ]


def _rank_wootr_children(lt: LookupTree) -> None:
    """Replace raw element positions with their rank in the sibling order."""
    groups: Dict[Tuple, List[Instance]] = {}
    for inst in lt.instances.values():
        if isinstance(inst.pos, WootrTriple):
            groups.setdefault(inst.parent, []).append(inst)
    for kids in groups.values():
        rank = {w: i for i, w in enumerate(wootr_order(k.pos for k in kids))}
        for k in kids:
            k.pos = SeqPos(rank[k.pos], k.pos)


def _check_line(line: List[WootrElement], prev: WootrElement, nxt: WootrElement):
    if prev not in line or nxt not in line or line.index(prev) >= line.index(nxt):
        raise PreconditionViolation("prev must precede next under this parent")


def _check_index(line: List[WootrElement], index: int) -> None:
    if not 0 <= index <= len(line) - 2:
        raise PreconditionViolation(f"index {index} is outside the sibling sequence")


class NodePositionedTree(_PiMarked, GraphTree):
    """Add-once graph tree whose nodes carry their own sibling position."""

    pi_mode = "node"

    def __init__(
        self,
        flavor: str,
        connect_policy: str = "skip",
        map_policy: str = "shortest",
        root: Any = ROOT,
        several_cap: int = DEFAULT_SEVERAL_CAP,
    ):
        super().__init__("2p", flavor, connect_policy, map_policy, root, several_cap)

    def _build_lookup(self) -> LookupTree:
        lt = super()._build_lookup()
        for inst in lt.instances.values():
            node = inst.node
            if isinstance(node, PositionedNode):
                # keep any mapping-policy suffix after the node's own text
                inst.label = render(node.element) + inst.label[len(render(node)):]
                inst.pos = node.upi
        return lt

    def gen_add(self, element: Any, upi: Upi, parent: Any, clock: ReplicaClock):
        self._check_fresh(upi)
        return super().gen_add(PositionedNode(element, upi), parent, clock)

    def gen_insert(
        self, element: Any, parent: Any, index: int, clock: ReplicaClock
    ) -> TreeOp:
        return self.gen_add(element, upi_at(self._child_upis(parent), index, clock), parent, clock)

    def _child_upis(self, parent: Any) -> List[Upi]:
        lt = self.lookup()
        if parent == self.root:
            key: Tuple = ()
        else:
            insts = lt.instances_of(parent)
            if not insts:
                raise PreconditionViolation(f"parent {render(parent)} is not in the tree")
            key = insts[0].key
        return [inst.node.upi for inst in lt.children(key)]

    def _check_fresh(self, upi: Upi) -> None:
        for v in self.history.nodes:
            if isinstance(v, PositionedNode) and v.upi == upi:
                raise PreconditionViolation("position identifier is not fresh")

    def copy(self) -> "NodePositionedTree":
        dup = NodePositionedTree(
            self.flavor, self.connect_policy, self.map_policy, self.root, self.several_cap
        )
        dup.nodes = self.nodes.copy()
        dup.edges = self.edges.copy()
        dup.history = self.history.copy()
        return dup


class EdgePositionedGraphTree(_PiMarked, GraphTree):
    """Graph tree whose edges carry the position ordering their child."""

    pi_mode = "edge"

    def _edge_infos(self) -> list:
        return _positioned_edge_infos(self.edges, self.kind, self.map_policy)

    def gen_add(self, n: Any, m: Any, upi: Upi, clock: ReplicaClock) -> TreeOp:
        if n == self.root:
            raise PreconditionViolation("the root is always present")
        self._check_fresh(upi)
        present = self.lookup().nodes_present()
        if n in present:
            raise PreconditionViolation(f"{render(n)} is already in the tree")
        if m != self.root and m not in present:
            raise PreconditionViolation(f"parent {render(m)} is not in the tree")
        if self.kind == "2p" and (n in self.nodes.added or n in self.nodes.removed):
            raise PreconditionViolation(f"{render(n)} was already added once")
        node_op = self.nodes.local_add(n, clock)
        edge_op = self.edges.local_add((m, n, upi), clock)
        self.history.record_node(n)
        self.history.record_edge(m, n, upi)
        return TreeOp(ADD, n, m, (node_op,), (edge_op,))

    def gen_insert(self, n: Any, m: Any, index: int, clock: ReplicaClock) -> TreeOp:
        sibs = [e[2] for e in self.edges.lookup() if e[0] == m]
        return self.gen_add(n, m, upi_at(sibs, index, clock), clock)

    def _check_fresh(self, upi: Upi) -> None:
        if any(pos == upi for _, _, pos in self.history.edges):
            raise PreconditionViolation("position identifier is not fresh")

    def apply_remote(self, op: TreeOp) -> None:
        for sub in op.node_ops:
            self.nodes.apply(sub)
        for sub in op.edge_ops:
            self.edges.apply(sub)
        if op.verb == ADD:
            m, n, upi = op.edge_ops[0].element
            self.history.record_node(n)
            self.history.record_edge(m, n, upi)

    def copy(self) -> "EdgePositionedGraphTree":
        dup = EdgePositionedGraphTree(
            self.kind,
            self.flavor,
            self.connect_policy,
            self.map_policy,
            self.root,
            self.several_cap,
        )
        dup.nodes = self.nodes.copy()
        dup.edges = self.edges.copy()
        dup.history = self.history.copy()
        return dup


class EdgePositionedEdgeTree(_PiMarked, EdgeTree):
    """Add-once edge tree of (parent, child, position) triples."""

    pi_mode = "edge"

    def __init__(
        self,
        flavor: str,
        connect_policy: str = "skip",
        map_policy: str = "shortest",
        root: Any = ROOT,
        several_cap: int = DEFAULT_SEVERAL_CAP,
    ):
        super().__init__("2p", flavor, connect_policy, map_policy, root, several_cap)

    def _edge_infos(self) -> list:
        return _positioned_edge_infos(self.edges, self.kind, self.map_policy)

    def gen_add(self, n: Any, m: Any, upi: Upi, clock: ReplicaClock) -> TreeOp:
        if n == self.root:
            raise PreconditionViolation("the root never gains an incoming edge")
        self._check_fresh(upi)
        if m != self.root and not self._has_edge_into(m):
            raise PreconditionViolation(f"no edge into {render(m)}")
        edge_op = self.edges.local_add((m, n, upi), clock)
        self.history.record_node(n)
        self.history.record_edge(m, n, upi)
        return TreeOp(ADD, n, m, (), (edge_op,))

    def gen_insert(self, n: Any, m: Any, index: int, clock: ReplicaClock) -> TreeOp:
        sibs = [e[2] for e in self.edges.lookup() if e[0] == m]
        return self.gen_add(n, m, upi_at(sibs, index, clock), clock)

    def _check_fresh(self, upi: Upi) -> None:
        if any(pos == upi for _, _, pos in self.history.edges):
            raise PreconditionViolation("position identifier is not fresh")

    def apply_remote(self, op: TreeOp) -> None:
        for sub in op.edge_ops:
            self.edges.apply(sub)
        if op.verb == ADD:
            m, n, upi = op.edge_ops[0].element
            self.history.record_node(n)
            self.history.record_edge(m, n, upi)

    def copy(self) -> "EdgePositionedEdgeTree":
        dup = EdgePositionedEdgeTree(
            self.flavor, self.connect_policy, self.map_policy, self.root, self.several_cap
        )
        dup.edges = self.edges.copy()
        dup.history = self.history.copy()
        return dup


class EdgePositionedWordTree(_PiMarked, WordTree):
    """Add-once word tree whose path steps pair a position with each atom."""

    pi_mode = "edge"

    def __init__(self, flavor: str, connect_policy: str = "skip"):
        super().__init__("2p", flavor, connect_policy)

    def _build_lookup(self) -> LookupTree:
        lt = super()._build_lookup()
        for inst in lt.instances.values():
            step = inst.key[-1]
            inst.label = render(step.atom)
            inst.pos = step.upi
        return lt

    def gen_add(self, atom: str, upi: Upi, parent: Any, clock: ReplicaClock) -> TreeOp:
        check_atom(atom)
        self._check_fresh(upi)
        p = Path(parent)
        lt = self.lookup()
        if p != EPSILON and p not in lt.instances:
            raise PreconditionViolation(f"{p.render()} is not in the tree")
        pn = p.child(PathStep(upi, atom))
        op = self.paths.local_add(pn, clock)
        return TreeOp(ADD, pn, p, (op,))

    def gen_insert(
        self, atom: str, parent: Any, index: int, clock: ReplicaClock
    ) -> TreeOp:
        p = Path(parent)
        sibs = [q[-1].upi for q in self.live_paths() if q[:-1] == p]
        return self.gen_add(atom, upi_at(sibs, index, clock), p, clock)

    def _check_fresh(self, upi: Upi) -> None:
        seen = self.paths.added | self.paths.removed
        if any(step.upi == upi for q in seen for step in q):
            raise PreconditionViolation("position identifier is not fresh")

    def copy(self) -> "EdgePositionedWordTree":
        dup = EdgePositionedWordTree(self.flavor, self.connect_policy)
        dup.paths = self.paths.copy()
        return dup


class WootrGraphTree(_PiMarked, GraphTree):
    """Graph tree ordered by recursive sequence elements on its edges."""

    pi_mode = "wootr"

    def __init__(
        self,
        kind: str,
        flavor: str,
        connect_policy: str = "skip",
        map_policy: str = "shortest",
        root: Any = ROOT,
        several_cap: int = DEFAULT_SEVERAL_CAP,
    ):
        if kind not in WOOTR_KINDS:
            raise IllegalCombo(
                f"sequence elements need concurrent add/remove resolution,"
                f" which set kind {kind!r} does not provide"
            )
        super().__init__(kind, flavor, connect_policy, map_policy, root, several_cap)

    def _edge_child(self, e: Any) -> Any:
        return e[1].atom

    def _edge_infos(self) -> list:
        return _wootr_edge_infos(self.edges, self.kind, self.map_policy)

    def _build_lookup(self) -> LookupTree:
        lt = super()._build_lookup()
        _rank_wootr_children(lt)
        return lt

    def _sibling_elements(self, m: Any) -> List[WootrTriple]:
        return [e[1] for e in self.edges.lookup() if e[0] == m]

    def gen_add(
        self,
        n: Any,
        m: Any,
        clock: ReplicaClock,
        prev: WootrElement = BEGIN,
        nxt: WootrElement = END,
    ) -> TreeOp:
        if n == self.root:
            raise PreconditionViolation("the root is always present")
        present = self.lookup().nodes_present()
        if n in present:
            raise PreconditionViolation(f"{render(n)} is already in the tree")
        if m != self.root and m not in present:
            raise PreconditionViolation(f"parent {render(m)} is not in the tree")
        line = [BEGIN, *wootr_order(self._sibling_elements(m)), END]
        _check_line(line, prev, nxt)
        w = WootrTriple(n, prev, nxt)
        node_op = self.nodes.local_add(n, clock)
        edge_op = self.edges.local_add((m, w), clock)
        self.history.record_node(n)
        self.history.record_edge(m, n, w)
        return TreeOp(ADD, n, m, (node_op,), (edge_op,))

    def gen_insert(self, n: Any, m: Any, index: int, clock: ReplicaClock) -> TreeOp:
        line = [BEGIN, *wootr_order(self._sibling_elements(m)), END]
        _check_index(line, index)
        return self.gen_add(n, m, clock, line[index], line[index + 1])

    def apply_remote(self, op: TreeOp) -> None:
        for sub in op.node_ops:
            self.nodes.apply(sub)
        for sub in op.edge_ops:
            self.edges.apply(sub)
        if op.verb == ADD:
            m, w = op.edge_ops[0].element
            self.history.record_node(w.atom)
            self.history.record_edge(m, w.atom, w)

    def copy(self) -> "WootrGraphTree":
        dup = WootrGraphTree(
            self.kind,
            self.flavor,
            self.connect_policy,
            self.map_policy,
            self.root,
            self.several_cap,
        )
        dup.nodes = self.nodes.copy()
        dup.edges = self.edges.copy()
        dup.history = self.history.copy()
        return dup


class WootrEdgeTree(_PiMarked, EdgeTree):
    """Edge tree of (parent, element) pairs; the element names the child."""

    pi_mode = "wootr"

    def __init__(
        self,
        kind: str,
        flavor: str,
        connect_policy: str = "skip",
        map_policy: str = "shortest",
        root: Any = ROOT,
        several_cap: int = DEFAULT_SEVERAL_CAP,
    ):
        if kind not in WOOTR_KINDS:
            raise IllegalCombo(
                f"sequence elements need concurrent add/remove resolution,"
                f" which set kind {kind!r} does not provide"
            )
        super().__init__(kind, flavor, connect_policy, map_policy, root, several_cap)

    def _edge_child(self, e: Any) -> Any:
        return e[1].atom

    def _edge_infos(self) -> list:
        return _wootr_edge_infos(self.edges, self.kind, self.map_policy)

    def _build_lookup(self) -> LookupTree:
        lt = super()._build_lookup()
        _rank_wootr_children(lt)
        return lt

    def _sibling_elements(self, m: Any) -> List[WootrTriple]:
        return [e[1] for e in self.edges.lookup() if e[0] == m]

    def gen_add(
        self,
        n: Any,
        m: Any,
        clock: ReplicaClock,
        prev: WootrElement = BEGIN,
        nxt: WootrElement = END,
    ) -> TreeOp:
        if n == self.root:
            raise PreconditionViolation("the root never gains an incoming edge")
        if m != self.root and not self._has_edge_into(m):
            raise PreconditionViolation(f"no edge into {render(m)}")
        line = [BEGIN, *wootr_order(self._sibling_elements(m)), END]
        _check_line(line, prev, nxt)
        w = WootrTriple(n, prev, nxt)
        edge_op = self.edges.local_add((m, w), clock)
        self.history.record_node(n)
        self.history.record_edge(m, n, w)
        return TreeOp(ADD, n, m, (), (edge_op,))

    def gen_insert(self, n: Any, m: Any, index: int, clock: ReplicaClock) -> TreeOp:
        line = [BEGIN, *wootr_order(self._sibling_elements(m)), END]
        _check_index(line, index)
        return self.gen_add(n, m, clock, line[index], line[index + 1])

    def apply_remote(self, op: TreeOp) -> None:
        for sub in op.edge_ops:
            self.edges.apply(sub)
        if op.verb == ADD:
            m, w = op.edge_ops[0].element
            self.history.record_node(w.atom)
            self.history.record_edge(m, w.atom, w)

    def copy(self) -> "WootrEdgeTree":
        dup = WootrEdgeTree(
            self.kind,
            self.flavor,
            self.connect_policy,
            self.map_policy,
            self.root,
            self.several_cap,
        )
        dup.edges = self.edges.copy()
        dup.history = self.history.copy()
        return dup


class WootrWordTree(_PiMarked, WordTree):
    """Word tree whose path steps are recursive sequence elements."""

    pi_mode = "wootr"

    def __init__(self, kind: str, flavor: str, connect_policy: str = "skip"):
        if kind not in WOOTR_KINDS:
            raise IllegalCombo(
                f"sequence elements need concurrent add/remove resolution,"
                f" which set kind {kind!r} does not provide"
            )
        super().__init__(kind, flavor, connect_policy)

    def _build_lookup(self) -> LookupTree:
        lt = super()._build_lookup()
        groups: Dict[Tuple, List[Instance]] = {}
        for inst in lt.instances.values():
            groups.setdefault(inst.key[:-1], []).append(inst)
        for kids in groups.values():
            rank = {w: i for i, w in enumerate(wootr_order(k.key[-1] for k in kids))}
            for k in kids:
                step = k.key[-1]
                k.label = render(step.atom)
                k.pos = SeqPos(rank[step], step)
        return lt

    def _sibling_steps(self, p: Path) -> List[WootrTriple]:
        return [q[-1] for q in self.live_paths() if q[:-1] == p]

    def gen_add(
        self,
        atom: str,
        parent: Any,
        clock: ReplicaClock,
        prev: WootrElement = BEGIN,
        nxt: WootrElement = END,
    ) -> TreeOp:
        check_atom(atom)
        p = Path(parent)
        lt = self.lookup()
        if p != EPSILON and p not in lt.instances:
            raise PreconditionViolation(f"{p.render()} is not in the tree")
        line = [BEGIN, *wootr_order(self._sibling_steps(p)), END]
        _check_line(line, prev, nxt)
        pn = p.child(WootrTriple(atom, prev, nxt))
        inst = lt.instances.get(pn)
        if inst is not None and not inst.ghost:
            raise PreconditionViolation(f"{pn.render()} is already in the tree")
        op = self.paths.local_add(pn, clock)
        return TreeOp(ADD, pn, p, (op,))

    def gen_insert(
        self, atom: str, parent: Any, index: int, clock: ReplicaClock
    ) -> TreeOp:
        p = Path(parent)
        line = [BEGIN, *wootr_order(self._sibling_steps(p)), END]
        _check_index(line, index)
        return self.gen_add(atom, p, clock, line[index], line[index + 1])

    def copy(self) -> "WootrWordTree":
        dup = WootrWordTree(self.kind, self.flavor, self.connect_policy)
        dup.paths = self.paths.copy()
        return dup
