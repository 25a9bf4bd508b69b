"""The shared tree surface and the graph engine.

``ReplicatedTree`` is what every tree CRDT here has in common: one or more
set CRDTs as its payload, a lookup memoized per payload state, merge, copy,
the canonical payload text, and insertion at a sibling index.  An engine
supplies only its sets, how the visible tree is built from them, and how
ops are generated and applied.

``GraphTree`` is the engine over an edge set, plus a node set unless it is
an edge tree.  The codec of its positioning mode, from the one ``CODECS``
table in ``edges``, decides how an edge is stored.  Its visible tree is
set lookup, then a connection policy that resolves orphans, then a
mapping policy that resolves multiple parents.  The policies that revive
or rewire orphans read the history from the edge set itself: ``ever()``
keeps every edge ever added.
"""

from __future__ import annotations

from copy import copy as shallow_copy
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from .clocks import LamportStamp, ReplicaClock
from .edges import CODECS
from .errors import IllegalCombo, KindMismatch, PreconditionViolation
from .lookup import LookupTree
from .policies import (
    CONNECT_POLICIES,
    DEFAULT_SEVERAL_CAP,
    MAP_POLICIES,
    EdgeInfo,
    connect,
    map_to_tree,
)
from .render import render, sorted_elements
from .sets import ADD, RMV, SetOp, make_set

ROOT = "root"

# the one-parent policies that rank edges need per-edge metadata
WEIGHT_NEEDS = {"newest": ("lww", "or"), "highest": ("c", "or")}

# positioned elements whose set kind must be 2p, because each is added once
ADD_ONCE = {
    ("graph", "node"): "positioned nodes are add-once, so 2p",
    ("edge", "edge"): "positioned edges are add-once, so 2p",
    ("word", "edge"): "positioned path steps are add-once, so 2p",
}


def check_weight_combo(kind: str, map_policy: str) -> None:
    need = WEIGHT_NEEDS.get(map_policy)
    if need and kind not in need:
        raise IllegalCombo(
            f"mapping policy {map_policy!r} ranks edges by metadata"
            f" that set kind {kind!r} does not carry"
        )


def edge_weights(edge_set, kind: str, map_policy: str, live: list) -> Dict[Any, int]:
    """Per-edge rank used by the one-parent mapping policies."""
    if map_policy == "newest":
        stamp_of = edge_set.stamp_of if kind == "lww" else edge_set.newest_stamp
        # plain tuples order as the stamps do, without the dataclass __lt__
        keyed = {e: (s.counter, s.origin) for e, s in zip(live, map(stamp_of, live))}
        ranked = {k: i for i, k in enumerate(sorted(set(keyed.values())))}
        return {e: ranked[keyed[e]] for e in live}
    if map_policy == "highest":
        if kind == "c":
            return {e: edge_set.count(e) for e in live}
        return {e: len(edge_set.live_tags(e)) for e in live}
    return {}


def edge_infos(edge_set, kind: str, map_policy: str, codec) -> list:
    """The live edges, decoded by the codec, with their mapping-policy rank,
    in no order: ``connect`` sorts what it keeps."""
    live = edge_set.lookup()
    weights = edge_weights(edge_set, kind, map_policy, live)
    return [
        EdgeInfo(src, dst, weights.get(e, 0), pos)
        for e, (src, dst, pos) in zip(live, map(codec.decode, live))
    ]


@dataclass(frozen=True)
class TreeOp:
    """One tree-level add or remove with its underlying set ops."""

    verb: str
    node: Any
    parent: Any = None
    node_ops: Tuple[SetOp, ...] = ()
    edge_ops: Tuple[SetOp, ...] = ()

    def max_stamp(self) -> Optional[LamportStamp]:
        stamps = [
            sub.stamp for sub in self.node_ops + self.edge_ops if sub.stamp is not None
        ]
        return max(stamps) if stamps else None

    def canonical(self) -> str:
        if self.verb == ADD:
            head = f"tree add {render(self.node)} under {render(self.parent)}"
        else:
            head = f"tree rmv {render(self.node)}"
        subs = [sub.canonical() for sub in self.node_ops + self.edge_ops]
        return " ; ".join([head] + subs)


class ReplicatedTree:
    """One tree CRDT: replicated set CRDTs, a lookup, and their sync.

    An engine names its sets in ``SETS`` (merged, copied, stamped and
    printed) and supplies ``_build_lookup()``, the uncached builder of its
    visible tree, ``_add()``, an add whose position is already checked, and
    the position lists its codec (from ``CODECS``) reads.  It sets
    ``repr_name`` before this ``__init__`` runs; a combo is legal exactly
    when its engine constructs.

    The visible tree is a function of ``state()``: equal payloads show
    equal trees, which the memo and the checker's observation cache rely
    on.  A subclass customises the tree in ``_build_lookup`` and folds any
    extra input it reads into ``state()``; the memo is keyed on the set
    versions, so that input changes only when a set does.
    """

    CODECS: Dict[Optional[str], Any] = CODECS
    SETS: Tuple[str, ...] = ()
    map_policy: Optional[str] = None
    _memo_key: Any = None
    _memo_tree: Optional[LookupTree] = None

    def __init__(self, kind: str, flavor: str, connect_policy: str, pi_mode: Optional[str]):
        if pi_mode not in self.CODECS:
            raise IllegalCombo(f"unknown positioning mode {pi_mode!r}")
        self.codec = self.CODECS[pi_mode]
        self.codec.check_kind(kind)
        if kind != "2p" and (self.repr_name, pi_mode) in ADD_ONCE:
            raise IllegalCombo(ADD_ONCE[(self.repr_name, pi_mode)])
        if connect_policy not in CONNECT_POLICIES:
            raise IllegalCombo(f"unknown connection policy {connect_policy!r}")
        self.pi_mode = pi_mode
        self.kind = kind
        self.flavor = flavor
        self.connect_policy = connect_policy

    def _sets(self) -> list:
        """(name, set) for each of the sets this replica holds."""
        return [(n, part) for n in self.SETS if (part := getattr(self, n)) is not None]

    def lookup(self) -> LookupTree:
        """The visible tree of the current payload.

        The result is a shared, read-only snapshot: it is built once per
        payload state, post-processing included, and handed to every caller
        until the payload changes, so callers must not mutate it.
        """
        key = tuple(part.version for _, part in self._sets())
        if key != self._memo_key:
            self._memo_tree = self._build_lookup()
            self._memo_key = key
        return self._memo_tree

    def sibling_positions(self, m: Any) -> list:
        """The positions of m's children, one per child, in no order."""
        return self.codec.sibling_positions(self, m)

    def gen_add(self, n: Any, m: Any, clock: ReplicaClock, pos: Any = None) -> TreeOp:
        """Add n under m.  A positioned tree places n at pos among m's
        children: a fresh ``Upi``, or for sequence elements the (prev, next)
        pair to insert between (both ends when omitted)."""
        self.codec.check_position(self, m, pos)
        return self._add(n, m, clock, pos)

    def gen_insert(self, n: Any, m: Any, index: int, clock: ReplicaClock) -> TreeOp:
        """Add n so it lands at index among m's children."""
        pos = self.codec.position_at(self.sibling_positions(m), index, clock)
        return self._add(n, m, clock, pos)

    def merge(self, other: "ReplicatedTree", clock: Optional[ReplicaClock] = None) -> None:
        # refuse a replica of another combo before anything changes
        for name in ("repr_name", "kind", "flavor", "pi_mode", "connect_policy", "map_policy"):
            mine, theirs = getattr(self, name, None), getattr(other, name, None)
            if mine != theirs:
                raise KindMismatch(
                    f"cannot merge a replica with {name}={theirs} into one with {name}={mine}"
                )
        for name, mine in self._sets():
            mine.merge(getattr(other, name))
        if clock is not None:
            stamp = other.max_stamp()
            if stamp is not None:
                clock.observe(stamp)

    def max_stamp(self) -> Optional[LamportStamp]:
        stamps = [part.max_stamp() for _, part in self._sets()]
        stamps = [s for s in stamps if s is not None]
        return max(stamps) if stamps else None

    def state(self) -> Tuple[Any, ...]:
        """A hashable, exact copy of every set, in ``SETS`` order."""
        return tuple(part.state() for _, part in self._sets())

    def copy(self) -> "ReplicatedTree":
        """An independent replica with the same payload and an empty memo."""
        dup = shallow_copy(self)
        for name, part in self._sets():
            setattr(dup, name, part.copy())
        dup._memo_key = dup._memo_tree = None
        return dup

    def canonical(self) -> str:
        head = (
            f"tree repr={self.repr_name} kind={self.kind} flavor={self.flavor}"
            f" connect={self.connect_policy}"
        )
        if self.map_policy is not None:
            head += f" map={self.map_policy}"
        if self.pi_mode is not None:
            head += f" pi={self.pi_mode}"
        lines = [head]
        for name, part in self._sets():
            lines += [f"{name} " + ln for ln in part.canonical().splitlines()]
        return "\n".join(lines)


class GraphTree(ReplicatedTree):
    """Replicated tree over an edge set, plus a node set unless an edge tree.

    Two choices configure it, and a combo fixes both.  ``repr_name``
    "graph" keeps a node set of the same kind as the edge set; "edge"
    derives the nodes from edge targets, so a node is in the tree exactly
    when some edge points at it.  ``pi_mode`` picks the codec (``CODECS``)
    that turns a set element into (parent, child, position) and back, and
    answers every position-dependent question.
    """

    SETS = ("nodes", "edges")
    root = ROOT
    several_cap = DEFAULT_SEVERAL_CAP

    def __init__(
        self,
        kind: str,
        flavor: str,
        connect_policy: str = "skip",
        map_policy: Optional[str] = "shortest",
        repr_name: str = "graph",
        pi_mode: Optional[str] = None,
    ):
        if repr_name not in ("graph", "edge"):
            raise IllegalCombo(f"unknown representation {repr_name!r}")
        self.repr_name = repr_name
        # the sets come first, so an unknown kind or flavor is named first
        self.nodes = make_set(kind, flavor) if repr_name == "graph" else None
        self.edges = make_set(kind, flavor)
        if map_policy is None:
            raise IllegalCombo(f"{repr_name} trees need a mapping policy")
        if pi_mode == "node" and repr_name != "graph":
            raise IllegalCombo("node positions pair with the graph representation")
        super().__init__(kind, flavor, connect_policy, pi_mode)
        if map_policy not in MAP_POLICIES:
            raise IllegalCombo(f"unknown mapping policy {map_policy!r}")
        check_weight_combo(kind, map_policy)
        self.map_policy = map_policy
        # an edge tree has no node set to hold the root
        self._root_rule = (
            "the root is always present"
            if self.nodes is not None
            else "the root never gains an incoming edge"
        )

    # --- lookup pipeline ---

    def _build_lookup(self) -> LookupTree:
        infos = edge_infos(self.edges, self.kind, self.map_policy, self.codec)
        if self.nodes is not None:
            nodes = self.nodes.lookup()
        else:
            nodes = {info.dst for info in infos}
        history = map(self.codec.decode, self.edges.ever())
        g = connect(nodes, infos, history, self.connect_policy, self.root)
        # every mapping policy adds each parent's children in node order,
        # the display order of instances without a position; the codec of
        # a positioned tree puts them in position order
        lt = map_to_tree(g, self.map_policy, self.several_cap)
        self.codec.finish(lt)
        return lt

    def _has_edge_into(self, m: Any) -> bool:
        return any(self.codec.decode(e)[1] == m for e in self.edges.lookup())

    def live_positions(self, m: Any) -> list:
        """Positions of the live edges out of m."""
        return [pos for src, _, pos in map(self.codec.decode, self.edges.lookup()) if src == m]

    def ever_positions(self) -> Iterable[Any]:
        """Positions of every edge ever added."""
        return (pos for _, _, pos in map(self.codec.decode, self.edges.ever()))

    # --- generation ---

    def _add(self, n: Any, m: Any, clock: ReplicaClock, pos: Any) -> TreeOp:
        node = self.codec.node(n, pos)
        if node == self.root:
            raise PreconditionViolation(self._root_rule)
        if self.nodes is None:
            if m != self.root and not self._has_edge_into(m):
                raise PreconditionViolation(f"no edge into {render(m)}")
        else:
            present = self.lookup().nodes_present()
            if node in present:
                raise PreconditionViolation(f"{render(node)} is already in the tree")
            if m != self.root and m not in present:
                raise PreconditionViolation(f"parent {render(m)} is not in the tree")
        edge = self.codec.encode(m, node, pos)
        if self.kind == "2p":
            # both set adds must succeed together, so check before mutating
            if self.nodes is not None and (
                node in self.nodes.added or node in self.nodes.removed
            ):
                raise PreconditionViolation(f"{render(node)} was already added once")
            if edge in self.edges.added or edge in self.edges.removed:
                raise PreconditionViolation(
                    f"edge {render(edge)} was already added once"
                )
        node_ops = () if self.nodes is None else (self.nodes.local_add(node, clock),)
        edge_op = self.edges.local_add(edge, clock)
        return TreeOp(ADD, node, m, node_ops, (edge_op,))

    def gen_rmv(self, n: Any, clock: ReplicaClock) -> TreeOp:
        if self.kind == "g":
            raise PreconditionViolation("grow-only trees cannot remove")
        if n == self.root:
            raise PreconditionViolation(self._root_rule)
        if self.nodes is None:
            if not self._has_edge_into(n):
                raise PreconditionViolation(f"no edge into {render(n)}")
            # a hidden target still loses the edges into it
            removed_nodes = {n} | self.subtree_nodes(self.lookup(), n)
        else:
            lt = self.lookup()
            if n not in lt.nodes_present():
                raise PreconditionViolation(f"{render(n)} is not in the tree")
            removed_nodes = self.subtree_nodes(lt, n)
        removed_edges = [
            e
            for e in sorted_elements(self.edges.lookup())
            if self.codec.decode(e)[1] in removed_nodes
        ]
        node_ops = ()
        if self.nodes is not None:
            node_ops = tuple(
                self.nodes.local_rmv(u, clock) for u in sorted_elements(removed_nodes)
            )
        edge_ops = tuple(self.edges.local_rmv(e, clock) for e in removed_edges)
        return TreeOp(RMV, n, None, node_ops, edge_ops)

    @staticmethod
    def subtree_nodes(lt: LookupTree, n: Any) -> Set[Any]:
        """Nodes of every instance-subtree of n; removing one copy removes all."""
        kids = lt.kids
        nodes: Set[Any] = set()
        stack = [inst.key for inst in lt.instances_of(n)]
        while stack:
            key = stack.pop()
            nodes.add(lt.instances[key].node)
            stack.extend(child.key for child in kids.get(key, ()))
        return nodes

    # --- synchronization ---

    def apply_remote(self, op: TreeOp) -> None:
        if self.nodes is not None:
            for sub in op.node_ops:
                self.nodes.apply(sub)
        for sub in op.edge_ops:
            self.edges.apply(sub)
