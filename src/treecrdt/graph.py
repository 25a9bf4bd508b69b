"""Tree CRDTs built from a node set and an edge set with a two-stage lookup.

A replica holds one set CRDT of node ids and one of (parent, child) pairs,
plus an append-only history of everything ever added.  The visible tree is
computed on demand: set lookup, then a connection policy that resolves
orphans, then a mapping policy that resolves multiple parents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from .clocks import LamportStamp, ReplicaClock
from .errors import IllegalCombo, KindMismatch, PreconditionViolation
from .lookup import LookupTree, MemoizedLookup
from .policies import (
    CONNECT_POLICIES,
    DEFAULT_SEVERAL_CAP,
    MAP_POLICIES,
    EdgeInfo,
    HistoryGraph,
    connect,
    map_to_tree,
)
from .render import render, sorted_elements
from .sets import ADD, RMV, SetOp, make_set

ROOT = "root"

# the one-parent policies that rank edges need per-edge metadata
WEIGHT_NEEDS = {"newest": ("lww", "or"), "highest": ("c", "or")}


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
        if kind == "lww":
            keyed = {e: edge_set.stamp_of(e) for e in live}
        else:
            keyed = {e: edge_set.newest_stamp(e) for e in live}
        ranked = {k: i for i, k in enumerate(sorted(set(keyed.values())))}
        return {e: ranked[keyed[e]] for e in live}
    if map_policy == "highest":
        if kind == "c":
            return {e: edge_set.count(e) for e in live}
        return {e: len(edge_set.live_tags(e)) for e in live}
    return {}


def check_merge_peer(tree: Any, other: Any) -> None:
    """Refuse to merge a replica of another combo, before anything changes."""
    for name in ("repr_name", "kind", "flavor", "pi_mode", "connect_policy", "map_policy"):
        mine, theirs = getattr(tree, name, None), getattr(other, name, None)
        if mine != theirs:
            raise KindMismatch(
                f"cannot merge a replica with {name}={theirs} into one with {name}={mine}"
            )


def edge_infos(edge_set, kind: str, map_policy: str) -> list:
    live = sorted_elements(edge_set.lookup())
    weights = edge_weights(edge_set, kind, map_policy, live)
    return [
        EdgeInfo(src=src, dst=dst, weight=weights.get((src, dst), 0))
        for src, dst in live
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


class GraphTree(MemoizedLookup):
    """Replicated tree over a node set and an edge set of the same kind."""

    repr_name = "graph"
    pi_mode: Optional[str] = None

    def __init__(
        self,
        kind: str,
        flavor: str,
        connect_policy: str = "skip",
        map_policy: str = "shortest",
        root: Any = ROOT,
        several_cap: int = DEFAULT_SEVERAL_CAP,
    ):
        if connect_policy not in CONNECT_POLICIES:
            raise IllegalCombo(f"unknown connection policy {connect_policy!r}")
        if map_policy not in MAP_POLICIES:
            raise IllegalCombo(f"unknown mapping policy {map_policy!r}")
        check_weight_combo(kind, map_policy)
        self.kind = kind
        self.flavor = flavor
        self.connect_policy = connect_policy
        self.map_policy = map_policy
        self.root = root
        self.several_cap = several_cap
        self.nodes = make_set(kind, flavor)
        self.edges = make_set(kind, flavor)
        self.history = HistoryGraph()
        self.history.record_node(root)

    # --- lookup pipeline ---

    def _edge_child(self, e: Any) -> Any:
        """The tree node an edge element points at."""
        return e[1]

    def _edge_infos(self) -> list:
        return edge_infos(self.edges, self.kind, self.map_policy)

    def rooted_graph(self):
        return connect(
            self.nodes.lookup(),
            self._edge_infos(),
            self.history,
            self.connect_policy,
            self.root,
        )

    def _payload_version(self) -> Tuple[int, int, int]:
        return (self.nodes.version, self.edges.version, self.history.version)

    def _build_lookup(self) -> LookupTree:
        return map_to_tree(self.rooted_graph(), self.map_policy, self.several_cap)

    def lookup(self) -> LookupTree:
        """The visible tree of the current payload.

        The result is a shared, read-only snapshot: it is built once per
        payload state and handed to every caller until the payload changes,
        so callers must not mutate it.
        """
        return self._memoized_lookup(GraphTree)

    # --- generation ---

    def gen_add(self, n: Any, m: Any, clock: ReplicaClock) -> TreeOp:
        if n == self.root:
            raise PreconditionViolation("the root is always present")
        present = self.lookup().nodes_present()
        if n in present:
            raise PreconditionViolation(f"{render(n)} is already in the tree")
        if m != self.root and m not in present:
            raise PreconditionViolation(f"parent {render(m)} is not in the tree")
        if self.kind == "2p":
            # both set adds must succeed together, so check before mutating
            if n in self.nodes.added or n in self.nodes.removed:
                raise PreconditionViolation(f"{render(n)} was already added once")
            edge = (m, n)
            if edge in self.edges.added or edge in self.edges.removed:
                raise PreconditionViolation(
                    f"edge {render(edge)} was already added once"
                )
        node_op = self.nodes.local_add(n, clock)
        edge_op = self.edges.local_add((m, n), clock)
        self._note_add(n, m)
        return TreeOp(ADD, n, m, (node_op,), (edge_op,))

    def gen_rmv(self, n: Any, clock: ReplicaClock) -> TreeOp:
        if self.kind == "g":
            raise PreconditionViolation("grow-only trees cannot remove")
        if n == self.root:
            raise PreconditionViolation("the root is always present")
        lt = self.lookup()
        if n not in lt.nodes_present():
            raise PreconditionViolation(f"{render(n)} is not in the tree")
        removed_nodes = self.subtree_nodes(lt, n)
        removed_edges = [
            e
            for e in sorted_elements(self.edges.lookup())
            if self._edge_child(e) in removed_nodes
        ]
        node_ops = tuple(
            self.nodes.local_rmv(u, clock) for u in sorted_elements(removed_nodes)
        )
        edge_ops = tuple(self.edges.local_rmv(e, clock) for e in removed_edges)
        return TreeOp(RMV, n, None, node_ops, edge_ops)

    @staticmethod
    def subtree_nodes(lt: LookupTree, n: Any) -> Set[Any]:
        """Nodes of every instance-subtree of n; removing one copy removes all."""
        kids = lt.children_by_parent()
        nodes: Set[Any] = set()
        stack = [inst.key for inst in lt.instances_of(n)]
        while stack:
            key = stack.pop()
            nodes.add(lt.instances[key].node)
            stack.extend(child.key for child in kids.get(key, ()))
        return nodes

    def _note_add(self, n: Any, m: Any) -> None:
        self.history.record_node(n)
        self.history.record_edge(m, n)

    # --- synchronization ---

    def apply_remote(self, op: TreeOp) -> None:
        for sub in op.node_ops:
            self.nodes.apply(sub)
        for sub in op.edge_ops:
            self.edges.apply(sub)
        if op.verb == ADD:
            self._note_add(op.node, op.parent)

    def merge(self, other: "GraphTree", clock: Optional[ReplicaClock] = None) -> None:
        check_merge_peer(self, other)
        self.nodes.merge(other.nodes)
        self.edges.merge(other.edges)
        self.history.merge(other.history)
        if clock is not None:
            stamp = other.max_stamp()
            if stamp is not None:
                clock.observe(stamp)

    def max_stamp(self) -> Optional[LamportStamp]:
        stamps = [
            s for s in (self.nodes.max_stamp(), self.edges.max_stamp()) if s is not None
        ]
        return max(stamps) if stamps else None

    def copy(self) -> "GraphTree":
        dup = GraphTree(
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

    def canonical(self) -> str:
        lines = [
            f"tree repr={self.repr_name} kind={self.kind} flavor={self.flavor}"
            f" connect={self.connect_policy} map={self.map_policy}"
        ]
        lines += ["nodes " + ln for ln in self.nodes.canonical().splitlines()]
        lines += ["edges " + ln for ln in self.edges.canonical().splitlines()]
        return "\n".join(lines)


class IncrementalTwoPhaseGraph:
    """Add-once tree that maintains its lookup in place under the skip policy.

    Every node is added at most once, so the live graph is always a forest and
    the mapping stage is the identity.  Removal messages carry just the node
    id; each receiver expands the subtree against its own cached tree.  An add
    touches a constant number of nodes regardless of tree size.
    """

    repr_name = "graph"
    kind = "2p"
    flavor = "op"
    connect_policy = "skip"
    map_policy = "shortest"

    def __init__(self, root: Any = ROOT):
        self.root = root
        self.added: Set[Any] = set()
        self.removed: Set[Any] = set()
        self.parent: Dict[Any, Any] = {}
        self.history = HistoryGraph()
        self.history.record_node(root)
        self.cached = LookupTree(root_label=render(root))
        self.last_touched = 0

    def _visible(self, n: Any) -> bool:
        return n == self.root or (n,) in self.cached.instances

    def lookup(self) -> LookupTree:
        """The maintained tree; it changes in place as the payload does."""
        return self.cached

    def batch_lookup(self) -> LookupTree:
        """Recompute the tree from the raw payload, bypassing the cache."""
        live = self.added - self.removed
        infos = [
            EdgeInfo(src=self.parent[n], dst=n) for n in sorted_elements(live)
        ]
        g = connect(live, infos, self.history, "skip", self.root)
        return map_to_tree(g, "shortest")

    def gen_add(self, n: Any, m: Any, clock: Optional[ReplicaClock] = None) -> TreeOp:
        if n == self.root:
            raise PreconditionViolation("the root is always present")
        if self._visible(n):
            raise PreconditionViolation(f"{render(n)} is already in the tree")
        if not self._visible(m):
            raise PreconditionViolation(f"parent {render(m)} is not in the tree")
        if n in self.added or n in self.removed:
            raise PreconditionViolation(f"{render(n)} was already added once")
        self._apply_add(n, m)
        return TreeOp(ADD, n, m)

    def gen_rmv(self, n: Any, clock: Optional[ReplicaClock] = None) -> TreeOp:
        if n == self.root:
            raise PreconditionViolation("the root is always present")
        if not self._visible(n):
            raise PreconditionViolation(f"{render(n)} is not in the tree")
        self._apply_rmv(n)
        return TreeOp(RMV, n)

    def apply_remote(self, op: TreeOp) -> None:
        if op.verb == ADD:
            self._apply_add(op.node, op.parent)
        else:
            self._apply_rmv(op.node)

    def _apply_add(self, n: Any, m: Any) -> None:
        self.last_touched = 2  # the new node and its parent
        self.added.add(n)
        self.parent[n] = m
        self.history.record_node(n)
        self.history.record_edge(m, n)
        if self._visible(m):
            parent_key = () if m == self.root else (m,)
            self.cached.add_instance((n,), n, parent_key)
        # an invisible parent can never come back under add-once + skip, so
        # the node is recorded and permanently dropped with no further work

    def _apply_rmv(self, n: Any) -> None:
        self.last_touched = 1
        self.removed.add(n)
        if not self._visible(n):
            return
        stack = [(n,)]
        while stack:
            key = stack.pop()
            self.last_touched += 1
            self.removed.add(self.cached.instances[key].node)
            stack.extend(child.key for child in self.cached.children(key))
            self.cached.remove_instance(key)
