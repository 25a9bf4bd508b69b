"""Edge-only tree CRDTs: one replicated set of (parent, child) pairs.

A node belongs to the tree exactly when some edge points at it, so the
state is a single set CRDT plus history.  The visible tree reuses the
graph connection and mapping pipeline with node membership derived from
edge targets.
"""

from __future__ import annotations

from typing import Any, Optional, Set, Tuple

from .clocks import LamportStamp, ReplicaClock
from .errors import IllegalCombo, PreconditionViolation
from .lookup import LookupTree, MemoizedLookup
from .policies import (
    CONNECT_POLICIES,
    DEFAULT_SEVERAL_CAP,
    MAP_POLICIES,
    HistoryGraph,
    connect,
    map_to_tree,
)
from .graph import (
    ROOT,
    GraphTree,
    TreeOp,
    check_merge_peer,
    check_weight_combo,
    edge_infos,
)
from .render import render, sorted_elements
from .sets import ADD, RMV, make_set


class EdgeTree(MemoizedLookup):
    """Replicated tree represented purely by its set of edges."""

    repr_name = "edge"
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
        self.edges = make_set(kind, flavor)
        self.history = HistoryGraph()
        self.history.record_node(root)

    # --- lookup pipeline ---

    def _edge_child(self, e: Any) -> Any:
        """The tree node an edge element points at."""
        return e[1]

    def _edge_infos(self) -> list:
        return edge_infos(self.edges, self.kind, self.map_policy)

    def _payload_version(self) -> Tuple[int, int]:
        return (self.edges.version, self.history.version)

    def lookup(self) -> LookupTree:
        """The visible tree of the current payload.

        The result is a shared, read-only snapshot: it is built once per
        payload state and handed to every caller until the payload changes,
        so callers must not mutate it.
        """
        return self._memoized_lookup(EdgeTree)

    def _build_lookup(self) -> LookupTree:
        live = self.edges.lookup()
        nodes = {self._edge_child(e) for e in live}
        g = connect(
            nodes,
            self._edge_infos(),
            self.history,
            self.connect_policy,
            self.root,
        )
        return map_to_tree(g, self.map_policy, self.several_cap)

    def _has_edge_into(self, m: Any) -> bool:
        return any(self._edge_child(e) == m for e in self.edges.lookup())

    # --- generation ---

    def gen_add(self, n: Any, m: Any, clock: ReplicaClock) -> TreeOp:
        if n == self.root:
            raise PreconditionViolation("the root never gains an incoming edge")
        if m != self.root and not self._has_edge_into(m):
            raise PreconditionViolation(f"no edge into {render(m)}")
        edge = (m, n)
        if self.kind == "2p":
            if edge in self.edges.added or edge in self.edges.removed:
                raise PreconditionViolation(f"edge {render(edge)} was already added once")
        edge_op = self.edges.local_add(edge, clock)
        self._note_add(n, m)
        return TreeOp(ADD, n, m, (), (edge_op,))

    def gen_rmv(self, n: Any, clock: ReplicaClock) -> TreeOp:
        if self.kind == "g":
            raise PreconditionViolation("grow-only trees cannot remove")
        if n == self.root:
            raise PreconditionViolation("the root never gains an incoming edge")
        if not self._has_edge_into(n):
            raise PreconditionViolation(f"no edge into {render(n)}")
        targets: Set[Any] = {n} | self._subtree_nodes(n)
        removed_edges = [
            e
            for e in sorted_elements(self.edges.lookup())
            if self._edge_child(e) in targets
        ]
        edge_ops = tuple(self.edges.local_rmv(e, clock) for e in removed_edges)
        return TreeOp(RMV, n, None, (), edge_ops)

    def _subtree_nodes(self, n: Any) -> Set[Any]:
        return GraphTree.subtree_nodes(self.lookup(), n)

    def _note_add(self, n: Any, m: Any) -> None:
        self.history.record_node(n)
        self.history.record_edge(m, n)

    # --- synchronization ---

    def apply_remote(self, op: TreeOp) -> None:
        for sub in op.edge_ops:
            self.edges.apply(sub)
        if op.verb == ADD:
            self._note_add(op.node, op.parent)

    def merge(self, other: "EdgeTree", clock: Optional[ReplicaClock] = None) -> None:
        check_merge_peer(self, other)
        self.edges.merge(other.edges)
        self.history.merge(other.history)
        if clock is not None:
            stamp = other.max_stamp()
            if stamp is not None:
                clock.observe(stamp)

    def max_stamp(self) -> Optional[LamportStamp]:
        return self.edges.max_stamp()

    def copy(self) -> "EdgeTree":
        dup = EdgeTree(
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

    def canonical(self) -> str:
        lines = [
            f"tree repr={self.repr_name} kind={self.kind} flavor={self.flavor}"
            f" connect={self.connect_policy} map={self.map_policy}"
        ]
        lines += ["edges " + ln for ln in self.edges.canonical().splitlines()]
        return "\n".join(lines)
