"""The shared tree surface and the graph engine.

``ReplicatedTree`` is what every tree CRDT here has in common: one or more
set CRDTs as its payload, a lookup memoized per payload state, merge, copy,
the canonical payload text, and each add, placed by its codec.  An engine
supplies only its sets, how the visible tree is built from them, how ops
are generated and applied, and the names scenario scripts give its nodes
(``resolve``, ``names``).  Both engines also patch the tree they showed
last when their payload diff and the rule of ``LookupTree.edited`` allow.

``GraphTree`` is the engine over an edge set, plus a node set unless it is
an edge tree.  The codec of its positioning mode, from the one ``CODECS``
table in ``edges``, decides how an edge is stored.  Its visible tree is
set lookup, then a connection policy that resolves orphans, then a
mapping policy that resolves multiple parents.  The policies that revive
or rewire orphans read the history from the edge set itself: ``ever()``
keeps every edge ever added.
"""

from __future__ import annotations

from collections import Counter
from copy import copy as shallow_copy
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Dict, Optional, Set, Tuple

from .clocks import LamportStamp, ReplicaClock
from .edges import CODECS
from .errors import IllegalCombo, KindMismatch, PreconditionViolation
from .lookup import Instance, LookupTree
from .ordered import PositionedNode
from .policies import (
    CONNECT_POLICIES,
    DEFAULT_SEVERAL_CAP,
    MAP_POLICIES,
    EdgeInfo,
    connect,
    map_to_tree,
)
from .render import render, sort_key, sorted_elements
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


def edge_infos(edge_set, kind: str, map_policy: str, codec, live: set) -> list:
    """The live edges of edge_set, decoded by the codec, with their
    mapping-policy rank, in no order: ``connect`` sorts what it keeps."""
    weights = edge_weights(edge_set, kind, map_policy, live)
    return [
        EdgeInfo(src, dst, weights.get(e, 0), pos)
        for e, (src, dst, pos) in zip(live, map(codec.decode, live))
    ]


@dataclass(frozen=True, slots=True)
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


class ReplicatedTree:
    """One tree CRDT: replicated set CRDTs, a lookup, and their sync.

    An engine names its sets in ``SETS`` (merged, copied, stamped and
    printed) and supplies the three steps of its lookup, the two halves of
    an add at the position its codec (from ``CODECS``) chose
    (``_admit()``, which refuses it before anything changes, and
    ``_commit()``, which makes it), and the positions of a node's live
    children (``live_positions``) that the codec places a new child among.
    No caller passes a position.  It sets ``repr_name`` before this
    ``__init__`` runs; a combo is legal exactly when its engine constructs.

    The steps of a lookup are ``_read()``, the parts of the payload a
    lookup reads; ``_build(*reads)``, which builds the tree from them and
    returns it with its basis, what a later patch needs to know of it
    (None when no patch may start from it); and ``_patch(basis, *reads)``,
    which hands the payload diff to ``LookupTree.edited`` as removed keys
    and added instances.  Each returns None when the change may do more:
    ``_patch`` by its payload diff, ``edited`` by the one patch rule.
    ``lookup()`` is the one path through them: read, then patch when a
    basis is kept, else build.  ``_build_lookup()`` is the from-scratch
    oracle that every patched tree must equal.  Whether a tree may patch
    at all is its codec's ``patches``: true unless siblings follow a WOOTR
    sequence.  The graph engine then patches while its rooted graph is a
    tree, the word engine under skip and reappear; every other tree gets a
    full build on every change.

    The visible tree is a function of ``state()``: equal payloads show
    equal trees, which the memo, its patches and the checker's observation
    cache rely on.  A subclass customises the tree by overriding
    ``_build`` and returning no basis, so its tree is never patched; it
    folds any extra input it reads into ``state()``, and the memo is keyed
    on the set versions, so that input changes only when a set does.
    """

    CODECS: Dict[Optional[str], Any] = CODECS
    SETS: Tuple[str, ...] = ()
    map_policy: Optional[str] = None
    _memo_key: Any = None
    _memo_tree: Optional[LookupTree] = None
    _basis: Any = None

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

        The result is a shared, read-only snapshot: it is made once per
        payload state, post-processing included, and handed to every caller
        until the payload changes, so callers must not mutate it.  A patch
        and a build give equal trees.  The basis is detached while a patch
        runs, so a patch that raises leaves none behind.
        """
        key = tuple(part.version for _, part in self._sets())
        if key != self._memo_key:
            reads = self._read()
            basis, self._basis = self._basis, None
            lt = None if basis is None else self._patch(basis, *reads)
            if lt is None:
                lt, basis = self._build(*reads)
            self._memo_tree, self._basis, self._memo_key = lt, basis, key
        return self._memo_tree

    def _build_lookup(self) -> LookupTree:
        """The visible tree built from scratch, with no memo and no patch."""
        return self._build(*self._read())[0]

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

    def gen_add(self, n: Any, m: Any, clock: ReplicaClock) -> TreeOp:
        """Add n under m with no index: a UPI tree draws a position after
        m's last child, a WOOTR tree puts n between both ends of the
        sequence, and an unordered tree stores no position."""
        return self.gen_insert(n, m, None, clock)

    def gen_insert(self, n: Any, m: Any, index: Optional[int], clock: ReplicaClock) -> TreeOp:
        """Add n so it lands at index among m's children, or with no index
        where ``gen_add`` puts it.  The codec alone places the child, and
        the add is checked before its position is drawn, so a refused add
        takes nothing from the clock."""
        codec, siblings, pos = self.codec, (), None
        if index is not None or codec.draws:
            siblings = codec.sibling_positions(self, m)
            index = len(siblings) if index is None else index
            pos = codec.choose(siblings, index)
        self._admit(n, m, pos)
        if codec.draws:
            pos = codec.position_at(siblings, index, clock)
        return self._commit(n, m, clock, pos)

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
        """An independent replica with the same payload, an empty memo and
        no basis to patch from."""
        dup = shallow_copy(self)
        for name, part in self._sets():
            setattr(dup, name, part.copy())
        dup._memo_key = dup._memo_tree = dup._basis = None
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

    def _read(self) -> Tuple[set, Optional[set], set]:
        """The live edges, the live nodes (None in an edge tree) and every
        edge ever added."""
        nodes = None if self.nodes is None else self.nodes.lookup()
        return self.edges.lookup(), nodes, self.edges.ever()

    def _build(self, live: set, nodes: Optional[set], ever: set) -> Tuple[LookupTree, Any]:
        infos = edge_infos(self.edges, self.kind, self.map_policy, self.codec, live)
        # an edge tree's nodes are the targets of its live edges
        shown = nodes if nodes is not None else {info.dst for info in infos}
        history = map(self.codec.decode, ever)
        g = connect(shown, infos, history, self.connect_policy, self.root)
        # every mapping policy adds each parent's children in node order,
        # the display order of instances without a position; the codec of
        # a positioned tree puts them in position order
        lt = map_to_tree(g, self.map_policy, self.several_cap)
        self.codec.finish(lt)
        # each node but the root has an in-edge, so with one edge per node
        # the rooted graph was already a tree; only such a tree patches, and
        # only when its codec orders siblings by a key of each instance (no
        # WOOTR tree); its first patch makes the indexes that patches read
        if not self.codec.patches or len(g.edges) != len(g.nodes) - 1:
            return lt, None
        return lt, SimpleNamespace(live=live, nodes=nodes, ever=ever, index=None)

    def _patch(self, basis, live: set, nodes: Optional[set], ever: set) -> Optional[LookupTree]:
        """The last tree less the removed nodes, plus the added ones, when
        every new history edge is live, every new edge gives an added node
        its one live in-edge, no added node was the source of a history
        edge and every lost edge led to a removed node; ``edited`` checks
        the rest.

        The last rooted graph was a tree (``map_to_tree`` took its
        ``_already_tree`` shortcut).  Under this diff and the rule of
        ``edited``, no orphan, anchor, revival or choice among parents
        changes, whatever the policies and the edge weights: a removed
        subtree held every node a live edge, a rewired orphan or a revived
        ancestor hung from it.  So the new rooted graph is the old one less
        those subtrees plus the added nodes, and still a tree.  An added
        instance is keyed by its edge's position under ``several``, and
        shows the label and position its codec gives a built one.
        """
        codec, root, old = self.codec, self.root, self._memo_tree
        decode = codec.decode
        new_history = ever - basis.ever
        if not new_history <= live:
            return None
        if basis.index is None:
            keys = {inst.node: inst.key for inst in old.instances.values()}
            indeg = Counter(dst for _, dst, _ in map(decode, basis.live))
            sources = {src for src, _, _ in map(decode, basis.ever)}
            basis.index = keys, indeg, sources
        keys, indeg, sources = basis.index
        in_edge = {}
        for src, dst, pos in map(decode, live - basis.live):
            if dst in in_edge or dst in indeg or dst == root:
                return None
            in_edge[dst] = src, pos
        lost = Counter(dst for _, dst, _ in map(decode, basis.live - live))
        if nodes is None:
            added = in_edge.keys()
            removed = {n for n, k in lost.items() if indeg[n] == k}
        else:
            added, removed = nodes - basis.nodes, basis.nodes - nodes
        if added != in_edge.keys() or not removed >= lost.keys():
            return None
        if not sources.isdisjoint(added):
            return None
        # the index now describes the new payload; a failed patch drops it
        indeg.update(added)
        indeg.subtract(lost)
        for n in lost:
            if not indeg[n]:
                del indeg[n]
        # place added nodes parents first (todo grows as a node is placed),
        # in node order, so the instance order does not depend on hashing;
        # a cycle of added nodes and what hangs from it are never placed,
        # and no policy shows them: an edge from a live node is no orphan
        todo, waiting = [], {}
        for n in sorted(in_edge, key=sort_key):
            src = in_edge[n][0]
            if src in in_edge:
                waiting.setdefault(src, []).append(n)
            else:
                todo.append(n)
        several = self.map_policy == "several"
        new = []
        for n in todo:
            src, pos = in_edge[n]
            # an unshown source gets a key no instance has; edited refuses it
            parent = () if src == root else keys.get(src, (src,))
            # the edge's position keys the instance, as in a build
            key = keys[n] = parent + ((n, pos),) if several else (n,)
            label, shown_pos = codec.shown(n, render(n), pos)
            new.append(Instance(key, n, parent, label, pos=shown_pos))
            todo.extend(waiting.pop(n, ()))
        sources.update(src for src, _, _ in map(decode, new_history))
        basis.live, basis.nodes, basis.ever = live, nodes, ever
        is_live = indeg.__contains__ if nodes is None else nodes.__contains__
        return old.edited({keys.pop(n, None) for n in removed}, new, is_live)

    def _holds(self, m: Any) -> bool:
        """Whether a live edge points at m, or a policy shows m (reappear revives it)."""
        into = any(self.codec.decode(e)[1] == m for e in self.edges.lookup())
        return into or m in self.lookup().nodes_present()

    def live_positions(self, m: Any) -> list:
        """Positions of the live edges out of m."""
        return [pos for src, _, pos in map(self.codec.decode, self.edges.lookup()) if src == m]

    # --- script names ---

    def resolve(self, name: str) -> Any:
        """The node a script name stands for: under node positions the least
        shown node of that element, else the name itself, as "root" is."""
        if self.pi_mode != "node" or name == self.root:
            return name
        shown = self.lookup().nodes_present()
        named = [v for v in shown if isinstance(v, PositionedNode) and v.element == name]
        if not named:
            raise PreconditionViolation(f"{name} is not in the tree")
        return min(named, key=sort_key)

    def names(self) -> list:
        """The script name of each shown node, in node order."""
        shown = self.lookup().nodes_present()
        return sorted_elements({v.element if isinstance(v, PositionedNode) else v for v in shown})

    # --- generation ---

    def _admit(self, n: Any, m: Any, pos: Any) -> None:
        node = self.codec.node(n, pos)
        if n == self.root:
            raise PreconditionViolation(self._root_rule)
        if self.nodes is None:
            if m != self.root and not self._holds(m):
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

    def _commit(self, n: Any, m: Any, clock: ReplicaClock, pos: Any) -> TreeOp:
        node = self.codec.node(n, pos)
        node_ops = () if self.nodes is None else (self.nodes.local_add(node, clock),)
        edge_op = self.edges.local_add(self.codec.encode(m, node, pos), clock)
        return TreeOp(ADD, node, m, node_ops, (edge_op,))

    def gen_rmv(self, n: Any, clock: ReplicaClock) -> TreeOp:
        """Remove n and every node shown below it.

        The node ops remove the removed nodes in element order
        (``sorted_elements``).  The edge ops remove every live edge into a
        removed node, in an edge tree also the edges into a hidden target,
        in element order.  Each op takes its stamp and tag from the clock
        in that order, so the order is part of the op.  Only the edges
        chosen are sorted, which gives the same order as sorting every
        live edge and keeping those.
        """
        if self.kind == "g":
            raise PreconditionViolation("grow-only trees cannot remove")
        if n == self.root:
            raise PreconditionViolation(self._root_rule)
        if self.nodes is None:
            if not self._holds(n):
                raise PreconditionViolation(f"no edge into {render(n)}")
            # a hidden target still loses the edges into it
            removed_nodes = {n} | self.subtree_nodes(self.lookup(), n)
        else:
            lt = self.lookup()
            if n not in lt.nodes_present():
                raise PreconditionViolation(f"{render(n)} is not in the tree")
            removed_nodes = self.subtree_nodes(lt, n)
        decode = self.codec.decode
        removed_edges = sorted_elements(
            e for e in self.edges.lookup() if decode(e)[1] in removed_nodes
        )
        node_ops = ()
        if self.nodes is not None:
            node_ops = tuple(
                self.nodes.local_rmv(u, clock) for u in sorted_elements(removed_nodes)
            )
        edge_ops = tuple(self.edges.local_rmv(e, clock) for e in removed_edges)
        return TreeOp(RMV, n, None, node_ops, edge_ops)

    # --- synchronization ---

    def apply_remote(self, op: TreeOp) -> None:
        if self.nodes is not None:
            for sub in op.node_ops:
                self.nodes.apply(sub)
        for sub in op.edge_ops:
            self.edges.apply(sub)
