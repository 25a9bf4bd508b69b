"""Connection and mapping policies that turn a replicated graph into a tree.

The connection step repairs orphans (nodes whose ancestors were removed) and
yields a rooted graph; the mapping step collapses remaining multi-parent
conflicts into a single tree.  Both steps are pure and deterministic, so every
replica that reaches the same payload derives the same tree.  The reappear
and compact policies also read the history: every (src, dst, pos) edge ever
added, which the caller decodes from the edge set's ``ever()``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .errors import SeveralBlowup
from .lookup import LookupTree
from .render import render, sort_key

CONNECT_POLICIES = ("skip", "reappear", "root", "compact")
MAP_POLICIES = ("several", "newest", "highest", "shortest", "zero")

# the policies under which a surviving node never moves: the lookup only
# grows in place or hides what it showed
MONOTONE_CONNECT = ("skip", "reappear")
MONOTONE_MAP = ("several", "zero")

DEFAULT_SEVERAL_CAP = 10 ** 5


@dataclass(slots=True, unsafe_hash=True)
class EdgeInfo:
    """A directed edge plus the metadata mapping policies may need; treat it
    as immutable, since its identity is kept from the first call."""

    src: Any
    dst: Any
    weight: int = 0
    pos: Any = None
    _identity: Any = field(default=None, init=False, repr=False, compare=False)

    def identity(self):
        key = self._identity
        if key is None:
            key = self._identity = (sort_key(self.dst), sort_key(self.src), sort_key(self.pos))
        return key


@dataclass
class RootedGraph:
    """Connection-policy output: every node is reachable from the root.

    The edges are sorted by identity once, when the graph is built, so each
    bucket of ``in_edges`` and ``out_edges`` comes out in that order too.
    The same pass keeps one edge per identity (a forged element can decode
    to a real edge): the heaviest, the first of them among equal weights.
    """

    root: Any
    nodes: Set[Any]
    edges: List[EdgeInfo]

    def __post_init__(self):
        kept: List[EdgeInfo] = []
        last = None
        for e in sorted(self.edges, key=EdgeInfo.identity):
            key = e._identity
            if key != last:
                kept.append(e)
                last = key
            elif e.weight > kept[-1].weight:
                kept[-1] = e
        self.edges = kept

    def in_edges(self) -> Dict[Any, List[EdgeInfo]]:
        table: Dict[Any, List[EdgeInfo]] = {n: [] for n in self.nodes}
        for e in self.edges:
            table[e.dst].append(e)
        return table

    def out_edges(self) -> Dict[Any, List[EdgeInfo]]:
        table: Dict[Any, List[EdgeInfo]] = {n: [] for n in self.nodes}
        table[self.root] = []
        for e in self.edges:
            table[e.src].append(e)
        return table


def _walk(out: Dict[Any, List[Any]], reach: Set[Any], starts: Iterable[Any]) -> None:
    """Add to reach every node that out leads to from starts (in reach)."""
    queue = deque(starts)
    while queue:
        for nxt in out.get(queue.popleft(), ()):
            if nxt not in reach:
                reach.add(nxt)
                queue.append(nxt)


def _climb(starts: Iterable[Any], parents: Dict[Any, Set[Any]], stop: Set[Any]) -> Set[Any]:
    """Every node an upward walk over history parents reaches from starts.

    The walk visits each node once and does not climb above a node of stop.
    """
    seen = set(starts)
    stack = [n for n in seen if n not in stop]
    while stack:
        for parent in parents.get(stack.pop(), ()):
            if parent not in seen:
                seen.add(parent)
                if parent not in stop:
                    stack.append(parent)
    return seen


def get_connected(start: Any, anchored: Set[Any], parents: Dict[Any, Set[Any]]) -> Set[Any]:
    """The anchors of `start` under the history parents (node -> set of parents).

    An anchor is an anchored node that some history path from `start`
    reaches without passing through another anchored node; an anchored
    `start` is its own only anchor.  History cycles are harmless, and the
    result depends neither on node names nor on call order.
    """
    return _climb((start,), parents, anchored) & anchored


def connect(
    nodes: Set[Any],
    edges: Iterable[EdgeInfo],
    history: Iterable[Tuple],
    policy: str,
    root: Any,
) -> RootedGraph:
    """Apply one orphan-handling policy and return a rooted graph.

    history holds every (src, dst, pos) edge ever added; only reappear and
    compact read it.  An orphan edge runs from a removed node into a live
    node that the live edges do not connect to the root.  The root policy
    hangs it under the root.  Compact hangs it under every anchor of its
    source: every root-connected node that some history path up from the
    source reaches without passing through another root-connected node
    (see ``get_connected``).  Reappear revives every history ancestor of
    every orphan edge's source, with every history edge into one of them.
    The result does not depend on node names or on the order of edges and
    history.
    """
    if policy not in CONNECT_POLICIES:
        raise ValueError(f"unknown connection policy {policy!r}")
    live = set(nodes) | {root}
    all_edges = list(edges)
    graph_edges = [e for e in all_edges if e.src in live and e.dst in live]
    out: Dict[Any, List[Any]] = {}
    for e in graph_edges:
        out.setdefault(e.src, []).append(e.dst)
    reach = {root}
    _walk(out, reach, (root,))
    if policy == "skip":
        return RootedGraph(root, reach, [e for e in graph_edges if e.src in reach])

    orphans = live - reach
    orphan_edges = [e for e in all_edges if e.dst in orphans and e.src not in live]
    if policy == "root":
        added = [EdgeInfo(root, e.dst, e.weight, e.pos) for e in orphan_edges]
    else:
        history = list(history)
        parents: Dict[Any, Set[Any]] = {}
        for src, dst, _ in history:
            parents.setdefault(dst, set()).add(src)
        sources = {e.src for e in orphan_edges}
        if policy == "compact":
            anchors = {src: get_connected(src, reach, parents) for src in sources}
            added = [
                EdgeInfo(anchor, e.dst, e.weight, e.pos)
                for e in orphan_edges
                for anchor in anchors[e.src]
            ]
        else:
            # reappear: recreate, from history, every path from the root down
            # to each orphan edge's source, then keep the orphan edge itself
            revived = _climb(sources, parents, set())
            added = orphan_edges + [
                EdgeInfo(src, dst, -1, pos) for src, dst, pos in history if dst in revived
            ]
    # the added edges only widen what the root reaches, so the one walk goes
    # on from the targets of those whose source it has reached
    starts = []
    for e in added:
        out.setdefault(e.src, []).append(e.dst)
        if e.src in reach and e.dst not in reach:
            reach.add(e.dst)
            starts.append(e.dst)
    _walk(out, reach, starts)
    # an edge whose source the walk reached leads to a reached node
    return RootedGraph(root, reach, [e for e in graph_edges + added if e.src in reach])


def _instances_from_choice(
    g: RootedGraph, choice: Dict[Any, EdgeInfo], path_keys: bool = False
) -> LookupTree:
    """One instance per chosen edge, keyed by node, or by the edge path from
    the root the way the several policy keys them.

    Every chosen edge is a member of ``g.edges``, which is sorted by
    identity, and an identity starts with the child's sort key.  So reading
    the chosen edges in that order groups each parent's children in child
    order with no sort of their own.
    """
    tree = LookupTree(root_label=render(g.root))
    kids: Dict[Any, List[EdgeInfo]] = {}
    for e in g.edges:
        if choice.get(e.dst) is e:
            kids.setdefault(e.src, []).append(e)
    # root first, so every parent is placed before its children
    keys: Dict[Any, Tuple] = {g.root: ()}
    queue = deque([g.root])
    while queue:
        parent = queue.popleft()
        for edge in kids.get(parent, ()):
            node = edge.dst
            key = keys[parent] + ((node, edge.pos),) if path_keys else (node,)
            tree.add_instance(key, node, keys[parent], pos=edge.pos)
            keys[node] = key
            queue.append(node)
    if len(keys) <= len(choice):
        raise AssertionError("parent choice does not form a tree")
    return tree


def _already_tree(g: RootedGraph) -> Optional[Dict[Any, EdgeInfo]]:
    """Each non-root node's one in-edge, ignoring edges into the root, or None."""
    choice: Dict[Any, EdgeInfo] = {}
    for e in g.edges:
        if e.dst == g.root:
            continue
        if e.dst in choice:
            return None
        choice[e.dst] = e
    if len(choice) != len(g.nodes) - 1:
        return None
    return choice


def _map_several(g: RootedGraph, cap: int) -> LookupTree:
    tree = LookupTree(root_label=render(g.root))
    out = g.out_edges()
    count = 0
    # depth-first, one stack entry per node on the current path; trail is
    # the dotted text of the path, which labels the path's children
    on_path = {g.root}
    stack = [(g.root, (), "", iter(out.get(g.root, ())))]
    while stack:
        node, key, trail, edges = stack[-1]
        edge = next(edges, None)
        if edge is None:
            stack.pop()
            on_path.remove(node)
            continue
        if edge.dst in on_path:
            continue
        count += 1
        if count > cap:
            raise SeveralBlowup(cap)
        child_key = key + ((edge.dst, edge.pos),)
        name = render(edge.dst)
        label = f"{name}/{trail}" if trail else name
        tree.add_instance(child_key, edge.dst, key, label=label, pos=edge.pos)
        on_path.add(edge.dst)
        child_trail = f"{trail}.{name}" if trail else name
        stack.append((edge.dst, child_key, child_trail, iter(out.get(edge.dst, ()))))
    return tree


def _map_shortest(g: RootedGraph) -> LookupTree:
    """Each node under its first in-edge, in identity order, from a parent
    one level nearer the root: the least (parent, position) among them."""
    out = g.out_edges()
    depth = {g.root: 0}
    queue = deque([g.root])
    while queue:
        node = queue.popleft()
        for edge in out.get(node, ()):
            if edge.dst not in depth:
                depth[edge.dst] = depth[node] + 1
                queue.append(edge.dst)
    choice: Dict[Any, EdgeInfo] = {}
    for e in g.edges:
        if e.dst not in choice and depth.get(e.src, -2) + 1 == depth.get(e.dst):
            choice[e.dst] = e
    return _instances_from_choice(g, choice)


def _map_zero(g: RootedGraph) -> LookupTree:
    table = g.in_edges()
    out = g.out_edges()
    choice: Dict[Any, EdgeInfo] = {}
    queue = deque([g.root])
    seen = {g.root}
    while queue:
        node = queue.popleft()
        for edge in out.get(node, ()):
            if len(table[edge.dst]) >= 2 or edge.dst in seen:
                continue
            choice[edge.dst] = edge
            seen.add(edge.dst)
            queue.append(edge.dst)
    return _instances_from_choice(g, choice)


@dataclass
class _WorkEdge:
    src: Any
    dst: Any
    eff: int
    idx: int
    inner: Optional["_WorkEdge"] = None
    orig: Optional[EdgeInfo] = None

    def pref(self):
        return (self.eff, -self.idx)


def _edmonds(edges: List[_WorkEdge], root: Any, level: int = 0) -> Dict[Any, _WorkEdge]:
    """Maximum-weight arborescence; returned values are members of `edges`.

    Each node has one best in-edge, so the cycles those edges form are
    disjoint, and every one of them is contracted in the same level.
    """
    best: Dict[Any, _WorkEdge] = {}
    for e in edges:
        if e.dst == root or e.src == e.dst:
            continue
        cur = best.get(e.dst)
        if cur is None or e.pref() > cur.pref():
            best[e.dst] = e

    # each node of a cycle -> the node that stands for its cycle
    stand_in: Dict[Any, Tuple] = {}
    walked: Set[Any] = set()
    for start in best:
        path = []
        cur = start
        while cur in best and cur not in walked:
            walked.add(cur)
            path.append(cur)
            cur = best[cur].src
        if cur in path:
            super_node = ("__cycle__", level, len(stand_in))
            stand_in.update((node, super_node) for node in path[path.index(cur):])
    if not stand_in:
        return best

    new_edges: List[_WorkEdge] = []
    for e in edges:
        src = stand_in.get(e.src, e.src)
        dst = stand_in.get(e.dst, e.dst)
        if src == dst:
            continue
        eff = e.eff - best[e.dst].eff if e.dst in stand_in else e.eff
        new_edges.append(_WorkEdge(src=src, dst=dst, eff=eff, idx=e.idx, inner=e))

    # every chosen contracted edge unwraps to exactly one edge of this level;
    # it enters its cycle at one node, and the rest of the cycle keeps its
    # best in-edges
    result = {e.inner.dst: e.inner for e in _edmonds(new_edges, root, level + 1).values()}
    for node in stand_in:
        result.setdefault(node, best[node])
    return result


def _map_weighted(g: RootedGraph) -> LookupTree:
    ranked = g.edges  # in identity order
    # power-of-two bonuses give every edge subset a distinct total, so the
    # maximum-weight tree is unique and needs no further tie-breaking
    scale = 1 << len(ranked)
    work = [
        _WorkEdge(
            src=e.src,
            dst=e.dst,
            eff=e.weight * scale + (1 << (len(ranked) - 1 - i)),
            idx=i,
            orig=e,
        )
        for i, e in enumerate(ranked)
    ]
    chosen = _edmonds(work, g.root)
    return _instances_from_choice(g, {dst: e.orig for dst, e in chosen.items()})


def map_to_tree(
    g: RootedGraph, policy: str, cap: int = DEFAULT_SEVERAL_CAP
) -> LookupTree:
    """Collapse a rooted graph into one tree of instances."""
    if policy not in MAP_POLICIES:
        raise ValueError(f"unknown mapping policy {policy!r}")
    direct = _already_tree(g)
    if direct is not None:
        # several keeps its path keys here too, so an instance keeps its
        # identity when the graph turns from a DAG into a tree
        return _instances_from_choice(g, direct, path_keys=policy == "several")
    if policy == "several":
        return _map_several(g, cap)
    if policy == "shortest":
        return _map_shortest(g)
    if policy == "zero":
        return _map_zero(g)
    return _map_weighted(g)
