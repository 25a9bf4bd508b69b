"""Shared test utilities: miniature replica groups and brute-force oracles."""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from collections import Counter, deque
from pathlib import Path as FsPath
from typing import Any, Dict, Iterable, List, Optional, Tuple

from treecrdt.clocks import ReplicaClock
from treecrdt.errors import PreconditionViolation
from treecrdt.harness import make_tree, oracle_membership
from treecrdt.lookup import LookupTree
from treecrdt.paths import EPSILON, check_atom
from treecrdt.policies import EdgeInfo, get_connected
from treecrdt.render import Path, render, sort_key, sorted_elements
from treecrdt.sets import ADD, RMV, ObservedRemoveSet, SetOp, make_set
from treecrdt.wootr import BEGIN, END, WootrSequence, WootrTriple

REPLICAS = ("r1", "r2", "r3")

SRC = str(FsPath(__file__).resolve().parent.parent / "src")


class HiddenNodeSet(ObservedRemoveSet):
    """Planted bug: the node set's lookup never shows node a."""

    def lookup(self):
        return super().lookup() - {"a"}


def hiding_tree(combo):
    tree = make_tree(combo)
    tree.nodes = HiddenNodeSet(combo.flavor)
    return tree


class CountingAtom:
    """An atom that counts how often it is hashed."""

    hashes = 0

    def __init__(self, name):
        self.name = name

    def __hash__(self):
        CountingAtom.hashes += 1
        return hash(self.name)

    def render(self):
        return self.name

    def canon_key(self):
        return self.name


def assert_unpickled_hash(value: Any, fields: str) -> None:
    """Load the pickled value in a fresh process under hash seeds 1 and 999,
    and check there that it hashes as ``fields`` does, an expression in v."""
    data = pickle.dumps(value)
    check = (
        "import pickle, sys; v = pickle.loads(sys.stdin.buffer.read());"
        f" assert hash(v) == hash({fields})"
    )
    for seed in ("1", "999"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC}
        subprocess.run([sys.executable, "-c", check], input=data, env=env, check=True)


def parse_path(text: str) -> Path:
    """Read a /-joined path literal; "/" or the empty string is the root."""
    atoms = [a for a in text.strip().split("/") if a]
    for atom in atoms:
        check_atom(atom)
    return Path(atoms)


def is_prefix_closed(paths: Iterable[Path]) -> bool:
    got = {Path(p) for p in paths} | {EPSILON}
    return all(Path(p[:-1]) in got for p in got if p)


def gen_insert_at(seq: WootrSequence, atom: Any, index: int, clock: ReplicaClock) -> SetOp:
    """Insert so the atom lands at `index` in the sequence's current text."""
    line = seq.line()
    if not 0 <= index <= len(line) - 2:
        raise PreconditionViolation(f"index {index} is outside the sequence")
    return seq.gen_insert(atom, line[index], line[index + 1], clock)


def gen_remove(seq: WootrSequence, e: WootrTriple, clock: ReplicaClock) -> SetOp:
    return seq.elements.gen_rmv(e, clock)


def same_tree(a: LookupTree, b: LookupTree) -> bool:
    """Whether two lookup trees agree on everything a reader can see.

    That is every field of every instance, the key of every sibling group
    (no group is empty) and the instances in each group, in order.
    """
    if a.root_label != b.root_label or a.instances != b.instances:
        return False
    return a.kids == b.kids and all(a.kids.values()) and all(b.kids.values())


class SetGroup:
    """Replicas running one set kind in one flavor, synced only at sync points."""

    def __init__(self, kind: str, flavor: str, replicas=REPLICAS, seed: int = 0):
        self.kind = kind
        self.flavor = flavor
        self.states = {r: make_set(kind, flavor) for r in replicas}
        self.clocks = {r: ReplicaClock(r, seed=seed) for r in replicas}
        self.log: List[Tuple[str, SetOp]] = []
        self.applied = {r: 0 for r in replicas}

    def local(self, replica: str, verb: str, e: Any) -> Optional[SetOp]:
        state = self.states[replica]
        try:
            if verb == ADD:
                op = state.gen_add(e, self.clocks[replica])
            else:
                op = state.gen_rmv(e, self.clocks[replica])
        except PreconditionViolation:
            return None
        self.log.append((replica, op))
        return op

    def sync(self) -> None:
        if self.flavor == "op":
            for r, state in self.states.items():
                for origin, op in self.log[self.applied[r]:]:
                    if origin != r:
                        state.apply(op)
                        if op.stamp is not None:
                            self.clocks[r].observe(op.stamp)
                self.applied[r] = len(self.log)
        else:
            for _ in range(2):
                for r in self.states:
                    for other in self.states:
                        if other != r:
                            self.states[r].merge(self.states[other])
            for r, state in self.states.items():
                stamp = state.max_stamp()
                if stamp is not None:
                    self.clocks[r].observe(stamp)

    def lookups(self) -> Dict[str, set]:
        return {r: state.lookup() for r, state in self.states.items()}


def run_set_history(kind: str, flavor: str, script, final_sync: bool = True) -> SetGroup:
    """Script steps: ("sync",) or (replica, verb, element)."""
    group = SetGroup(kind, flavor)
    for step in script:
        if step[0] == "sync":
            group.sync()
        else:
            replica, verb, e = step
            group.local(replica, verb, e)
    if final_sync:
        group.sync()
    return group


def random_set_script(seed: int, n_steps: int = 12, elements="abc"):
    """A deterministic mixed script of local ops and sync points."""
    rng = random.Random(seed)
    script = []
    for _ in range(n_steps):
        if rng.random() < 0.2:
            script.append(("sync",))
        else:
            replica = rng.choice(REPLICAS)
            verb = ADD if rng.random() < 0.6 else RMV
            script.append((replica, verb, rng.choice(elements)))
    return script


def reference_lookup(s) -> set:
    """A set's live elements, recomputed from its whole payload, one rule per kind."""
    if s.kind == "g":
        return set(s.elements)
    if s.kind == "2p":
        return s.added - s.removed
    if s.kind == "lww":
        return {e for e, (_, visible) in s.entries.items() if visible}
    if s.kind == "c" and s.flavor == "state":
        pos, neg = s.pos, s.neg
        return {e for e in {*pos, *neg} if len(pos.get(e, ())) > len(neg.get(e, ()))}
    if s.kind == "c":
        return {e for e, count in s.counts.items() if count > 0}
    if s.flavor == "state":
        return {e for e, tags in s.tags.items() if tags - s.removed.get(e, set())}
    # an op-flavor OR bucket holds only live tags
    return {e for e, tags in s.tags.items() if tags}


def oracle_membership_ops(kind: str, ops: List[SetOp], e: Any) -> bool:
    """Decide membership of e from the op history alone, one rule per kind."""
    return oracle_membership(kind, ops, e)


def known_ops(sim, known) -> List[Any]:
    """The local ops a state with version vector known reflects: the first
    ``known[origin]`` made by each origin, in the order they were made.

    In both flavors a replica's knowledge is its version vector
    ``clock.delivered``: delivery and local ops advance it, and a state
    merge joins the peer's into it.
    """
    made: Counter = Counter()
    out = []
    for origin, op in sim.local_ops:
        made[origin] += 1
        if made[origin] <= known[origin]:
            out.append(op)
    return out


def listed_oracle_mismatches(combo, tree, ops) -> List[str]:
    """The reference of ``harness.oracle_mismatches``: group the delivered
    ops' sub-ops by the payload set they touch (node or path sub-ops to the
    tree's first set, edge sub-ops to its second), ask ``oracle_membership``
    about each element they name, in element order, and word each
    disagreement with the set's ``lookup()`` as the checker does."""
    subs = ([sub for op in ops for sub in op.node_ops], [sub for op in ops for sub in op.edge_ops])
    problems = []
    for name, history in zip(tree.SETS, subs):
        if not history:
            continue
        shown = getattr(tree, name).lookup()
        by_element: Dict[Any, List[SetOp]] = {}
        for op in history:
            by_element.setdefault(op.element, []).append(op)
        for e in sorted_elements(by_element):
            expect = oracle_membership(combo.kind, by_element[e], e)
            if (e in shown) != expect:
                problems.append(
                    f"{name} set disagrees on {render(e)}:"
                    f" oracle={expect} lookup={e in shown}"
                )
    return problems


class TreeGroup:
    """Replicas running one tree type, synced only at sync points."""

    def __init__(self, factory, replicas=REPLICAS, seed: int = 0):
        self.trees = {r: factory() for r in replicas}
        self.flavor = next(iter(self.trees.values())).flavor
        self.clocks = {r: ReplicaClock(r, seed=seed) for r in replicas}
        self.log: List[Tuple[str, Any]] = []
        self.applied = {r: 0 for r in replicas}

    def add(self, replica: str, *args):
        return self._gen(replica, ADD, args)

    def rmv(self, replica: str, *args):
        return self._gen(replica, RMV, args)

    def _gen(self, replica: str, verb: str, args):
        tree = self.trees[replica]
        try:
            if verb == ADD:
                op = tree.gen_add(*args, self.clocks[replica])
            else:
                op = tree.gen_rmv(*args, self.clocks[replica])
        except PreconditionViolation:
            return None
        self.log.append((replica, op))
        return op

    def sync(self) -> None:
        if self.flavor == "op":
            for r, tree in self.trees.items():
                for origin, op in self.log[self.applied[r]:]:
                    if origin != r:
                        tree.apply_remote(op)
                        stamp = op.max_stamp()
                        if stamp is not None:
                            self.clocks[r].observe(stamp)
                self.applied[r] = len(self.log)
        else:
            for _ in range(2):
                for r in self.trees:
                    for other in self.trees:
                        if other != r:
                            self.trees[r].merge(self.trees[other], self.clocks[r])

    def dumps(self) -> Dict[str, str]:
        return {r: tree.lookup().dump() for r, tree in self.trees.items()}


class TombstoneSequence:
    """Delivery-order sequence integrator that keeps every element forever.

    An independent check for the recompute-from-the-set ordering: integrate
    each insert when it arrives and never drop removed elements, then read
    the visible text off the retained line.
    """

    def __init__(self):
        self.line: List[Any] = [BEGIN, END]

    def deliver(self, w) -> None:
        if w not in self.line:
            self._ins(w, self.line.index(w.prev), self.line.index(w.next))

    def _ins(self, w, l: int, r: int) -> None:
        inside = self.line[l + 1 : r]
        if not inside:
            self.line.insert(r, w)
            return
        at = {e: i for i, e in enumerate(self.line)}
        walls = [self.line[l]]
        walls += [d for d in inside if at[d.prev] <= l and at[d.next] >= r]
        walls.append(self.line[r])

        def key(d):
            return (sort_key(d.atom), d.render())

        i = 1
        while i < len(walls) - 1 and key(walls[i]) < key(w):
            i += 1
        self._ins(w, self.line.index(walls[i - 1]), self.line.index(walls[i]))

    def order(self, live) -> List[Any]:
        keep = set(live)
        return [e for e in self.line[1:-1] if e in keep]


# --- reference connection step ---
#
# The connection policies written the plain way: a reachability walk over
# the live edges, then, once a policy has added its edges, a second walk
# from scratch over everything, and a dict that keeps the heaviest edge of
# each identity.  It returns (nodes, edges sorted by identity) for
# comparison with ``policies.connect``.


def reference_reachable(root: Any, nodes: set, edges: Iterable[EdgeInfo]) -> set:
    out: Dict[Any, List[Any]] = {}
    for e in edges:
        out.setdefault(e.src, []).append(e.dst)
    seen = {root}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nxt in out.get(cur, ()):
            if nxt in nodes and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def reference_dedupe(edges: Iterable[EdgeInfo]) -> List[EdgeInfo]:
    best: Dict[Tuple, EdgeInfo] = {}
    for e in edges:
        key = e.identity()
        cur = best.get(key)
        if cur is None or e.weight > cur.weight:
            best[key] = e
    return list(best.values())


def reference_restrict(root: Any, nodes: set, edges: Iterable[EdgeInfo]):
    edges = [e for e in edges if e.src in nodes and e.dst in nodes]
    keep = reference_reachable(root, nodes, edges)
    kept_edges = [e for e in edges if e.src in keep and e.dst in keep]
    return keep, sorted(reference_dedupe(kept_edges), key=EdgeInfo.identity)


def reference_connect(nodes: set, edges: Iterable[EdgeInfo], history, policy: str, root: Any):
    live = set(nodes) | {root}
    all_edges = list(edges)
    graph_edges = [e for e in all_edges if e.src in live and e.dst in live]
    reach = reference_reachable(root, live, graph_edges)
    if policy == "skip":
        kept = [e for e in graph_edges if e.src in reach and e.dst in reach]
        return reach, sorted(reference_dedupe(kept), key=EdgeInfo.identity)

    orphans = live - reach
    orphan_edges = [e for e in all_edges if e.dst in orphans and e.src not in live]
    if policy == "root":
        rewired = [EdgeInfo(root, e.dst, e.weight, e.pos) for e in orphan_edges]
        return reference_restrict(root, live, graph_edges + rewired)

    history = list(history)
    parents: Dict[Any, set] = {}
    for src, dst, _ in history:
        parents.setdefault(dst, set()).add(src)
    sources = {e.src for e in orphan_edges}
    if policy == "compact":
        anchors = {src: get_connected(src, reach, parents) for src in sources}
        rewired = [
            EdgeInfo(anchor, e.dst, e.weight, e.pos)
            for e in orphan_edges
            for anchor in anchors[e.src]
        ]
        return reference_restrict(root, live, graph_edges + rewired)

    # reappear: every history ancestor of every orphan edge's source
    revived = set(sources)
    stack = list(sources)
    while stack:
        for parent in parents.get(stack.pop(), ()):
            if parent not in revived:
                revived.add(parent)
                stack.append(parent)
    revived_edges = [EdgeInfo(src, dst, -1, pos) for src, dst, pos in history if dst in revived]
    return reference_restrict(
        root, live | revived, graph_edges + orphan_edges + revived_edges
    )


def reference_path_images(paths: Iterable[Path], policy: str) -> Dict[Path, Optional[Path]]:
    """Each live path's image by probing every prefix of every path.

    A path is an orphan when some proper prefix of it is not live.  Skip
    drops orphans, reappear keeps them in place, root keeps only the run of
    atoms after the last dead prefix, and compact hangs that run below the
    image of the longest live prefix before it.
    """
    live = {Path(p) for p in paths} | {EPSILON}
    out: Dict[Path, Optional[Path]] = {}
    for p in sorted(live, key=Path.order_key):
        dead = {k for k in range(len(p)) if Path(p[:k]) not in live}
        if not dead:
            out[p] = p
        elif policy == "skip":
            out[p] = None
        elif policy == "reappear":
            out[p] = p
        elif policy == "root":
            out[p] = Path(p[max(dead):])
        else:
            j = max(dead)
            m = max(k for k in range(j) if k not in dead)
            out[p] = Path(out[Path(p[:m])] + p[j:])
    return out
