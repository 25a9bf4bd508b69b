"""Relations the paper's definitions imply between combos, checked without
a reference: without concurrency, a graph tree and an edge tree of the
same kind, flavor and policies show the same tree after every action; one
payload viewed under each connection policy shows every node skip shows,
and on a graph tree root and compact show exactly its live nodes; and a
state merge of replica states is a join."""

import dataclasses

import pytest

from treecrdt import sets
from treecrdt.clocks import Tag
from treecrdt.graph import GraphTree
from treecrdt.harness import Simulation, legal_combos, make_tree, random_scenario
from treecrdt.render import sorted_elements
from treecrdt.sets import CounterSet

SEEDS = (0, 1, 2)


def representation_pairs():
    """Each unpositioned graph combo with the edge combo of the same kind,
    flavor, connection policy and mapping policy."""
    def key(c):
        return c.kind, c.flavor, c.connect_policy, c.map_policy

    combos = [c for c in legal_combos() if c.pi_mode is None]
    edges = {key(c): c for c in combos if c.repr_name == "edge"}
    return [(c, edges[key(c)]) for c in combos if c.repr_name == "graph" and key(c) in edges]


PAIRS = representation_pairs()


def first_disagreement(graph_combo, edge_combo, seed, edge_factory=make_tree):
    """Run a single-replica 20-op script of the graph combo on both trees,
    and describe the first action after which they differ, if any."""
    script = random_scenario(graph_combo, seed, n_ops=20, replicas=1).script
    graph = Simulation(graph_combo, 1, seed)
    edge = Simulation(edge_combo, 1, seed, edge_factory)
    for action in script:
        refused = (graph.apply(action), edge.apply(action))
        dumps = [sim.replicas["r1"].tree.lookup().dump() for sim in (graph, edge)]
        if refused != (None, None) or dumps[0] != dumps[1]:
            return f"seed {seed} after {' '.join(action)}: refused {refused}, dumps {dumps}"
    return None


def test_every_unpositioned_graph_combo_has_an_edge_twin():
    graphs = [c for c in legal_combos() if c.repr_name == "graph" and c.pi_mode is None]
    assert len(PAIRS) == len(graphs) > 0


@pytest.mark.parametrize("graph_combo, edge_combo", PAIRS, ids=[g.label() for g, _ in PAIRS])
def test_graph_and_edge_trees_agree_without_concurrency(graph_combo, edge_combo):
    for seed in SEEDS:
        assert first_disagreement(graph_combo, edge_combo, seed) is None


class InEdgeKeptTree(GraphTree):
    """A planted defect: removing a node leaves the edge into it live, and
    removes only the edges below it."""

    def gen_rmv(self, n, clock):
        decode, local_rmv = self.codec.decode, self.edges.local_rmv
        self.edges.local_rmv = lambda e, c: None if decode(e)[1] == n else local_rmv(e, c)
        try:
            return super().gen_rmv(n, clock)
        finally:
            del self.edges.local_rmv


def test_the_relation_catches_an_edge_tree_that_keeps_the_in_edge():
    def leaky(c):
        return InEdgeKeptTree(c.kind, c.flavor, c.connect_policy, c.map_policy, c.repr_name)

    removing = [(g, e) for g, e in PAIRS if g.kind != "g"]
    caught = [
        (g, e) for g, e in removing if any(first_disagreement(g, e, s, leaky) for s in SEEDS)
    ]
    assert removing and caught == removing


# --- connection policies on one payload ---

# the zero mapping policy hides a node with several parents, and a policy
# that reconnects an orphan edge can give a node skip shows a second
# parent, so skip's nodes are a subset of the others' only under the
# policies that show every connected node
SKIP_COMBOS = [
    c
    for c in legal_combos()
    if c.pi_mode is None and c.connect_policy == "skip" and c.map_policy != "zero"
]
VIEWS = ("reappear", "root", "compact")


def viewed(tree, combo, factory=make_tree):
    """tree's payload under combo: a new tree of combo holding copies of
    tree's sets."""
    view = factory(combo)
    for name, part in tree._sets():
        setattr(view, name, part.copy())
    return view


def first_policy_break(combo, seed, factory=make_tree):
    """Run the 20-op scenario of the skip combo, view each state of each
    replica an action touched under reappear, root and compact (each view
    built by factory), and describe the first that shows fewer nodes than
    skip, or, on a graph tree, a root or compact view that does not show
    exactly the live nodes."""
    scn = random_scenario(combo, seed, n_ops=20)
    sim = Simulation(combo, scn.replicas, seed)
    for action in scn.script:
        assert sim.apply(action) is None
        for rid in sim.rids if action[0] == "sync" else [action[0]]:
            tree = sim.replicas[rid].tree
            skip = tree.lookup().nodes_present()
            for policy in VIEWS:
                other = dataclasses.replace(combo, connect_policy=policy)
                shown = viewed(tree, other, factory).lookup().nodes_present()
                where = f"seed {seed} after {' '.join(action)} at {rid} under {policy}"
                if not skip <= shown:
                    return f"{where}: skip shows {sorted_elements(skip - shown)} too"
                if combo.repr_name == "graph" and policy != "reappear":
                    live = tree.nodes.lookup()
                    if shown != live:
                        return f"{where}: shows {sorted_elements(shown)}, live {sorted_elements(live)}"
    return None


@pytest.mark.parametrize("combo", SKIP_COMBOS, ids=lambda c: c.label())
def test_each_connection_policy_shows_what_skip_shows(combo):
    for seed in SEEDS:
        assert first_policy_break(combo, seed) is None


class OrphanDroppingTree(GraphTree):
    """A planted defect: compact leaves out the least orphan, the least live
    node that skip does not show."""

    def _build(self, live, nodes, ever):
        if self.connect_policy == "compact":
            skip = self.copy()
            skip.connect_policy = "skip"
            orphans = sorted_elements(nodes - skip.lookup().nodes_present())
            nodes = nodes - set(orphans[:1])
        return super()._build(live, nodes, ever)


def test_the_relation_catches_a_compact_that_drops_an_orphan():
    def dropping(c):
        return OrphanDroppingTree(c.kind, c.flavor, c.connect_policy, c.map_policy, c.repr_name)

    graphs = [c for c in SKIP_COMBOS if c.repr_name == "graph"]
    breaks = [b for c in graphs for s in SEEDS if (b := first_policy_break(c, s, dropping))]
    # the dropped orphan is live, so only compact's view of a graph tree shows it missing
    assert breaks and all(" under compact: " in b for b in breaks)


# --- state merge is a join ---


def join_families():
    """The first state combo of each (representation, kind, positioning
    mode) in ``legal_combos`` order."""
    first = {}
    for c in legal_combos():
        if c.flavor == "state":
            first.setdefault((c.repr_name, c.kind, c.pi_mode), c)
    return list(first.values())


JOIN_FAMILIES = join_families()


def replica_states(combo, count=8):
    """Copies of the first count distinct replica states, by ``state()``, of
    the combo's 10-op scenario at seed 42, each taken after the action that
    touched the replica."""
    scn = random_scenario(combo, 42, n_ops=10)
    sim = Simulation(combo, scn.replicas, scn.seed)
    states = {}
    for action in scn.script:
        assert sim.apply(action) is None
        for rid in sim.rids if action[0] == "sync" else [action[0]]:
            tree = sim.replicas[rid].tree
            states.setdefault(tree.state(), tree.copy())
    return list(states.values())[:count]


def merged(a, b):
    """A copy of tree a with tree b merged in."""
    out = a.copy()
    out.merge(b)
    return out


def join_breaks(combo):
    """Each law of a join that merging the combo's replica states breaks,
    as (law, state indices), comparing ``state()``: idempotent and
    commutative on pairs, absorbing (merging either side again changes
    nothing), and associative on triples."""
    trees = replica_states(combo)
    joins = {(i, j): merged(a, b) for i, a in enumerate(trees) for j, b in enumerate(trees)}
    state = {ij: tree.state() for ij, tree in joins.items()}
    breaks = [("idempotent", (i,)) for i, a in enumerate(trees) if state[i, i] != a.state()]
    for (i, j), ab in joins.items():
        if state[i, j] != state[j, i]:
            breaks.append(("commutative", (i, j)))
        if any(merged(ab, trees[x]).state() != state[i, j] for x in (i, j)):
            breaks.append(("absorbing", (i, j)))
        for k, c in enumerate(trees):
            if merged(ab, c).state() != merged(trees[i], joins[j, k]).state():
                breaks.append(("associative", (i, j, k)))
    return breaks


def test_each_join_family_has_eight_states():
    assert len(JOIN_FAMILIES) == 32
    assert all(len(replica_states(c)) == 8 for c in JOIN_FAMILIES)


@pytest.mark.parametrize("combo", JOIN_FAMILIES, ids=lambda c: c.label())
def test_state_merge_is_a_join(combo):
    assert join_breaks(combo) == []


class DoubleCountingSet(CounterSet):
    """A planted defect: a state merge also adds the peer's tags under new
    names, so the peer's balance counts again."""

    def _merge(self, other):
        touched = list(super()._merge(other))
        for mine, theirs in ((self.pos, other.pos), (self.neg, other.neg)):
            for e, tags in theirs.items():
                mine[e] = mine.get(e, frozenset()) | {Tag(f"{t.origin}'", t.seq) for t in tags}
                touched.append(e)
        return touched


def test_the_relation_catches_a_counting_merge_that_counts_twice(monkeypatch):
    monkeypatch.setitem(sets._CLASSES, "c", DoubleCountingSet)
    counting = [c for c in JOIN_FAMILIES if c.kind == "c"]
    broken = {c.label(): {law for law, _ in join_breaks(c)} for c in counting}
    laws = {"idempotent", "commutative", "absorbing", "associative"}
    assert counting and all(broken.values()) and set().union(*broken.values()) == laws
