"""Relations the paper's definitions imply between combos, checked without
a reference: without concurrency, a graph tree and an edge tree of the
same kind, flavor and policies show the same tree after every action."""

import pytest

from treecrdt.graph import GraphTree
from treecrdt.harness import Simulation, legal_combos, make_tree, random_scenario

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
