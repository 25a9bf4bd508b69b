"""Edge-only trees: preconditions, subtree removal, and graph-tree parity."""

import pytest
from helpers import REPLICAS, TreeGroup
from treecrdt.clocks import ReplicaClock
from treecrdt.errors import PreconditionViolation
from treecrdt.graph import GraphTree
from treecrdt.sets import FLAVORS


def fresh(kind="or", flavor="op", **kw):
    return GraphTree(kind, flavor, repr_name="edge", **kw)


def clock(r="r1"):
    return ReplicaClock(r)


# --- sequential behavior ---


def test_add_under_root():
    t, c = fresh(), clock()
    t.gen_add("a", "root", c)
    assert t.edges.lookup() == {("root", "a")}
    assert t.lookup().dump() == "root\n  a"


def test_add_needs_edge_into_parent():
    t, c = fresh(), clock()
    with pytest.raises(PreconditionViolation):
        t.gen_add("b", "a", c)
    t.gen_add("a", "root", c)
    t.gen_add("b", "a", c)
    assert t.lookup().dump() == "root\n  a\n    b"


def test_root_gains_no_incoming_edge():
    t, c = fresh(), clock()
    with pytest.raises(PreconditionViolation):
        t.gen_add("root", "root", c)
    with pytest.raises(PreconditionViolation):
        t.gen_rmv("root", c)


def test_rmv_clears_subtree_edges():
    t, c = fresh(), clock()
    t.gen_add("a", "root", c)
    t.gen_add("b", "a", c)
    op = t.gen_rmv("a", c)
    assert {sub.element for sub in op.edge_ops} == {("root", "a"), ("a", "b")}
    assert t.edges.lookup() == set()
    assert t.lookup().dump() == "root"


def test_rmv_takes_all_concurrent_in_edges():
    group = TreeGroup(lambda: fresh(kind="or"))
    group.add("r1", "a", "root")
    group.add("r2", "b", "root")
    group.sync()
    group.add("r1", "x", "a")
    group.add("r2", "x", "b")
    group.sync()
    op = group.rmv("r1", "x")
    assert {sub.element for sub in op.edge_ops} == {("a", "x"), ("b", "x")}
    group.sync()
    for tree in group.trees.values():
        assert tree.lookup().dump() == "root\n  a\n  b"


def test_two_phase_edge_never_returns():
    t, c = fresh(kind="2p"), clock()
    t.gen_add("a", "root", c)
    t.gen_rmv("a", c)
    with pytest.raises(PreconditionViolation):
        t.gen_add("a", "root", c)


# --- connection policies through edge trees ---


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize(
    "connect_policy,expected",
    [
        ("skip", "root"),
        ("root", "root\n  z"),
        ("reappear", "root\n  m\n    z"),
        ("compact", "root\n  z"),
    ],
)
def test_orphan_survivor_per_connection_policy(flavor, connect_policy, expected):
    group = TreeGroup(lambda: fresh(kind="or", flavor=flavor, connect_policy=connect_policy))
    group.add("r1", "m", "root")
    group.sync()
    group.rmv("r1", "m")
    group.add("r2", "z", "m")
    group.sync()
    for tree in group.trees.values():
        assert tree.lookup().dump() == expected


# --- parity with node-and-edge trees ---


def run_pair(kind, flavor, steps):
    """Run the same script through an edge tree and a graph tree group."""
    edge_group = TreeGroup(lambda: GraphTree(kind, flavor, repr_name="edge"))
    graph_group = TreeGroup(lambda: GraphTree(kind, flavor))
    for group in (edge_group, graph_group):
        for step in steps:
            if step[0] == "sync":
                group.sync()
            elif step[0] == "add":
                group.add(step[1], step[2], step[3])
            else:
                group.rmv(step[1], step[2])
        group.sync()
    return edge_group, graph_group


PARITY_SCRIPT = [
    ("add", "r1", "a", "root"),
    ("add", "r2", "b", "root"),
    ("sync",),
    ("add", "r1", "c", "a"),
    ("rmv", "r2", "a"),
    ("add", "r3", "d", "b"),
    ("sync",),
    ("rmv", "r3", "d"),
    ("add", "r2", "e", "b"),
]


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("kind", ["2p", "or"])
def test_edge_tree_matches_graph_tree(kind, flavor):
    edge_group, graph_group = run_pair(kind, flavor, PARITY_SCRIPT)
    assert edge_group.dumps() == graph_group.dumps()
    assert len(set(edge_group.dumps().values())) == 1


def test_grow_only_edge_tree_matches_graph_tree():
    steps = [
        ("add", "r1", "a", "root"),
        ("add", "r2", "b", "root"),
        ("sync",),
        ("add", "r1", "c", "a"),
        ("add", "r2", "d", "c"),
    ]
    edge_group, graph_group = run_pair("g", "op", steps)
    assert edge_group.dumps() == graph_group.dumps()


# --- where edge trees legitimately differ ---


DIVERGENCE_SCRIPT = [
    ("add", "r1", "y", "root"),
    ("add", "r2", "z", "root"),
    ("sync",),
    ("add", "r1", "x", "y"),
    ("rmv", "r1", "x"),
    ("add", "r2", "x", "z"),
]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_stamped_edge_tree_keeps_rehomed_node(flavor):
    # one replica adds x then removes it; another re-homes x concurrently
    edge_group, graph_group = run_pair("lww", flavor, DIVERGENCE_SCRIPT)
    assert set(edge_group.dumps().values()) == {"root\n  y\n  z\n    x"}
    assert set(graph_group.dumps().values()) == {"root\n  y\n  z"}


def double_remove_rehoming(factory):
    """Two concurrent removes of x race with a third replica re-homing it."""
    trees = {r: factory() for r in REPLICAS}
    clocks = {r: ReplicaClock(r) for r in REPLICAS}

    def gen(r, verb, *args):
        return getattr(trees[r], f"gen_{verb}")(*args, clocks[r])

    def deliver(op, *targets):
        for r in targets:
            trees[r].apply_remote(op)
            stamp = op.max_stamp()
            if stamp is not None:
                clocks[r].observe(stamp)

    deliver(gen("r1", "add", "y", "root"), "r2", "r3")
    deliver(gen("r2", "add", "z", "root"), "r1", "r3")
    add_x = gen("r1", "add", "x", "y")
    deliver(add_x, "r3")
    rmv_one = gen("r1", "rmv", "x")
    rmv_two = gen("r3", "rmv", "x")
    rehome = gen("r2", "add", "x", "z")
    deliver(add_x, "r2")
    deliver(rmv_one, "r2", "r3")
    deliver(rmv_two, "r1", "r2")
    deliver(rehome, "r1", "r3")
    dumps = {r: t.lookup().dump() for r, t in trees.items()}
    assert len(set(dumps.values())) == 1
    return dumps["r1"]


def test_counting_edge_tree_keeps_rehomed_node():
    assert double_remove_rehoming(lambda: GraphTree("c", "op", repr_name="edge")) == "root\n  y\n  z\n    x"
    assert double_remove_rehoming(lambda: GraphTree("c", "op")) == "root\n  y\n  z"
