"""Connection and mapping policies on raw graphs, against brute-force oracles."""

import itertools
import random
from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treecrdt.policies as policies
from treecrdt.clocks import ReplicaClock
from treecrdt.errors import SeveralBlowup
from treecrdt.graph import GraphTree, TreeOp
from treecrdt.harness import Simulation, parse_scenario
from treecrdt.lookup import LookupTree
from treecrdt.policies import (
    CONNECT_POLICIES,
    MAP_POLICIES,
    EdgeInfo,
    RootedGraph,
    connect,
    get_connected,
    map_to_tree,
)
from treecrdt.render import sort_key
from treecrdt.sets import ADD, make_set

from helpers import reference_connect

ROOT = "root"


def E(src, dst, weight=0, pos=None):
    return EdgeInfo(src=src, dst=dst, weight=weight, pos=pos)


def history_of(*edges):
    """The (src, dst, pos) triples of unpositioned edges ever added."""
    return [(src, dst, None) for src, dst in edges]


def parents_of(history):
    """The node -> parents map that connect builds from a history."""
    parents = {}
    for src, dst, _ in history:
        parents.setdefault(dst, set()).add(src)
    return parents


def rooted(nodes, edges, history=None, policy="skip"):
    return connect(set(nodes), edges, history or [], policy, ROOT)


# --- connection policies ---


def cycle_fixture():
    """Two concurrent chains that close a two-node cycle under the root."""
    nodes = {"x", "y"}
    edges = [E(ROOT, "x"), E("x", "y"), E(ROOT, "y"), E("y", "x")]
    history = history_of((ROOT, "x"), ("x", "y"), (ROOT, "y"), ("y", "x"))
    return nodes, edges, history


def orphan_fixture():
    """A surviving child n whose parent m was removed concurrently."""
    nodes = {"n"}
    edges = [E("m", "n")]
    history = history_of((ROOT, "m"), ("m", "n"))
    return nodes, edges, history


def test_connect_keeps_fully_live_graph():
    nodes, edges, history = cycle_fixture()
    for policy in CONNECT_POLICIES:
        g = connect(nodes, edges, history, policy, ROOT)
        assert g.nodes == {ROOT, "x", "y"}
        assert {(e.src, e.dst) for e in g.edges} == {
            (ROOT, "x"),
            ("x", "y"),
            (ROOT, "y"),
            ("y", "x"),
        }


def test_skip_drops_orphans():
    nodes, edges, history = orphan_fixture()
    g = connect(nodes, edges, history, "skip", ROOT)
    assert g.nodes == {ROOT}
    assert g.edges == []


def test_root_policy_rewires_orphan_under_root():
    nodes, edges, history = orphan_fixture()
    g = connect(nodes, edges, history, "root", ROOT)
    assert g.nodes == {ROOT, "n"}
    assert {(e.src, e.dst) for e in g.edges} == {(ROOT, "n")}


def test_reappear_recreates_removed_ancestors():
    nodes, edges, history = orphan_fixture()
    g = connect(nodes, edges, history, "reappear", ROOT)
    assert g.nodes == {ROOT, "m", "n"}
    assert {(e.src, e.dst) for e in g.edges} == {(ROOT, "m"), ("m", "n")}


def test_compact_attaches_orphan_to_live_historical_ancestor():
    nodes, edges, history = orphan_fixture()
    g = connect(nodes, edges, history, "compact", ROOT)
    assert g.nodes == {ROOT, "n"}
    assert {(e.src, e.dst) for e in g.edges} == {(ROOT, "n")}


def test_reappear_recreates_deep_chain():
    # history root -> a -> b -> c; only c survives, attached via (b, c)
    nodes = {"c"}
    edges = [E("b", "c")]
    history = history_of((ROOT, "a"), ("a", "b"), ("b", "c"))
    g = connect(nodes, edges, history, "reappear", ROOT)
    assert g.nodes == {ROOT, "a", "b", "c"}
    assert {(e.src, e.dst) for e in g.edges} == {(ROOT, "a"), ("a", "b"), ("b", "c")}


def test_compact_skips_dead_middle_ancestors():
    nodes = {"c"}
    edges = [E("b", "c")]
    history = history_of((ROOT, "a"), ("a", "b"), ("b", "c"))
    g = connect(nodes, edges, history, "compact", ROOT)
    assert {(e.src, e.dst) for e in g.edges} == {(ROOT, "c")}


def test_get_connected_returns_live_node_itself():
    history = history_of((ROOT, "m"), ("m", "x"))
    assert get_connected("x", {ROOT, "m", "x"}, parents_of(history)) == {"x"}


def test_get_connected_climbs_through_removed_parent():
    history = history_of((ROOT, "m"), ("m", "x"))
    assert get_connected("x", {ROOT}, parents_of(history)) == {ROOT}


def test_get_connected_unions_all_live_anchors():
    # x has parents p1 (live) and p2 (dead, child of live q)
    history = history_of((ROOT, "p1"), (ROOT, "q"), ("q", "p2"), ("p1", "x"), ("p2", "x"))
    anchored = {ROOT, "p1", "q"}
    assert get_connected("x", anchored, parents_of(history)) == {"p1", "q"}


def test_get_connected_survives_history_cycles():
    history = history_of((ROOT, "a"), ("a", "b"), ("b", "a"), ("b", "x"))
    assert get_connected("x", {ROOT}, parents_of(history)) == {ROOT}


def history_cycle_fixture(d, e):
    """Orphans d and e under dead s and x, which were each other's parents."""
    nodes = {"a", d, e}
    edges = [E(ROOT, "a"), E("s", d), E("x", e)]
    history = history_of(
        (ROOT, "a"), ("a", "s"), ("s", "x"), ("x", "s"), ("s", d), ("x", e)
    )
    return nodes, edges, history


@pytest.mark.parametrize("d, e", [("d", "e"), ("e", "d")])
def test_compact_anchors_do_not_depend_on_names(d, e):
    # x reaches a only through s, its history child and parent; both
    # orphans hang under a, whichever of them is walked first
    g = connect(*history_cycle_fixture(d, e), "compact", ROOT)
    assert {(x.src, x.dst) for x in g.edges} == {(ROOT, "a"), ("a", "d"), ("a", "e")}


@pytest.mark.parametrize("d, e", [("d", "e"), ("e", "d")])
def test_compact_history_cycle_script_shows_both_orphans(d, e):
    scn = parse_scenario(
        f"""
        combo edge or op compact shortest plain
        replicas 2
        r1 add a root
        r1 add s a
        r1 add x s
        r1 add s x
        r2 deliver r1
        r2 add {d} s
        r2 add {e} x
        r1 rmv s
        sync
        """
    )
    sim = Simulation(scn.combo, scn.replicas, scn.seed)
    assert all(step.violation is None for step in sim.run(scn.script))
    assert sim.final_dumps() == {rid: "root\n  a\n    d\n    e" for rid in ("r1", "r2")}


def dead_chain(depth):
    """History root -> c1 -> ... -> c<depth>; every chain node is removed."""
    names = [ROOT] + [f"c{i}" for i in range(1, depth + 1)]
    return history_of(*zip(names, names[1:])), names[-1]


def test_compact_climbs_a_deep_dead_chain():
    history, bottom = dead_chain(1200)
    history += history_of((bottom, "leaf"))
    g = connect({"leaf"}, [E(bottom, "leaf")], history, "compact", ROOT)
    assert {(e.src, e.dst) for e in g.edges} == {(ROOT, "leaf")}


def test_reappear_builds_each_revived_edge_once(monkeypatch):
    history, bottom = dead_chain(200)
    orphans = [f"o{i}" for i in range(400)]
    history += history_of(*((bottom, o) for o in orphans))
    revived = []

    @dataclass(slots=True)
    class CountedEdgeInfo(EdgeInfo):
        def __post_init__(self):
            if self.weight == -1:
                revived.append(self)

    monkeypatch.setattr(policies, "EdgeInfo", CountedEdgeInfo)
    g = connect(set(orphans), [E(bottom, o) for o in orphans], history, "reappear", ROOT)
    assert len(g.nodes) == 1 + 200 + 400
    assert len(g.edges) == 200 + 400
    assert len(revived) == 200


def test_root_policy_keeps_orphan_component_internal_edges():
    # dead parent d; orphans a -> b connected between themselves
    nodes = {"a", "b"}
    edges = [E("d", "a"), E("a", "b")]
    history = history_of((ROOT, "d"), ("d", "a"), ("a", "b"))
    g = connect(nodes, edges, history, "root", ROOT)
    assert {(e.src, e.dst) for e in g.edges} == {(ROOT, "a"), ("a", "b")}


@st.composite
def connect_inputs(draw):
    """Live nodes, edges and a history over a few names, some of them dead.

    Edges may run into the root, out of dead nodes, or repeat an identity
    (src, dst, pos) with another weight; the history holds every edge and
    some removed ones, in any order.
    """
    names = ["a", "b", "c", "d", "e"][: draw(st.integers(2, 5))]
    nodes = set(draw(st.lists(st.sampled_from(names), unique=True)))
    ends = st.sampled_from(names + [ROOT])
    triples = st.tuples(ends, ends, st.sampled_from((None, 1)))
    raw = draw(st.lists(st.tuples(triples, st.integers(0, 3)), max_size=12))
    edges = [E(s, d, weight=w, pos=p) for (s, d, p), w in raw]
    for i, w in draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 3)), max_size=3)):
        if i < len(edges):
            edges.append(E(edges[i].src, edges[i].dst, weight=w, pos=edges[i].pos))
    removed = draw(st.lists(triples, max_size=6))
    history = draw(st.permutations([(e.src, e.dst, e.pos) for e in edges] + removed))
    return nodes, edges, history


def listed(edges):
    return [(e.src, e.dst, e.weight, e.pos) for e in edges]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inputs=connect_inputs())
@example(
    inputs=(
        {"a", "b"},
        [E("m", "a", 1), E("m", "a", 2), E("a", "b", 2), E("a", "b", 2), E("b", ROOT)],
        history_of((ROOT, "m"), ("m", "a"), ("a", "b")),
    )
)
def test_connect_matches_the_reference_walk(inputs):
    nodes, edges, history = inputs
    for policy in CONNECT_POLICIES:
        g = connect(nodes, edges, history, policy, ROOT)
        want_nodes, want_edges = reference_connect(nodes, edges, history, policy, ROOT)
        assert g.nodes == want_nodes, policy
        assert listed(g.edges) == listed(want_edges), policy


def test_colliding_edges_keep_the_heaviest_then_the_first():
    first, later = E(ROOT, "a", 2), E(ROOT, "a", 2)
    g = RootedGraph(ROOT, {ROOT, "a"}, [E(ROOT, "a", 1), first, later, E(ROOT, "a", 0)])
    assert len(g.edges) == 1 and g.edges[0] is first


@pytest.mark.parametrize("policy", ["root", "compact"])
def test_root_and_compact_walk_each_node_once(monkeypatch, policy):
    # a live chain a1..a20, and a live chain b1..b20 whose dead parent m
    # hung under a20: both policies rewire b1 and reach all 41 nodes
    chain_a = [ROOT] + [f"a{i}" for i in range(1, 21)]
    chain_b = [f"b{i}" for i in range(1, 21)]
    live = set(chain_a[1:] + chain_b)
    edges = [E(s, d) for s, d in zip(chain_a, chain_a[1:])]
    edges += [E("m", "b1")] + [E(s, d) for s, d in zip(chain_b, chain_b[1:])]
    history = [(e.src, e.dst, None) for e in edges] + [("a20", "m", None)]
    dequeued = 0

    class CountedDeque(deque):
        def popleft(self):
            nonlocal dequeued
            dequeued += 1
            return super().popleft()

    monkeypatch.setattr(policies, "deque", CountedDeque)
    g = connect(live, edges, history, policy, ROOT)
    assert len(g.nodes) == 41
    assert dequeued == len(g.nodes)


@pytest.mark.parametrize("map_policy", MAP_POLICIES)
def test_a_forged_element_that_decodes_to_a_real_edge_changes_nothing(map_policy):
    # the string "ju" decodes as the edge j -> u on an unpositioned edge tree
    tree = GraphTree("or", "op", "skip", map_policy, repr_name="edge")
    clock = ReplicaClock("r1", seed=0)
    tree.gen_add("j", ROOT, clock)
    tree.gen_add("u", "j", clock)
    forged = make_set("or", "op").gen_add("ju", ReplicaClock("r2", seed=0))
    tree.apply_remote(TreeOp(ADD, "u", "j", (), (forged,)))
    assert "ju" in tree.edges.lookup()
    assert tree.lookup().dump() == "root\n  j\n    u"


@pytest.mark.parametrize(
    "nodes, edges, want",
    [
        # an edge into the root is ignored
        ({"a"}, [E(ROOT, "a"), E("a", ROOT)], {"a": (ROOT, "a")}),
        # a second in-edge
        ({"a", "b"}, [E(ROOT, "a"), E(ROOT, "b"), E("a", "b")], None),
        # a non-root node with no in-edge
        ({"a", "b"}, [E(ROOT, "a")], None),
    ],
)
def test_already_tree_takes_each_nodes_one_in_edge(nodes, edges, want):
    choice = policies._already_tree(RootedGraph(ROOT, nodes | {ROOT}, edges))
    if want is None:
        assert choice is None
    else:
        assert {n: (e.src, e.dst) for n, e in choice.items()} == want


# --- mapping policies ---


def test_cycle_maps_to_four_instances_under_several():
    nodes, edges, history = cycle_fixture()
    g = connect(nodes, edges, history, "skip", ROOT)
    tree = map_to_tree(g, "several")
    labels = sorted(inst.label for inst in tree.instances.values())
    assert labels == ["x", "x/y", "y", "y/x"]
    assert len(tree.instances) == 4
    tree.validate()


def test_cycle_maps_to_flat_pair_under_shortest():
    nodes, edges, history = cycle_fixture()
    g = connect(nodes, edges, history, "skip", ROOT)
    tree = map_to_tree(g, "shortest")
    assert tree.dump() == "root\n  x\n  y"


def test_cycle_vanishes_under_zero():
    nodes, edges, history = cycle_fixture()
    g = connect(nodes, edges, history, "skip", ROOT)
    tree = map_to_tree(g, "zero")
    assert tree.dump() == "root"


def test_zero_drops_subtree_below_multi_parent_node():
    g = RootedGraph(
        root=ROOT,
        nodes={ROOT, "a", "b", "c", "d"},
        edges=[E(ROOT, "a"), E(ROOT, "b"), E("a", "c"), E("b", "c"), E("c", "d")],
    )
    tree = map_to_tree(g, "zero")
    assert tree.dump() == "root\n  a\n  b"


def test_several_keys_a_tree_shaped_graph_by_edge_path():
    # the same instance keys whether or not the graph is already a tree, so
    # c keeps its identity when a second parent edge comes and goes
    tree_edges = [E(ROOT, "a"), E("a", "c", pos=1)]
    dag = RootedGraph(ROOT, {ROOT, "a", "c"}, tree_edges + [E(ROOT, "c")])
    tree = RootedGraph(ROOT, {ROOT, "a", "c"}, tree_edges)
    shown = map_to_tree(tree, "several")
    assert set(shown.instances) == set(map_to_tree(dag, "several").instances) - {(("c", None),)}
    assert shown.instances[(("a", None), ("c", 1))].parent == (("a", None),)
    assert shown.dump() == "root\n  a\n    c @1"


def test_several_cap_raises_instead_of_hanging():
    names = [f"n{i}" for i in range(7)]
    edges = [E(ROOT, n) for n in names]
    edges += [E(a, b) for a in names for b in names if a != b]
    g = RootedGraph(root=ROOT, nodes=set(names) | {ROOT}, edges=edges)
    with pytest.raises(SeveralBlowup):
        map_to_tree(g, "several", cap=5000)


def test_several_walks_a_deep_chain_with_a_shortcut():
    # every chain node below n1 shows twice: under n0, and under the shortcut
    names = [f"n{i}" for i in range(1201)]
    edges = [E(ROOT, "n0"), E(ROOT, "n1")] + [E(a, b) for a, b in zip(names, names[1:])]
    g = RootedGraph(root=ROOT, nodes=set(names) | {ROOT}, edges=edges)
    tree = map_to_tree(g, "several")
    assert len(tree.instances) == 2401
    assert [len(inst.key) for inst in tree.instances_of("n1200")] == [1201, 1200]


class CountedReads(dict):
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)


def test_validate_reads_each_instance_a_bounded_number_of_times():
    # a 600-deep chain with a shortcut from the root to its second node
    names = [f"n{i}" for i in range(600)]
    edges = [E(ROOT, "n0"), E(ROOT, "n1")] + [E(a, b) for a, b in zip(names, names[1:])]
    g = RootedGraph(root=ROOT, nodes=set(names) | {ROOT}, edges=edges)
    tree = map_to_tree(g, "several")
    n = len(tree.instances)
    assert n == 1199
    tree.instances = CountedReads(tree.instances)
    tree.validate()
    assert tree.instances.reads <= 2 * n


def test_validate_names_a_missing_parent_and_a_cycle():
    tree = LookupTree()
    tree.add_instance(("a",), "a", ())
    tree.add_instance(("b",), "b", ("a",))
    tree.add_instance(("c",), "c", ("gone",))
    with pytest.raises(AssertionError) as missing:
        tree.validate()
    assert str(missing.value) == "instance ('c',) has missing parent"

    tree = LookupTree()
    tree.add_instance(("a",), "a", ())
    tree.add_instance(("t",), "t", ("x",))
    tree.add_instance(("x",), "x", ("y",))
    tree.add_instance(("y",), "y", ("x",))
    tree.add_instance(("b",), "b", ("a",))
    with pytest.raises(AssertionError) as cycle:
        tree.validate()
    # the first instance in instance order whose walk never reaches the root
    assert str(cycle.value) == "cycle through instance ('t',)"


def test_placement_reads_each_choice_a_bounded_number_of_times():
    # names sort deepest first, the worst order for placing parents first
    n = 2000
    names = [f"n{n - depth:04d}" for depth in range(1, n + 1)]
    edges = [E(a, b) for a, b in zip([ROOT] + names, names)]
    g = RootedGraph(root=ROOT, nodes=set(names) | {ROOT}, edges=edges)
    choice = CountedReads((e.dst, e) for e in edges)
    tree = policies._instances_from_choice(g, choice)
    assert len(tree.instances) == n
    tree.validate()
    assert choice.reads <= 2 * n


def test_placement_takes_child_order_from_the_sorted_edges(monkeypatch):
    names = [f"n{i:02d}" for i in range(40)]
    rng = random.Random(11)
    edges, placed = [], [ROOT]
    for name in rng.sample(names, len(names)):
        edges.append(E(rng.choice(placed), name))
        placed.append(name)
    g = RootedGraph(root=ROOT, nodes=set(names) | {ROOT}, edges=edges)
    calls = 0

    def counted(e):
        nonlocal calls
        calls += 1
        return sort_key(e)

    monkeypatch.setattr(policies, "sort_key", counted)
    tree = policies._instances_from_choice(g, {e.dst: e for e in g.edges})
    assert calls == 0
    assert len(tree.instances) == len(names)
    for group in tree.kids.values():
        assert [inst.node for inst in group] == sorted(inst.node for inst in group)


def test_placement_refuses_a_choice_that_is_not_a_tree():
    edges = [E(ROOT, "a"), E("x", "y"), E("y", "x")]
    g = RootedGraph(root=ROOT, nodes={ROOT, "a", "x", "y"}, edges=edges)
    with pytest.raises(AssertionError, match="does not form a tree"):
        policies._instances_from_choice(g, {e.dst: e for e in edges})


def test_newest_prefers_higher_weight_edge():
    g = RootedGraph(
        root=ROOT,
        nodes={ROOT, "a", "b"},
        edges=[E(ROOT, "a", weight=1), E(ROOT, "b", weight=2), E("a", "b", weight=3)],
    )
    tree = map_to_tree(g, "newest")
    assert tree.dump() == "root\n  a\n    b"


def test_weighted_mapping_contracts_disjoint_cycles_in_one_level(monkeypatch):
    # k two-node cycles hung from the root: a_i <-> b_i outweighs root -> a_i
    k = 1000
    edges = []
    for i in range(k):
        edges += [E(ROOT, f"a{i}"), E(f"a{i}", f"b{i}", weight=1), E(f"b{i}", f"a{i}", weight=1)]
    g = RootedGraph(root=ROOT, nodes={ROOT} | {e.dst for e in edges}, edges=edges)
    calls = []
    edmonds = policies._edmonds

    def counted(*args):
        calls.append(args)
        return edmonds(*args)

    monkeypatch.setattr(policies, "_edmonds", counted)
    tree = map_to_tree(g, "newest")
    assert len(tree.instances) == 2 * k
    assert tree.instances[("b7",)].parent == ("a7",)
    # one level contracts every cycle, the next picks the edges into them
    assert len(calls) <= 2


def shortest_oracle(g: RootedGraph):
    """node -> (parent, position) of its least in-edge, by parent then
    position, among those from a node one BFS level nearer the root."""
    depth, level, d = {g.root: 0}, {g.root}, 0
    while level:
        d += 1
        level = {e.dst for e in g.edges if e.src in level and e.dst not in depth}
        depth.update(dict.fromkeys(level, d))
    return {
        n: min(
            ((e.src, e.pos) for e in g.edges if e.dst == n and depth.get(e.src) == d - 1),
            key=lambda sp: (sort_key(sp[0]), sort_key(sp[1])),
        )
        for n, d in depth.items()
        if d
    }


# brute-force oracle: enumerate every parent choice and maximize the same
# scaled score the implementation uses


def brute_best_tree(g: RootedGraph):
    ranked = sorted(g.edges, key=EdgeInfo.identity)
    scale = 1 << len(ranked)
    eff = {
        id(e): e.weight * scale + (1 << (len(ranked) - 1 - i))
        for i, e in enumerate(ranked)
    }
    others = sorted(g.nodes - {g.root}, key=str)
    table = {n: [e for e in ranked if e.dst == n] for n in others}
    best_score, best_choice = None, None
    for combo in itertools.product(*(table[n] for n in others)):
        choice = dict(zip(others, combo))
        parent = {n: e.src for n, e in choice.items()}
        ok = True
        for n in others:
            seen = set()
            cur = n
            while cur != g.root:
                if cur in seen or cur not in parent:
                    ok = False
                    break
                seen.add(cur)
                cur = parent[cur]
            if not ok:
                break
        if not ok:
            continue
        score = sum(eff[id(e)] for e in combo)
        if best_score is None or score > best_score:
            best_score, best_choice = score, choice
    return best_choice


def graphs(draw):
    names = ["a", "b", "c", "d"]
    n = draw(st.integers(2, 4))
    nodes = set(names[:n])
    pool = [(s, d) for s in nodes | {ROOT} for d in nodes if s != d]
    picked = draw(
        st.lists(st.sampled_from(pool), min_size=n, max_size=len(pool), unique=True)
    )
    weights = draw(
        st.lists(st.integers(0, 3), min_size=len(picked), max_size=len(picked))
    )
    edges = [E(s, d, weight=w) for (s, d), w in zip(picked, weights)]
    return connect(nodes, edges, [], "skip", ROOT)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_weighted_mapping_matches_brute_force(data):
    g = graphs(data.draw)
    oracle = brute_best_tree(g)
    tree = map_to_tree(g, "newest")
    tree.validate()
    parents = {inst.node: inst.parent for inst in tree.instances.values()}
    want = {n: (() if e.src == ROOT else (e.src,)) for n, e in oracle.items()}
    assert parents == want


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_every_policy_combo_yields_valid_tree(data):
    g = graphs(data.draw)
    for policy in MAP_POLICIES:
        tree = map_to_tree(g, policy)
        tree.validate()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_shortest_mapping_matches_the_level_oracle(data):
    g = graphs(data.draw)
    tree = map_to_tree(g, "shortest")
    parents = {inst.node: (inst.parent, inst.pos) for inst in tree.instances.values()}
    want = {n: (() if src == ROOT else (src,), pos) for n, (src, pos) in shortest_oracle(g).items()}
    assert parents == want


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_unweighted_policies_ignore_weights(data):
    g = graphs(data.draw)
    stripped = RootedGraph(
        root=g.root,
        nodes=set(g.nodes),
        edges=[E(e.src, e.dst, weight=0) for e in g.edges],
    )
    for policy in ("several", "shortest", "zero"):
        assert map_to_tree(g, policy).dump() == map_to_tree(stripped, policy).dump()


def test_rooted_graph_buckets_come_out_in_identity_order():
    rng = random.Random(11)
    nodes = [ROOT] + [f"n{i}" for i in range(12)]
    edges = {
        E(rng.choice(nodes), rng.choice(nodes[1:]), pos=rng.choice((None, 1, 2)))
        for _ in range(60)
    }
    for _ in range(5):
        shuffled = list(edges)
        rng.shuffle(shuffled)
        g = RootedGraph(root=ROOT, nodes=set(nodes), edges=shuffled)
        assert g.edges == sorted(edges, key=EdgeInfo.identity)
        for table in (g.in_edges(), g.out_edges()):
            assert sum(map(len, table.values())) == len(edges)
            for bucket in table.values():
                assert bucket == sorted(bucket, key=EdgeInfo.identity)
