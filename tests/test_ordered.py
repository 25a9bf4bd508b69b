"""Ordered trees: positions on nodes, on edges, and as sequence elements."""

import random

import pytest

from helpers import TreeGroup
from treecrdt import ordered, wootr
from treecrdt.clocks import ReplicaClock
from treecrdt.errors import IllegalCombo, PreconditionViolation
from treecrdt.graph import GraphTree
from treecrdt.harness import Simulation, parse_combo
from treecrdt.ordered import PositionedNode
from treecrdt.paths import EPSILON, WordTree
from treecrdt.positions import UPI_MAX, UPI_MIN, upi_between
from treecrdt.render import sort_key
from treecrdt.wootr import BEGIN, END, WootrTriple, wootr_order


def fresh_upi(clock):
    return upi_between(UPI_MIN, UPI_MAX, clock)


# --- positions on nodes ---


def test_node_pi_concurrent_same_element_keeps_both():
    g = TreeGroup(lambda: GraphTree("2p", "op", pi_mode="node"))
    g.add("r1", "x", g.trees["r1"].root)
    g.add("r2", "x", g.trees["r2"].root)
    g.sync()
    dumps = g.dumps()
    assert len(set(dumps.values())) == 1
    lines = dumps["r1"].splitlines()
    assert len(lines) == 3
    assert all(ln.strip().startswith("x @") for ln in lines[1:])


def test_node_pi_names_a_shared_element_once_and_resolves_it_to_the_least_node():
    g = TreeGroup(lambda: GraphTree("2p", "op", pi_mode="node"))
    for r in ("r1", "r2"):
        g.add(r, "x", "root")
    g.sync()
    tree = g.trees["r1"]
    both = tree.lookup().nodes_present()
    assert len(both) == 2 and {v.element for v in both} == {"x"}
    assert tree.names() == ["x"]
    assert tree.resolve("x") == min(both, key=sort_key)
    assert tree.resolve("root") == "root"
    with pytest.raises(PreconditionViolation, match="y is not in the tree"):
        tree.resolve("y")


def test_node_pi_kind_is_add_once():
    # a removed node stays removed: adding its element again draws a new node
    c = ReplicaClock("r1")
    t = GraphTree("2p", "op", pi_mode="node")
    assert t.kind == "2p"
    op = t.gen_add("x", t.root, c)
    t.gen_rmv(op.node, c)
    again = t.gen_add("x", t.root, c)
    assert again.node != op.node and op.node in t.nodes.removed
    assert t.lookup().nodes_present() == {again.node}


def test_node_pi_insert_orders_siblings():
    c = ReplicaClock("r1")
    t = GraphTree("2p", "op", pi_mode="node")
    t.gen_insert("b", t.root, 0, c)
    t.gen_insert("a", t.root, 0, c)
    t.gen_insert("d", t.root, 2, c)
    t.gen_insert("c", t.root, 2, c)
    kids = t.lookup().children(())
    assert [k.label for k in kids] == ["a", "b", "c", "d"]


def test_node_pi_node_without_a_position_shows_after_positioned_siblings():
    # a forged plain node sorts before a PositionedNode by node, which is
    # the order the mapping policy adds siblings in
    c = ReplicaClock("r1")
    t = GraphTree("2p", "op", pi_mode="node")
    t.gen_add("x", t.root, c)
    t.nodes.local_add(5, c)
    t.edges.local_add((t.root, 5), c)
    assert [k.label for k in t.lookup().children(())] == ["x", "5"]


def test_node_pi_insert_below_a_child():
    c = ReplicaClock("r1")
    t = GraphTree("2p", "op", pi_mode="node")
    op = t.gen_insert("p", t.root, 0, c)
    t.gen_insert("q", op.node, 0, c)
    t.gen_insert("r", op.node, 0, c)
    lt = t.lookup()
    key = lt.instances_of(op.node)[0].key
    assert [k.label for k in lt.children(key)] == ["r", "q"]


def test_node_pi_add_vs_remove_skip_and_reappear():
    for policy, expect_parent in (("skip", None), ("reappear", "p")):
        g = TreeGroup(lambda: GraphTree("2p", "op", connect_policy=policy, pi_mode="node"))
        op_p = g.add("r1", "p", g.trees["r1"].root)
        g.sync()
        g.rmv("r1", op_p.node)
        g.add("r2", "q", op_p.node)
        g.sync()
        dumps = g.dumps()
        assert len(set(dumps.values())) == 1
        lt = g.trees["r1"].lookup()
        labels = [inst.label for inst in lt.instances.values()]
        if policy == "skip":
            assert labels == []
        else:
            assert sorted(labels) == ["p", "q"]
            q = [i for i in lt.instances.values() if i.label == "q"][0]
            assert lt.instances[q.parent].label == "p"


# --- positions on edges: graph ---


def test_edge_pi_graph_concurrent_positions_one_node_two_edges():
    g = TreeGroup(lambda: GraphTree("or", "op", map_policy="several", pi_mode="edge"))
    g.add("r1", "n", g.trees["r1"].root)
    g.add("r2", "n", g.trees["r2"].root)
    g.sync()
    dumps = g.dumps()
    assert len(set(dumps.values())) == 1
    lt = g.trees["r1"].lookup()
    assert lt.nodes_present() == {"n"}
    assert len(lt.instances_of("n")) == 2


def test_edge_pi_graph_mapping_policy_picks_one():
    g = TreeGroup(lambda: GraphTree("or", "op", map_policy="shortest", pi_mode="edge"))
    g.add("r1", "n", g.trees["r1"].root)
    g.add("r2", "n", g.trees["r2"].root)
    g.sync()
    dumps = g.dumps()
    assert len(set(dumps.values())) == 1
    assert len(g.trees["r1"].lookup().instances_of("n")) == 1


def test_edge_pi_graph_insert_index_and_order():
    c = ReplicaClock("r1")
    t = GraphTree("lww", "op", pi_mode="edge")
    t.gen_insert("b", t.root, 0, c)
    t.gen_insert("a", t.root, 0, c)
    t.gen_insert("c", t.root, 2, c)
    kids = t.lookup().children(())
    assert [k.label for k in kids] == ["a", "b", "c"]


def test_edge_pi_graph_reappear_preserves_positions():
    g = TreeGroup(
        lambda: GraphTree("or", "op", connect_policy="reappear", pi_mode="edge")
    )
    g.add("r1", "a", g.trees["r1"].root)
    g.add("r1", "b", "a")
    g.sync()
    g.rmv("r1", "a")
    g.add("r2", "c", "b")
    g.sync()
    dumps = g.dumps()
    assert len(set(dumps.values())) == 1
    lt = g.trees["r1"].lookup()
    assert lt.nodes_present() == {"a", "b", "c"}
    for node in "abc":
        assert len(lt.instances_of(node)) == 1
        assert lt.instances_of(node)[0].pos is not None


def test_edge_pi_graph_compact_keeps_child_position():
    g = TreeGroup(lambda: GraphTree("or", "op", connect_policy="compact", pi_mode="edge"))
    g.add("r1", "a", g.trees["r1"].root)
    g.sync()
    g.rmv("r1", "a")
    op_c = g.add("r2", "c", "a")
    g.sync()
    dumps = g.dumps()
    assert len(set(dumps.values())) == 1
    lt = g.trees["r1"].lookup()
    assert lt.nodes_present() == {"c"}
    inst = lt.instances_of("c")[0]
    assert inst.parent == ()
    assert inst.pos == op_c.edge_ops[0].element[2]


# --- positions on edges: edge tree and word tree ---


def test_edge_pi_edge_tree_is_add_once_and_converges():
    g = TreeGroup(
        lambda: GraphTree("2p", "op", map_policy="several", repr_name="edge", pi_mode="edge")
    )
    assert g.trees["r1"].kind == "2p"
    g.add("r1", "n", g.trees["r1"].root)
    g.add("r2", "n", g.trees["r2"].root)
    g.sync()
    dumps = g.dumps()
    assert len(set(dumps.values())) == 1
    assert len(g.trees["r1"].lookup().instances_of("n")) == 2


def test_edge_pi_edge_tree_needs_live_parent_edge():
    c = ReplicaClock("r1")
    t = GraphTree("2p", "op", repr_name="edge", pi_mode="edge")
    with pytest.raises(PreconditionViolation):
        t.gen_add("q", "missing", c)
    t.gen_add("p", t.root, c)
    t.gen_add("q", "p", c)
    assert t.lookup().nodes_present() == {"p", "q"}


def test_edge_pi_word_orders_and_converges():
    g = TreeGroup(lambda: WordTree("2p", "op", pi_mode="edge"))
    op_a = g.add("r1", "a", EPSILON)
    g.sync()
    g.add("r1", "b", op_a.node)
    g.add("r2", "c", op_a.node)
    g.sync()
    dumps = g.dumps()
    assert len(set(dumps.values())) == 1
    lt = g.trees["r1"].lookup()
    a_inst = lt.instances[op_a.node]
    assert a_inst.label == "a"
    kids = lt.children(a_inst.key)
    assert sorted(k.label for k in kids) == ["b", "c"]
    assert [k.pos for k in kids] == sorted(k.pos for k in kids)


def test_edge_pi_word_insert_index():
    c = ReplicaClock("r1")
    t = WordTree("2p", "op", pi_mode="edge")
    t.gen_insert("b", EPSILON, 0, c)
    t.gen_insert("a", EPSILON, 0, c)
    t.gen_insert("c", EPSILON, 2, c)
    kids = t.lookup().children(())
    assert [k.label for k in kids] == ["a", "b", "c"]


def test_edge_pi_word_name_resolves_through_the_first_sibling_of_its_label():
    c = ReplicaClock("r1")
    t = WordTree("2p", "op", pi_mode="edge")
    t.gen_insert("c", EPSILON, 0, c)
    t.gen_insert("c", EPSILON, 1, c)
    first, second = (kid.key for kid in t.lookup().children(()))
    t.gen_insert("e", second, 0, c)
    assert t.names() == ["/c", "/c", "/c/e"]
    assert t.resolve("/c") == first


def test_edge_pi_word_prefix_removal_still_applies():
    g = TreeGroup(lambda: WordTree("2p", "op", pi_mode="edge"))
    op_a = g.add("r1", "a", EPSILON)
    g.sync()
    g.rmv("r1", op_a.node)
    g.add("r2", "b", op_a.node)
    g.sync()
    dumps = g.dumps()
    assert len(set(dumps.values())) == 1
    assert g.trees["r1"].lookup().instances == {}


# --- sequence elements fold concurrent duplicates ---


def test_wootr_graph_concurrent_same_add_is_one_child():
    g = TreeGroup(lambda: GraphTree("or", "op", pi_mode="wootr"))
    g.add("r1", "z", g.trees["r1"].root)
    g.add("r2", "z", g.trees["r2"].root)
    g.sync()
    dumps = g.dumps()
    assert len(set(dumps.values())) == 1
    lt = g.trees["r1"].lookup()
    assert len(lt.children(())) == 1
    assert len(lt.instances_of("z")) == 1


def test_wootr_vs_node_pi_duplicate_contrast():
    woot = TreeGroup(lambda: GraphTree("or", "op", pi_mode="wootr"))
    woot.add("r1", "z", woot.trees["r1"].root)
    woot.add("r2", "z", woot.trees["r2"].root)
    woot.sync()
    pair = TreeGroup(lambda: GraphTree("2p", "op", pi_mode="node"))
    pair.add("r1", "z", pair.trees["r1"].root)
    pair.add("r2", "z", pair.trees["r2"].root)
    pair.sync()
    assert len(woot.trees["r1"].lookup().instances) == 1
    assert len(pair.trees["r1"].lookup().instances) == 2


def test_wootr_graph_insert_ranks_siblings():
    c = ReplicaClock("r1")
    t = GraphTree("or", "op", pi_mode="wootr")
    t.gen_add("p", t.root, c)
    t.gen_add("q", t.root, c)
    t.gen_insert("r", t.root, 1, c)
    kids = t.lookup().children(())
    assert [k.label for k in kids] == ["p", "r", "q"]
    assert all(isinstance(k.pos, WootrTriple) for k in kids)
    assert [k.pos for k in kids] == wootr_order(k.pos for k in kids)


def test_wootr_graph_remove_subtree():
    c = ReplicaClock("r1")
    t = GraphTree("or", "op", pi_mode="wootr")
    t.gen_add("p", t.root, c)
    t.gen_add("q", "p", c)
    t.gen_rmv("p", c)
    assert t.lookup().instances == {}


def test_wootr_graph_reappear_converges():
    g = TreeGroup(lambda: GraphTree("or", "op", connect_policy="reappear", pi_mode="wootr"))
    g.add("r1", "a", g.trees["r1"].root)
    g.add("r1", "b", "a")
    g.sync()
    g.rmv("r1", "a")
    g.add("r2", "c", "b")
    g.sync()
    dumps = g.dumps()
    assert len(set(dumps.values())) == 1
    lt = g.trees["r1"].lookup()
    assert lt.nodes_present() == {"a", "b", "c"}
    for node in "abc":
        assert len(lt.instances_of(node)) == 1


def test_wootr_graph_duplicate_node_rejected_locally():
    c = ReplicaClock("r1")
    t = GraphTree("or", "op", pi_mode="wootr")
    t.gen_add("p", t.root, c)
    with pytest.raises(PreconditionViolation):
        t.gen_add("p", t.root, c)
    with pytest.raises(PreconditionViolation):
        t.gen_add("q", "missing", c)


def test_wootr_edge_tree_one_child_and_rmv():
    g = TreeGroup(lambda: GraphTree("or", "op", repr_name="edge", pi_mode="wootr"))
    g.add("r1", "z", g.trees["r1"].root)
    g.add("r2", "z", g.trees["r2"].root)
    g.sync()
    dumps = g.dumps()
    assert len(set(dumps.values())) == 1
    assert len(g.trees["r1"].lookup().instances) == 1
    g.rmv("r1", "z")
    g.sync()
    assert g.trees["r1"].lookup().instances == {}


def test_wootr_word_sibling_order_and_convergence():
    g = TreeGroup(lambda: WordTree("or", "op", pi_mode="wootr"))
    g.add("r1", "a", EPSILON)
    g.add("r2", "c", EPSILON)
    g.sync()
    op = g.trees["r1"].gen_insert("b", EPSILON, 1, g.clocks["r1"])
    g.log.append(("r1", op))
    g.sync()
    dumps = g.dumps()
    assert len(set(dumps.values())) == 1
    kids = g.trees["r2"].lookup().children(())
    assert [k.label for k in kids] == ["a", "b", "c"]


def test_wootr_word_concurrent_same_step_is_one_path():
    g = TreeGroup(lambda: WordTree("or", "op", pi_mode="wootr"))
    g.add("r1", "x", EPSILON)
    g.add("r2", "x", EPSILON)
    g.sync()
    dumps = g.dumps()
    assert len(set(dumps.values())) == 1
    assert len(g.trees["r1"].lookup().instances) == 1


def test_wootr_word_insert_below_child():
    c = ReplicaClock("r1")
    t = WordTree("lww", "op", pi_mode="wootr")
    op = t.gen_add("a", EPSILON, c)
    t.gen_insert("c", op.node, 0, c)
    t.gen_insert("b", op.node, 0, c)
    lt = t.lookup()
    kids = lt.children(lt.instances[op.node].key)
    assert [k.label for k in kids] == ["b", "c"]


def test_wootr_word_readd_revives_same_step():
    c = ReplicaClock("r1")
    t = WordTree("or", "op", pi_mode="wootr")
    op = t.gen_add("x", EPSILON, c)
    t.gen_rmv(op.node, c)
    assert t.lookup().instances == {}
    t.gen_add("x", EPSILON, c)
    assert len(t.lookup().instances) == 1


@pytest.mark.parametrize("kind", ["g", "2p"])
def test_wootr_trees_reject_add_only_kinds(kind):
    for repr_name in ("graph", "edge"):
        with pytest.raises(IllegalCombo):
            GraphTree(kind, "op", repr_name=repr_name, pi_mode="wootr")
    with pytest.raises(IllegalCombo):
        WordTree(kind, "op", pi_mode="wootr")


# --- shared mechanics ---


def test_canonical_headers_mark_positioning():
    assert "pi=node" in GraphTree("2p", "op", pi_mode="node").canonical().splitlines()[0]
    assert "pi=edge" in GraphTree("or", "op", pi_mode="edge").canonical().splitlines()[0]
    assert "pi=edge" in GraphTree("2p", "op", repr_name="edge", pi_mode="edge").canonical().splitlines()[0]
    assert "pi=edge" in WordTree("2p", "op", pi_mode="edge").canonical().splitlines()[0]
    assert "pi=wootr" in GraphTree("or", "op", pi_mode="wootr").canonical().splitlines()[0]
    assert "pi=wootr" in GraphTree("or", "op", repr_name="edge", pi_mode="wootr").canonical().splitlines()[0]
    assert "pi=wootr" in WordTree("or", "op", pi_mode="wootr").canonical().splitlines()[0]


def test_copies_are_independent():
    c = ReplicaClock("r1")
    t = GraphTree("or", "op", pi_mode="wootr")
    t.gen_add("p", t.root, c)
    dup = t.copy()
    dup.gen_add("q", "p", c)
    assert len(t.lookup().instances) == 1
    assert len(dup.lookup().instances) == 2
    w = WordTree("2p", "op", pi_mode="edge")
    w.gen_add("a", EPSILON, c)
    dup_w = w.copy()
    dup_w.gen_rmv(next(iter(dup_w.live_paths())), c)
    assert len(w.live_paths()) == 1
    assert not dup_w.live_paths()


def test_state_flavor_merge_converges():
    g = TreeGroup(lambda: GraphTree("or", "state", pi_mode="wootr"))
    g.add("r1", "p", g.trees["r1"].root)
    g.add("r2", "q", g.trees["r2"].root)
    g.sync()
    dumps = g.dumps()
    assert len(set(dumps.values())) == 1
    h = TreeGroup(lambda: GraphTree("2p", "state", pi_mode="node"))
    h.add("r1", "p", h.trees["r1"].root)
    h.add("r2", "q", h.trees["r2"].root)
    h.sync()
    assert len(set(h.dumps().values())) == 1


def test_frozen_dump_node_pi():
    g = TreeGroup(lambda: GraphTree("2p", "op", pi_mode="node"), seed=4)
    g.add("r1", "x", g.trees["r1"].root)
    g.add("r2", "x", g.trees["r2"].root)
    g.sync()
    assert g.dumps()["r1"] == "root\n  x @16109.r1.1\n  x @58016.r2.1"


def test_frozen_dump_wootr_word():
    c = ReplicaClock("r1", seed=4)
    t = WordTree("or", "op", pi_mode="wootr")
    t.gen_add("a", EPSILON, c)
    t.gen_add("c", EPSILON, c)
    t.gen_insert("b", EPSILON, 1, c)
    assert t.lookup().dump() == (
        "/\n  a @<a.^.$>\n  b @<b.<a.^.$>.<c.^.$>>\n  c @<c.^.$>"
    )


def test_positions_must_match_the_positioning_mode():
    c = ReplicaClock("r1")
    for tree in (GraphTree("or", "op"), WordTree("or", "op")):
        with pytest.raises(PreconditionViolation, match="insert needs a positioned tree"):
            tree.gen_insert("x", top(tree), 0, c)
        assert tree.lookup().instances == {}


# --- one codec per positioning mode ---


@pytest.mark.parametrize("mode", [None, "node", "edge", "wootr"])
def test_one_codec_per_mode_stores_both_element_forms(mode):
    assert GraphTree.CODECS is WordTree.CODECS
    codec = GraphTree.CODECS[mode]
    c = ReplicaClock("r1")
    pos = {None: None, "node": fresh_upi(c), "edge": fresh_upi(c), "wootr": (BEGIN, END)}[mode]
    # the position each element stores; node mode keeps it on the node
    stored = {"edge": pos, "wootr": WootrTriple("x", BEGIN, END)}.get(mode)
    child = codec.node("x", pos)
    assert child == (PositionedNode("x", pos) if mode == "node" else "x")
    assert codec.decode(codec.encode("p", child, pos)) == ("p", child, stored)
    if mode == "node":
        with pytest.raises(IllegalCombo):
            WordTree("2p", "op", pi_mode=mode)
    else:
        assert codec.split(codec.step("x", pos)) == ("x", stored)


WOOTR_TREES = {
    "graph": lambda: GraphTree("or", "op", pi_mode="wootr"),
    "edge": lambda: GraphTree("or", "op", repr_name="edge", pi_mode="wootr"),
    "word": lambda: WordTree("or", "op", pi_mode="wootr"),
}


def top(tree):
    return EPSILON if isinstance(tree, WordTree) else tree.root


ADDED_TREES = {
    "graph-plain": (None, lambda: GraphTree("or", "op")),
    "edge-plain": (None, lambda: GraphTree("or", "op", repr_name="edge")),
    "word-plain": (None, lambda: WordTree("or", "op")),
    "graph-node": ("node", lambda: GraphTree("2p", "op", pi_mode="node")),
    "graph-edge": ("edge", lambda: GraphTree("or", "op", pi_mode="edge")),
    "edge-edge": ("edge", lambda: GraphTree("2p", "op", repr_name="edge", pi_mode="edge")),
    "word-edge": ("edge", lambda: WordTree("2p", "op", pi_mode="edge")),
    **{f"{name}-wootr": ("wootr", make) for name, make in WOOTR_TREES.items()},
}


@pytest.mark.parametrize("mode, make", ADDED_TREES.values(), ids=ADDED_TREES)
def test_gen_add_places_a_child_by_the_positioning_mode(mode, make):
    """An add takes no position: a UPI tree draws one after the last
    sibling, a WOOTR tree puts the child between both ends, and an
    unordered tree stores none."""
    c = ReplicaClock("r1")
    t = make()
    t.gen_add("c", top(t), c)
    if mode is not None:
        t.gen_insert("b", top(t), 0, c)
    t.gen_add("a", top(t), c)
    kids = t.lookup().children(())
    pos = {k.label: k.pos for k in kids}
    if mode is None:
        assert [k.label for k in kids] == ["a", "c"]
        assert pos == {"a": None, "c": None}
    elif mode == "wootr":
        assert pos["a"] == WootrTriple("a", BEGIN, END)
        assert pos["c"] == WootrTriple("c", BEGIN, END)
    else:
        assert [k.label for k in kids] == ["b", "c", "a"]
        assert pos["b"] < pos["c"] < pos["a"]


@pytest.mark.parametrize("make", WOOTR_TREES.values(), ids=WOOTR_TREES)
def test_wootr_sibling_line_is_built_once_per_insert(make, monkeypatch):
    calls = []

    def counted(elements, order=wootr.wootr_order):
        calls.append(1)
        return order(elements)

    monkeypatch.setattr(wootr, "wootr_order", counted)
    monkeypatch.setattr(ordered, "wootr_order", counted)
    c = ReplicaClock("r1")
    t = make()
    t.gen_add("a", top(t), c)
    t.lookup()
    calls.clear()
    t.gen_insert("b", top(t), 1, c)
    assert len(calls) == 1
    t.lookup()
    calls.clear()
    t.gen_add("c", top(t), c)
    assert calls == []


def _sibling_script(seed=20, inserts=40):
    """A fixed 3-replica state script: 3 parents, then inserts at random
    sibling indices with a pairwise merge after every few of them."""
    rng = random.Random(seed)
    rids = ("r1", "r2", "r3")
    script = [("r1", "add", p, "root") for p in ("p1", "p2", "p3")]
    script += [("r2", "merge", "r1"), ("r3", "merge", "r1")]
    # no removals, so a replica's siblings are exactly the names it knows
    known = {r: {p: set() for p in ("p1", "p2", "p3")} for r in rids}
    for n in range(inserts):
        r, p = rng.choice(rids), rng.choice(("p1", "p2", "p3"))
        name = f"x{n}"
        script.append((r, "insert", name, p, str(rng.randint(0, len(known[r][p])))))
        known[r][p].add(name)
        if n % 4 == 3:
            r, src = rng.sample(rids, 2)
            script.append((r, "merge", src))
            for p, names in known[src].items():
                known[r][p] |= names
    return script


def test_wootr_order_runs_once_per_distinct_sibling_set(monkeypatch):
    # a lookup build orders every sibling group again, though an insert or a
    # merge changes one or two groups; the memo orders each live set once
    calls, distinct = [], set()

    def counted(elements, order=wootr.wootr_order):
        live = frozenset(elements)
        calls.append(1)
        distinct.add(live)
        return order(live)

    monkeypatch.setattr(wootr, "wootr_order", counted)
    monkeypatch.setattr(ordered, "wootr_order", counted)
    wootr._order_live.cache_clear()
    sim = Simulation(parse_combo("graph or state skip shortest wootr".split()))
    assert all(record.violation is None for record in sim.run(_sibling_script()))
    ordered_sets = wootr._order_live.cache_info().misses
    assert ordered_sets <= len(distinct)
    assert ordered_sets < len(calls) / 2
