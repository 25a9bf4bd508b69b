"""Graph-backed tree CRDTs: preconditions, removal payloads, policy behavior."""

import itertools
import random

import pytest
from helpers import REPLICAS, TreeGroup
from treecrdt.clocks import LamportStamp, ReplicaClock
from treecrdt.errors import IllegalCombo, PreconditionViolation, SeveralBlowup
from treecrdt.graph import GraphTree, edge_weights
from treecrdt.harness import (
    Simulation,
    causal_deps,
    legal_combos,
    linear_extensions,
    parse_combo,
    random_scenario,
    sampled_extensions,
    shown,
)
from treecrdt.render import sorted_elements
from treecrdt.sets import ADD, FLAVORS, KINDS, SetOp, make_set


def fresh(kind="or", flavor="op", **kw):
    return GraphTree(kind, flavor, **kw)


def clock(r="r1"):
    return ReplicaClock(r)


# --- sequential behavior ---


def test_add_under_root():
    t, c = fresh(), clock()
    t.gen_add("a", "root", c)
    assert t.lookup().dump() == "root\n  a"


def test_add_existing_node_rejected():
    t, c = fresh(), clock()
    t.gen_add("a", "root", c)
    with pytest.raises(PreconditionViolation):
        t.gen_add("a", "root", c)


def test_add_under_missing_parent_rejected():
    t, c = fresh(), clock()
    with pytest.raises(PreconditionViolation):
        t.gen_add("a", "b", c)


def test_root_cannot_be_added_or_removed():
    t, c = fresh(), clock()
    with pytest.raises(PreconditionViolation):
        t.gen_add("root", "root", c)
    with pytest.raises(PreconditionViolation):
        t.gen_rmv("root", c)


def test_rmv_absent_node_rejected():
    t, c = fresh(), clock()
    with pytest.raises(PreconditionViolation):
        t.gen_rmv("a", c)


def test_rmv_carries_full_subtree():
    t, c = fresh(), clock()
    t.gen_add("a", "root", c)
    t.gen_add("b", "a", c)
    op = t.gen_rmv("a", c)
    assert {sub.element for sub in op.node_ops} == {"a", "b"}
    assert {sub.element for sub in op.edge_ops} == {("root", "a"), ("a", "b")}
    assert t.lookup().dump() == "root"


def test_rmv_leaf_carries_single_pair():
    t, c = fresh(), clock()
    t.gen_add("a", "root", c)
    op = t.gen_rmv("a", c)
    assert {sub.element for sub in op.node_ops} == {"a"}
    assert {sub.element for sub in op.edge_ops} == {("root", "a")}


def test_grow_only_tree_rejects_removal():
    t, c = fresh(kind="g"), clock()
    t.gen_add("a", "root", c)
    with pytest.raises(PreconditionViolation):
        t.gen_rmv("a", c)


def test_two_phase_node_never_returns():
    t, c = fresh(kind="2p"), clock()
    t.gen_add("a", "root", c)
    t.gen_rmv("a", c)
    before = t.canonical()
    with pytest.raises(PreconditionViolation):
        t.gen_add("a", "root", c)
    assert t.canonical() == before


def test_sequential_history_matches_naive_tree():
    t, c = fresh(kind="lww"), clock()
    t.gen_add("docs", "root", c)
    t.gen_add("img", "root", c)
    t.gen_add("a", "docs", c)
    t.gen_rmv("a", c)
    t.gen_add("b", "docs", c)
    assert t.lookup().dump() == "root\n  docs\n    b\n  img"


# --- the lookup pair can dangle ---


def test_lookup_pair_can_reference_dead_nodes():
    trees = {r: fresh(kind="lww") for r in REPLICAS}
    clocks = {r: ReplicaClock(r) for r in REPLICAS}

    def deliver(op, *targets):
        for r in targets:
            trees[r].apply_remote(op)
            clocks[r].observe(op.max_stamp())

    deliver(trees["r3"].gen_add("m", "root", clocks["r3"]), "r1", "r2")
    deliver(trees["r3"].gen_add("p", "root", clocks["r3"]), "r1", "r2")
    # only r2 sees the third-party add of n before removing the subtree
    late_add = trees["r3"].gen_add("n", "p", clocks["r3"])
    deliver(late_add, "r2")
    rmv_op = trees["r2"].gen_rmv("p", clocks["r2"])
    # r1 never saw n, so it adds n concurrently with lower stamps
    add_op = trees["r1"].gen_add("n", "m", clocks["r1"])
    assert {sub.element for sub in rmv_op.node_ops} == {"p", "n"}
    assert max(s.stamp for s in rmv_op.node_ops) > max(
        s.stamp for s in add_op.node_ops
    )
    deliver(late_add, "r1")
    deliver(rmv_op, "r1", "r3")
    deliver(add_op, "r2", "r3")
    for tree in trees.values():
        assert ("m", "n") in tree.edges.lookup()
        assert "n" not in tree.nodes.lookup()
        assert tree.lookup().dump() == "root\n  m"


def test_concurrent_cross_adds_build_a_cycle():
    group = TreeGroup(lambda: fresh(kind="or"))
    group.add("r1", "x", "root")
    group.add("r1", "y", "x")
    group.add("r2", "y", "root")
    group.add("r2", "x", "y")
    group.sync()
    for tree in group.trees.values():
        assert tree.edges.lookup() == {
            ("root", "x"),
            ("x", "y"),
            ("root", "y"),
            ("y", "x"),
        }
        assert tree.nodes.lookup() == {"x", "y"}


@pytest.mark.parametrize(
    "map_policy,expected",
    [
        ("several", "root\n  x\n    y/x\n  y\n    x/y"),
        ("shortest", "root\n  x\n  y"),
        ("zero", "root"),
    ],
)
def test_cycle_resolved_per_mapping_policy(map_policy, expected):
    group = TreeGroup(lambda: fresh(kind="or", map_policy=map_policy))
    group.add("r1", "x", "root")
    group.add("r1", "y", "x")
    group.add("r2", "y", "root")
    group.add("r2", "x", "y")
    group.sync()
    for tree in group.trees.values():
        assert tree.lookup().dump() == expected


# --- connection policies through whole trees ---


def orphan_group(kind, flavor, connect_policy):
    group = TreeGroup(lambda: fresh(kind=kind, flavor=flavor, connect_policy=connect_policy))
    group.add("r1", "m", "root")
    group.sync()
    group.rmv("r1", "m")
    group.add("r2", "z", "m")
    group.sync()
    return group


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
    group = orphan_group("or", flavor, connect_policy)
    for tree in group.trees.values():
        assert tree.lookup().dump() == expected


def test_history_survives_state_merges():
    group = orphan_group("lww", "state", "reappear")
    for tree in group.trees.values():
        # r1 learned the edge under m by merge; the removed edge into m stays
        assert {("m", "z"), ("root", "m")} <= tree.edges.ever()


# --- weighted mapping policies on live metadata ---


def two_parent_group(kind, map_policy, extra_adds=()):
    group = TreeGroup(lambda: fresh(kind=kind, map_policy=map_policy))
    group.add("r1", "a", "root")
    group.add("r1", "b", "root")
    group.sync()
    group.add("r1", "c", "a")
    group.add("r2", "c", "b")
    for replica, node, parent in extra_adds:
        group.add(replica, node, parent)
    group.sync()
    return group


def test_newest_keeps_latest_stamped_edge():
    group = two_parent_group("lww", "newest")
    for tree in group.trees.values():
        assert tree.lookup().dump() == "root\n  a\n  b\n    c"


def test_newest_uses_tag_recency_for_tagged_sets():
    group = two_parent_group("or", "newest")
    for tree in group.trees.values():
        assert tree.lookup().dump() == "root\n  a\n  b\n    c"


def test_newest_ranks_follow_stamp_order():
    # equal counters break by origin, and equal stamps share a rank
    stamps = {
        "e1": LamportStamp(2, "r2"),
        "e2": LamportStamp(2, "r1"),
        "e3": LamportStamp(1, "r3"),
        "e4": LamportStamp(2, "r2"),
        "e5": LamportStamp(10, "r1"),
    }
    edges = make_set("lww", "op")
    for e, stamp in stamps.items():
        edges.apply(SetOp(ADD, e, stamp=stamp))
    ranks = edge_weights(edges, "lww", "newest", edges.lookup())
    assert ranks == {"e1": 2, "e2": 1, "e3": 0, "e4": 2, "e5": 3}


def test_highest_keeps_most_supported_edge():
    group = two_parent_group("c", "highest", extra_adds=[("r3", "c", "a")])
    for tree in group.trees.values():
        assert tree.edges.count(("a", "c")) == 2
        assert tree.edges.count(("b", "c")) == 1
        assert tree.lookup().dump() == "root\n  a\n    c\n  b"


def test_highest_counts_live_tags():
    group = two_parent_group("or", "highest", extra_adds=[("r3", "c", "a")])
    for tree in group.trees.values():
        assert tree.lookup().dump() == "root\n  a\n    c\n  b"


@pytest.mark.parametrize(
    "kind,map_policy",
    [("g", "newest"), ("2p", "newest"), ("c", "newest"), ("g", "highest"), ("2p", "highest"), ("lww", "highest")],
)
def test_metadata_free_kinds_reject_ranked_mapping(kind, map_policy):
    with pytest.raises(IllegalCombo):
        GraphTree(kind, "op", map_policy=map_policy)


# --- convergence smoke across kinds and flavors ---


def scripted_group(kind, flavor):
    group = TreeGroup(lambda: fresh(kind=kind, flavor=flavor, connect_policy="root"))
    group.add("r1", "a", "root")
    group.add("r2", "b", "root")
    group.sync()
    group.add("r1", "c", "a")
    group.rmv("r2", "a")
    group.add("r3", "d", "b")
    group.sync()
    group.rmv("r3", "d")
    group.add("r2", "e", "b")
    group.sync()
    return group


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("kind", [k for k in KINDS if k != "g"])
def test_scripted_history_converges(kind, flavor):
    group = scripted_group(kind, flavor)
    dumps = set(group.dumps().values())
    canons = {tree.canonical() for tree in group.trees.values()}
    assert len(dumps) == 1
    assert len(canons) == 1


# --- the add-once tree under skip: the memoized lookup equals a fresh build ---


def add_once():
    return GraphTree("2p", "op", "skip", "shortest")


def test_incremental_matches_batch_on_orphan_scenario():
    group = TreeGroup(add_once)
    group.add("r1", "m", "root")
    group.sync()
    group.rmv("r1", "m")
    group.add("r2", "z", "m")
    group.sync()
    for tree in group.trees.values():
        assert tree.lookup().dump() == "root"
        assert tree.lookup().dump() == tree._build_lookup().dump()


def test_incremental_matches_batch_stepwise():
    group = TreeGroup(add_once)
    steps = [
        ("add", "r1", "a", "root"),
        ("add", "r1", "b", "a"),
        ("sync",),
        ("rmv", "r2", "a"),
        ("add", "r1", "c", "b"),
        ("sync",),
        ("add", "r2", "d", "root"),
        ("rmv", "r2", "d"),
        ("sync",),
    ]
    for step in steps:
        if step[0] == "sync":
            group.sync()
        elif step[0] == "add":
            group.add(step[1], step[2], step[3])
        else:
            group.rmv(step[1], step[2])
        for tree in group.trees.values():
            assert tree.lookup().dump() == tree._build_lookup().dump()
    assert len(set(group.dumps().values())) == 1


def test_late_add_under_removed_node_stays_hidden():
    group = TreeGroup(add_once)
    group.add("r1", "m", "root")
    group.add("r1", "n", "m")
    group.sync()
    group.add("r2", "w", "n")
    group.rmv("r1", "n")
    group.sync()
    for tree in group.trees.values():
        assert tree.lookup().dump() == "root\n  m"
        assert tree.lookup().dump() == tree._build_lookup().dump()


def test_incremental_rejects_second_add_of_same_node():
    tree, c = add_once(), clock()
    tree.gen_add("a", "root", c)
    tree.gen_rmv("a", c)
    with pytest.raises(PreconditionViolation):
        tree.gen_add("a", "root", c)


def test_concurrent_adds_under_two_parents_converge_in_both_orders():
    source, c1 = add_once(), clock("r1")
    setup = source.gen_add("a", "root", c1)
    at_root = source.gen_add("x", "root", c1)
    other, c2 = add_once(), clock("r2")
    other.apply_remote(setup)
    under_a = other.gen_add("x", "a", c2)
    dumps = set()
    for order in ((at_root, under_a), (under_a, at_root)):
        tree = add_once()
        for op in (setup,) + order:
            tree.apply_remote(op)
        dumps.add(tree.lookup().dump())
    assert dumps == {"root\n  a\n  x"}


# --- the history the reconnection policies read ---


def decoded_ever(tree):
    return set(map(tree.codec.decode, tree.edges.ever()))


def decoded_adds(tree, ops):
    return {tree.codec.decode(op.edge_ops[0].element) for op in ops if op.verb == ADD}


def replica_ops(sim, rid):
    return sim.known_ops(sim.replicas[rid].clock.delivered)


@pytest.mark.parametrize(
    "combo", [c for c in legal_combos() if c.repr_name != "word"], ids=lambda c: c.label()
)
def test_edge_set_ever_is_every_edge_added(combo):
    scn = random_scenario(combo, 42, final_sync=combo.flavor == "op")
    sim = Simulation(combo, scn.replicas, scn.seed)
    for action in scn.script:
        if sim.apply(action) is None:
            for rid in sim.rids:
                tree = sim.replicas[rid].tree
                assert decoded_ever(tree) == decoded_adds(tree, replica_ops(sim, rid))
    if combo.flavor == "state":
        # the checker's schedules: merge the replicas in every order
        for perm in itertools.permutations(sim.rids):
            acc = sim.replicas[perm[0]].tree.copy()
            known = decoded_adds(acc, replica_ops(sim, perm[0]))
            for rid in perm[1:]:
                acc.merge(sim.replicas[rid].tree)
                known |= decoded_adds(acc, replica_ops(sim, rid))
                assert decoded_ever(acc) == known
        return
    # the checker's schedules: every delivery order, or the same sample
    deps = causal_deps(sim.envelopes)
    if len(sim.envelopes) <= 7:
        orders = linear_extensions(deps)
    else:
        rng = random.Random(f"schedules/{combo.label()}/{scn.seed}")
        orders = sampled_extensions(deps, 32, rng)
    for order in orders:
        observer = sim.factory(combo)
        for pos, i in enumerate(order, start=1):
            observer.apply_remote(sim.envelopes[i].payload)
            delivered = [sim.envelopes[j].payload for j in order[:pos]]
            assert decoded_ever(observer) == decoded_adds(observer, delivered)


@pytest.mark.parametrize("repr_name", ["graph", "edge"])
def test_rmv_ops_come_in_element_order(repr_name):
    """After each combo's random scenario, a removal of each shown node (in
    an edge tree also of each hidden edge target) on a copy of each replica
    removes the nodes it takes in element order, and the live edges into
    them in the order of all live edges sorted by element.  An edge tree
    removes a node that only the history shows, as a graph tree does."""
    removals = revived = 0
    for combo in legal_combos():
        if combo.repr_name != repr_name or combo.kind == "g":
            continue
        scn = random_scenario(combo, 42)
        sim = Simulation(combo, scn.replicas, scn.seed)
        for action in scn.script:
            sim.apply(action)
        for rid, rep in sim.replicas.items():
            try:
                lt = rep.tree.lookup()
            except SeveralBlowup:
                continue
            decode = rep.tree.codec.decode
            live = rep.tree.edges.lookup()
            into = {decode(e)[1] for e in live}
            targets = [rep.tree.resolve(name) for name in rep.tree.names()]
            if repr_name == "edge":
                targets += sorted_elements(into - lt.nodes_present())
            for n in targets:
                where = (combo.label(), rid, n)
                tree = rep.tree.copy()
                # shown from the history alone: no live edge points at n
                revived += n not in into
                op = tree.gen_rmv(n, ReplicaClock(rid))
                removed = tree.subtree_nodes(lt, n)
                if repr_name == "edge":
                    removed.add(n)
                else:
                    elements = [sub.element for sub in op.node_ops]
                    assert elements == sorted_elements(removed), where
                expected = [e for e in sorted_elements(live) if decode(e)[1] in removed]
                assert [sub.element for sub in op.edge_ops] == expected, where
                removals += 1
    assert removals > 0
    assert revived > 0 or repr_name == "graph"


@pytest.mark.parametrize("repr_name", ["graph", "edge"])
def test_a_node_the_history_revives_can_be_removed_and_added_below(repr_name):
    """Reappear shows a removed node again while a concurrent add hangs a
    child from it; both representations remove it and add below it."""
    combo = parse_combo(f"{repr_name} or state reappear shortest plain".split())
    sim = Simulation(combo, replicas=2)
    script = [
        ("r1", "add", "a", "root"),
        ("r2", "merge", "r1"),
        ("r1", "rmv", "a"),
        ("r2", "add", "b", "a"),
        ("sync",),
    ]
    assert all(record.violation is None for record in sim.run(script))
    assert set(sim.final_dumps().values()) == {"root\n  a\n    b"}
    assert sim.apply(("r1", "add", "c", "a")) is None
    assert shown(sim.replicas["r1"].tree) == "root\n  a\n    b\n    c"
    assert sim.apply(("r1", "rmv", "a")) is None
    assert shown(sim.replicas["r1"].tree) == "root"
