"""Replica reads: the memoized lookup, the one-pass dump, cached canonical keys."""

import random
from collections import Counter
from functools import partial
from types import SimpleNamespace
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecrdt.clocks import ReplicaClock
from treecrdt.errors import SeveralBlowup
from treecrdt.graph import GraphTree
from treecrdt.harness import (
    ComboSpec,
    Simulation,
    _random_action,
    legal_combos,
    parse_combo,
    random_scenario,
)
from treecrdt.lookup import Instance, LookupTree
from treecrdt.ordered import PositionedNode
from treecrdt.paths import WordTree
from treecrdt.policies import EdgeInfo
from treecrdt.positions import Upi
from treecrdt.render import Path, render, sort_key
from treecrdt.sets import ADD, KINDS
from treecrdt.wootr import BEGIN, END, WootrTriple, wootr_order

from helpers import parse_path, same_tree
from test_combo_digests import LONG_SCRIPT_DIGESTS


def reference_dump(lt: LookupTree) -> str:
    """The dump as a recursive walk over children(), one scan per node."""
    lines = [lt.root_label]

    def walk(key, depth):
        for inst in lt.children(key):
            label = inst.label
            if inst.pos is not None:
                label += f" @{render(inst.pos)}"
            if inst.ghost:
                label += " ~"
            lines.append("  " * depth + label)
            walk(inst.key, depth + 1)

    walk((), 1)
    return "\n".join(lines)


def memo_sample():
    """Two combos of every representation and positioning mode."""
    groups = {}
    for combo in legal_combos():
        groups.setdefault((combo.repr_name, combo.pi_mode), []).append(combo)
    rng = random.Random(2024)
    return [c for key in sorted(groups, key=str) for c in rng.sample(groups[key], 2)]


SAMPLE = memo_sample()


def test_sample_covers_every_repr_and_pi_mode():
    assert {(c.repr_name, c.pi_mode) for c in SAMPLE} == {
        (c.repr_name, c.pi_mode) for c in legal_combos()
    }


@pytest.mark.parametrize("combo", SAMPLE, ids=lambda c: c.label())
def test_memoized_lookup_matches_a_fresh_copy_after_every_step(combo):
    scn = random_scenario(combo, seed=3, n_ops=8)
    sim = Simulation(combo, scn.replicas, scn.seed)
    for action in scn.script:
        sim.execute(action)
        for rep in sim.replicas.values():
            tree = rep.tree
            first = tree.lookup()
            assert tree.lookup() is first
            assert first.dump() == tree.copy().lookup().dump()
            assert first.dump() == tree.lookup().dump()
            assert first.dump() == reference_dump(first)


def test_copy_starts_with_an_empty_memo():
    tree = GraphTree("or", "op")
    tree.gen_add("a", "root", ReplicaClock("r1"))
    shown = tree.lookup()
    dup = tree.copy()
    assert dup.lookup() is not shown
    assert dup.lookup().dump() == shown.dump()


def test_every_payload_change_renews_the_lookup():
    clock = ReplicaClock("r1")
    tree = GraphTree("or", "state", "compact")
    tree.gen_add("a", "root", clock)
    before = tree.lookup()
    tree.edges.local_add(("root", "ghost"), clock)
    assert tree.lookup() is not before
    before = tree.lookup()
    peer = tree.copy()
    peer.gen_add("b", "a", ReplicaClock("r2"))
    tree.merge(peer)
    assert tree.lookup() is not before
    assert "b" in tree.lookup().nodes_present()


class LabelledTree(GraphTree):
    """A subclass that post-processes the tree its base class builds, and
    folds the arrival order its labels read into ``state()``."""

    def __init__(self):
        super().__init__("or", "op", "skip", "shortest")
        self.arrivals = []

    def apply_remote(self, op):
        if op.verb == ADD and op.node not in self.arrivals:
            self.arrivals.append(op.node)
        super().apply_remote(op)

    def state(self):
        return super().state() + (tuple(self.arrivals),)

    def _build(self, *reads):
        lt, _ = super()._build(*reads)
        for inst in lt.instances.values():
            if inst.node in self.arrivals:
                inst.label += f"#{self.arrivals.index(inst.node)}"
        return lt, None


def test_post_processing_subclass_never_sees_its_own_edits():
    source = GraphTree("or", "op")
    clock = ReplicaClock("r1")
    ops = [source.gen_add("a", "root", clock), source.gen_add("b", "a", clock)]
    tree = LabelledTree()
    for op in ops:
        tree.apply_remote(op)
    assert tree.lookup().dump() == tree.lookup().dump() == "root\n  a#0\n    b#1"


def test_dump_does_not_scan_per_node(monkeypatch):
    lt = LookupTree()
    for i in range(50):
        lt.add_instance((f"n{i}",), f"n{i}", () if i < 5 else (f"n{i % 5}",))
    expected = reference_dump(lt)

    def refuse(self, key):
        raise AssertionError("dump called children()")

    monkeypatch.setattr(LookupTree, "children", refuse)
    assert lt.dump() == expected
    assert GraphTree.subtree_nodes(lt, "n1") == {"n1"} | {
        f"n{i}" for i in range(5, 50) if i % 5 == 1
    }


def deep_chain(n: int) -> LookupTree:
    """root > 0 > 1 > ... > n - 1, built by hand."""
    lt = LookupTree()
    parent = ()
    for i in range(n):
        lt.add_instance((i,), i, parent)
        parent = (i,)
    return lt


def test_dump_handles_trees_deeper_than_the_recursion_limit():
    lines = deep_chain(3000).dump().splitlines()
    assert len(lines) == 3001
    assert lines[-1] == "  " * 3000 + "2999"


def test_dump_blocks_hold_one_copy_of_the_text():
    """One block per subtree hung from the root, not one per instance, so a
    deep chain keeps its text once, before and after a patch."""
    lt = deep_chain(3000)
    text = lt.dump()
    assert sum(map(len, lt.blocks.values())) <= len(text)
    patched = lt.edited([], [Instance((3000,), 3000, (2999,), "3000")], is_live)
    assert not patched.blocks
    text = patched.dump()
    assert text.endswith("\n" + "  " * 3001 + "3000")
    assert sum(map(len, patched.blocks.values())) <= len(text)


@pytest.mark.parametrize("change", ["add_instance", "sort_siblings"])
def test_a_change_by_hand_after_a_dump_shows_in_the_next_dump(change):
    lt = LookupTree()
    for name, up in ("b", ""), ("z", "b"), ("y", "b"), ("a", ""):
        lt.add_instance((name,), name, (up,) if up else ())
    assert lt.dump() == "root\n  b\n    z\n    y\n  a"
    if change == "add_instance":
        lt.add_instance(("x",), "x", ("b",))
    else:
        lt.sort_siblings()
    assert lt.dump() == reference_dump(lt) != "root\n  b\n    z\n    y\n  a"


# the three op-flavor combos of the replay benchmark
@pytest.mark.parametrize("label", LONG_SCRIPT_DIGESTS)
def test_long_scripts_dump_what_a_fresh_build_dumps(monkeypatch, label):
    """Each replica's tree is dumped after every action, so a patch starts
    from the dump blocks of the tree it edits, and most patches carry some."""
    carried = []
    edited = LookupTree.edited

    def counted(lt, *change):
        patched = edited(lt, *change)
        if patched is not None:
            carried.append(len(patched.blocks))
        return patched

    monkeypatch.setattr(LookupTree, "edited", counted)
    combo = parse_combo(label.split())
    scn = random_scenario(combo, seed=7, n_ops=300)
    sim = Simulation(combo, scn.replicas, scn.seed)
    for action in scn.script:
        sim.execute(action)
        for rep in sim.replicas.values():
            lt = rep.tree.lookup()
            built = rep.tree._build_lookup()
            assert lt.dump() == reference_dump(lt) == built.dump(), (label, action)
    assert sum(map(bool, carried)) > len(carried) / 2


def wide_tree(n: int) -> Tuple[GraphTree, ReplicaClock]:
    """An op OR graph tree of n nodes: n / 4 nodes under the root, each
    with three leaves, shown and dumped once."""
    tree, clock = GraphTree("or", "op"), ReplicaClock("r1")
    for i in range(n // 4):
        # straight to the sets, so the setup reads no lookup per add
        tree._commit(f"t{i}", "root", clock, None)
        for j in range(3):
            tree._commit(f"t{i}x{j}", f"t{i}", clock, None)
    tree.lookup().dump()
    return tree, clock


def test_a_dump_after_a_patched_add_renders_only_the_touched_subtree(monkeypatch):
    rendered = 0
    block = LookupTree._block

    def counted(lt, top):
        nonlocal rendered
        text = block(lt, top)
        rendered += text.count("\n") + 1
        return text

    monkeypatch.setattr(LookupTree, "_block", counted)
    made = count_lookups(monkeypatch)
    counts = []
    for n in (1000, 4000):
        tree, clock = wide_tree(n)
        rendered = 0
        tree.gen_add("new", "t1x2", clock)
        lt = tree.lookup()
        assert lt.dump() == reference_dump(lt)
        assert len(lt.instances) == n + 1
        counts.append(rendered)
    # t1, its three leaves and the new one, at either size
    assert counts == [5, 5]
    assert made == Counter(build=2, patch=2)


def test_instance_order_is_unchanged_by_the_one_pass_grouping():
    rng = random.Random(5)
    lt = LookupTree()
    names = []
    for i in range(200):
        parent = () if not names or rng.random() < 0.3 else (rng.choice(names),)
        name = rng.choice("abcdefgh") + str(i)
        pos = Upi(((rng.randrange(5), "r1", i),)) if rng.random() < 0.5 else None
        lt.add_instance((name,), name, parent, pos=pos)
        names.append(name)
    lt.sort_siblings()
    for key, group in scan_groups(lt).items():
        assert lt.children(key) == sorted(group, key=Instance.order_key)
    assert lt.dump() == reference_dump(lt)


def test_sort_siblings_orders_only_instances_with_a_sibling(monkeypatch):
    rng = random.Random(8)
    lt = LookupTree()
    keys = [()]
    for i in range(300):
        lt.add_instance((i,), i, rng.choice(keys))
        keys.append((i,))
    groups = scan_groups(lt)
    with_sibling = sum(len(group) for group in groups.values() if len(group) > 1)
    assert 0 < with_sibling < len(lt.instances)
    calls = 0
    order_key = Instance.order_key

    def counted(inst):
        nonlocal calls
        calls += 1
        return order_key(inst)

    monkeypatch.setattr(Instance, "order_key", counted)
    lt.sort_siblings()
    assert calls == with_sibling
    for key, group in groups.items():
        assert lt.children(key) == sorted(group, key=order_key)


def scan_groups(lt: LookupTree) -> dict:
    """Every instance under its parent key, by a scan of all instances."""
    groups = {}
    for inst in lt.instances.values():
        groups.setdefault(inst.parent, []).append(inst)
    return groups


def final_lookups(seed: int):
    """Each replica's visible tree after a random scenario of every combo."""
    for combo in legal_combos():
        scn = random_scenario(combo, seed)
        sim = Simulation(combo, scn.replicas, scn.seed)
        sim.run(scn.script)
        for rep in sim.replicas.values():
            try:
                lt = rep.tree.lookup()
            except SeveralBlowup:
                continue
            yield lt


def assert_siblings_in_reference_order(lt: LookupTree) -> Counter:
    """Every sibling group holds the instances a scan finds under its
    parent, in their reference order: ``wootr_order`` of the positions for
    sequence positions, else ``Instance.order_key`` order.  Returns how
    many groups of two or more of each kind the tree has."""
    groups = scan_groups(lt)
    assert lt.kids.keys() == groups.keys()
    found = Counter()
    for key, group in lt.kids.items():
        assert sorted(map(id, group)) == sorted(map(id, groups[key]))
        assert lt.children(key) == group
        positions = [inst.pos for inst in group]
        if any(isinstance(pos, WootrTriple) for pos in positions):
            assert positions == wootr_order(positions)
            kind = "wootr"
        else:
            assert group == sorted(group, key=Instance.order_key)
            kind = "order_key"
        found[kind] += len(group) > 1
    assert lt.dump() == reference_dump(lt)
    return found


@pytest.mark.parametrize("seed", [42, 43])
def test_every_combo_builds_siblings_in_reference_order(seed):
    found = sum(map(assert_siblings_in_reference_order, final_lookups(seed)), Counter())
    assert found["wootr"] > 0 and found["order_key"] > 0


# the three op-flavor combos of the replay benchmark
@pytest.mark.parametrize("label", LONG_SCRIPT_DIGESTS)
def test_long_scripts_keep_siblings_in_reference_order(label):
    combo = parse_combo(label.split())
    scn = random_scenario(combo, seed=7, n_ops=300)
    sim = Simulation(combo, scn.replicas, scn.seed)
    found = Counter()
    for action in scn.script:
        sim.execute(action)
        for rep in sim.replicas.values():
            lt = rep.tree.lookup()
            found += assert_siblings_in_reference_order(lt)
            assert same_tree(lt, rep.tree._build_lookup()), (label, action)
    assert sum(found.values()) > 0


def word_steps(kind: str, seed: int):
    """Each word combo of one set kind, stepped through its random
    scenario: yields the combo, the step number, the action just executed
    and each replica's id and tree after it."""
    for combo in legal_combos():
        if combo.repr_name != "word" or combo.kind != kind:
            continue
        scn = random_scenario(combo, seed)
        sim = Simulation(combo, scn.replicas, scn.seed)
        for step, action in enumerate(scn.script):
            sim.execute(action)
            for rid, rep in sim.replicas.items():
                yield combo, step, action, rid, rep.tree


@pytest.mark.parametrize("seed", [42, 43])
@pytest.mark.parametrize("kind", KINDS)
def test_word_builds_add_instances_in_the_order_the_generator_reads(kind, seed):
    """Every word build adds its instances in ``Path.order_key`` order, the
    order ``_random_action`` reads them in."""
    for combo, _, action, _, tree in word_steps(kind, seed):
        built = tree._build_lookup()
        assert list(built.instances) == sorted(built.instances, key=Path.order_key), (
            combo.label(),
            action,
        )


@pytest.mark.parametrize("seed", [42, 43])
@pytest.mark.parametrize("kind", KINDS)
def test_random_action_draws_from_a_patched_lookup_what_it_draws_from_a_build(kind, seed):
    """``_random_action`` draws the same action from a patched lookup, whose
    instance order differs, as from a fresh build."""
    reordered = 0
    for combo, step, action, rid, tree in word_steps(kind, seed):
        reordered += list(tree.lookup().instances) != list(tree._build_lookup().instances)
        draws = []
        # a copy has no memo, so its lookup is a fresh build
        for each in (tree, tree.copy()):
            one = SimpleNamespace(combo=combo, replicas={rid: SimpleNamespace(tree=each)})
            draws.append(_random_action(one, rid, random.Random(step), iter(())))
        assert draws[0] == draws[1], (combo.label(), action)
    assert reordered > 0


# (full builds, patches tried in vain, patched lookups) over the scripts
# above, counted after every action
LONG_SCRIPT_LOOKUPS = {
    "graph or op compact highest plain": (19, 16, 465),
    "edge lww op root newest plain": (379, 20, 92),
    "word or op reappear - plain": (81, 78, 442),
}


def count_lookups(monkeypatch) -> Counter:
    """Count the full builds, the patches tried in vain and the patched
    lookups that trees of both engines make from here on."""
    made = Counter()

    def counted(engine):
        build, patch = engine._build, engine._patch

        def counted_build(tree, *reads):
            made["build"] += 1
            return build(tree, *reads)

        def counted_patch(tree, basis, *reads):
            lt = patch(tree, basis, *reads)
            made["patch" if lt is not None else "fail"] += 1
            return lt

        monkeypatch.setattr(engine, "_build", counted_build)
        monkeypatch.setattr(engine, "_patch", counted_patch)

    counted(GraphTree)
    counted(WordTree)
    return made


@pytest.mark.parametrize("label", LONG_SCRIPT_DIGESTS)
def test_long_scripts_patch_most_lookups(monkeypatch, label):
    combo = parse_combo(label.split())
    scn = random_scenario(combo, seed=7, n_ops=300)
    sim = Simulation(combo, scn.replicas, scn.seed)
    made = count_lookups(monkeypatch)
    for action in scn.script:
        sim.execute(action)
        for rep in sim.replicas.values():
            rep.tree.lookup()
    builds, failed, patched = LONG_SCRIPT_LOOKUPS[label]
    assert (made["build"], made["fail"], made["patch"]) == (builds, failed, patched)
    # a lookup after a version change tries a patch unless it is the
    # replica's first or the last tree came from a graph that was no tree;
    # the edge script re-adds shown names under second parents, so its
    # graph is no tree for most of the script
    assert patched > 0.8 * (failed + patched)
    assert patched > 0.8 * (builds + patched) or combo.repr_name != "graph"


class PlainTree(GraphTree):
    """A subclass that keeps the engine's own build."""


def test_only_the_engine_build_is_patched(monkeypatch):
    source, clock = GraphTree("or", "op"), ReplicaClock("r1")
    ops = [
        source.gen_add(n, parent, clock)
        for n, parent in (("a", "root"), ("b", "a"), ("c", "a"), ("d", "root"))
    ]
    made = count_lookups(monkeypatch)
    builds = []
    build = LabelledTree._build

    def counted(tree, *reads):
        builds.append(tree)
        return build(tree, *reads)

    monkeypatch.setattr(LabelledTree, "_build", counted)
    shown = {
        LabelledTree(): "root\n  a#0\n    b#1\n    c#2\n  d#3",
        PlainTree("or", "op"): "root\n  a\n    b\n    c\n  d",
    }
    for tree, dump in shown.items():
        for op in ops:
            tree.apply_remote(op)
            assert tree.lookup() is tree.lookup()
        assert tree.lookup().dump() == dump
    # the build that keeps no basis runs on every change and is never
    # patched; the subclass that keeps the engine's build patches all but
    # the first
    assert len(builds) == len(ops)
    assert made == Counter(build=len(ops) + 1, patch=len(ops) - 1)


def hand_built_tree() -> LookupTree:
    """root > a > b > c, root > d and root > g > h, where g is the one node
    that is not live: shown only to hold h, as a ghost or a revived node is."""
    lt = LookupTree()
    for name, up in ("a", ""), ("b", "a"), ("c", "b"), ("d", ""), ("g", ""), ("h", "g"):
        lt.add_instance((name,), name, (up,) if up else ())
    return lt


def is_live(node) -> bool:
    return node != "g"


def fresh(name: str, parent: tuple) -> Instance:
    return Instance((name,), name, parent, name)


# one refused (removed, added) pair per clause of the patch rule
REFUSED_EDITS = {
    "removed unshown": ([("z",)], []),
    "removed with a kept child": ([("b",)], []),
    "removed below a node not live": ([("h",)], []),
    "added shown already": ([], [fresh("d", ())]),
    "added shown and removed": ([("d",)], [fresh("d", ())]),
    "added twice": ([], [fresh("x", ()), fresh("x", ("a",))]),
    "added below an unshown instance": ([], [fresh("x", ("z",))]),
    "added below a removed instance": ([("d",)], [fresh("x", ("d",))]),
    "added below a kept node not live": ([], [fresh("x", ("g",))]),
    "added before its parent": ([], [fresh("y", ("x",)), fresh("x", ())]),
}


@pytest.mark.parametrize("case", REFUSED_EDITS)
def test_edited_refuses_each_change_the_patch_rule_does_not_allow(case):
    lt = hand_built_tree()
    removed, added = REFUSED_EDITS[case]
    assert lt.edited(removed, added, is_live) is None
    assert same_tree(lt, hand_built_tree())


def test_edited_drops_whole_subtrees_and_adds_below_live_nodes():
    lt = hand_built_tree()
    # b hangs from a live node and g from the root, c and h from removed
    # ones; y hangs from an earlier added instance
    removed = [("c",), ("b",), ("h",), ("g",)]
    added = [fresh("x", ()), fresh("e", ("a",)), fresh("y", ("x",)), fresh("f", ("d",))]
    patched = lt.edited(removed, added, is_live)
    assert patched.dump() == "root\n  a\n    e\n  d\n    f\n  x\n    y"
    patched.validate()
    names = [key[0] for key in patched.instances]
    assert names == ["a", "d", "x", "e", "y", "f"]
    assert same_tree(lt, hand_built_tree())


def graph_replicas(n: int, *config, **options) -> tuple:
    trees = [GraphTree(*config, **options) for _ in range(n)]
    return trees, [ReplicaClock(f"r{i + 1}") for i in range(n)]


def lost_edge_with_a_hidden_in_edge_left() -> GraphTree:
    """An edge tree's b keeps an in-edge from the removed c after a peer
    that never saw it removes b: skip drops b, which keeps a live edge."""
    (r1, r2), (c1, c2) = graph_replicas(2, "or", "op", "skip", "shortest", repr_name="edge")
    for op in r1.gen_add("a", "root", c1), r1.gen_add("b", "a", c1):
        r2.apply_remote(op)
    r1.gen_add("c", "root", c1)
    r1.gen_add("b", "c", c1)
    r1.gen_rmv("c", c1)
    r1.lookup()
    r1.apply_remote(r2.gen_rmv("b", c2))
    return r1


def edge_into_the_root() -> GraphTree:
    """No op adds an edge into the root, but an edge set can hold one."""
    tree = GraphTree("or", "op", "root", "shortest", repr_name="edge")
    clock = ReplicaClock("r1")
    tree.edges.local_add(("y", "x"), clock)
    tree.lookup()
    tree.edges.local_add(("x", "root"), clock)
    return tree


def lost_edge_into_a_node_that_stays_live() -> GraphTree:
    """Two peers add b under a and under c; after c is removed, a peer that
    saw only the first add removes b, so b stays live with a dead parent."""
    (r1, r2, r3), clocks = graph_replicas(3, "or", "op", "skip", "shortest")
    for op in r1.gen_add("a", "root", clocks[0]), r1.gen_add("c", "root", clocks[0]):
        r2.apply_remote(op)
        r3.apply_remote(op)
    r2.apply_remote(r1.gen_add("b", "a", clocks[0]))
    r1.apply_remote(r3.gen_add("b", "c", clocks[2]))
    r1.gen_rmv("c", clocks[0])
    r1.lookup()
    r1.apply_remote(r2.gen_rmv("b", clocks[1]))
    return r1


def dead_edge_into_a_revived_node() -> GraphTree:
    """b is shown revived to hold c; a peer adds b again under x and removes
    it, so only the history gains x -> b, and reappear revives b there too."""
    (r1, r2, r3), clocks = graph_replicas(3, "or", "op", "reappear", "several")
    for op in (
        r1.gen_add("a", "root", clocks[0]),
        r1.gen_add("b", "a", clocks[0]),
        r1.gen_add("x", "root", clocks[0]),
    ):
        r2.apply_remote(op)
        r3.apply_remote(op)
    grow = r2.gen_add("c", "b", clocks[1])
    r3.apply_remote(r1.gen_rmv("a", clocks[0]))
    r1.apply_remote(grow)
    r1.lookup()
    r1.apply_remote(r3.gen_add("b", "x", clocks[2]))
    r1.apply_remote(r3.gen_rmv("b", clocks[2]))
    return r1


def readded_source_of_a_dropped_node() -> GraphTree:
    """m hangs from a removed a, so skip drops it; adding a again brings m
    back, since a is the source of m's live edge."""
    (r1, r2), (c1, c2) = graph_replicas(2, "or", "op", "skip", "shortest")
    r2.apply_remote(r1.gen_add("a", "root", c1))
    grow = r2.gen_add("m", "a", c2)
    r1.gen_rmv("a", c1)
    r1.apply_remote(grow)
    r1.lookup()
    r1.gen_add("a", "root", c1)
    return r1


def cycle_of_added_nodes(connect: str) -> GraphTree:
    """Two peers hang a under b and b under a while a third removes both, so
    the third gains two live nodes whose in-edges only join each other."""
    trees, clocks = graph_replicas(3, "or", "op", connect, "shortest", repr_name="edge")
    r1, r2, r3 = trees
    for op in r1.gen_add("a", "root", clocks[0]), r1.gen_add("b", "root", clocks[0]):
        r2.apply_remote(op)
        r3.apply_remote(op)
    ops = [r1.gen_add("b", "a", clocks[0]), r2.gen_add("a", "b", clocks[1])]
    r3.gen_rmv("a", clocks[2])
    r3.gen_rmv("b", clocks[2])
    r3.lookup()
    for op in ops:
        r3.apply_remote(op)
    return r3


# payload diffs the scripts above do not reach: one per clause of
# GraphTree._patch, which refuses each, and a cycle of added nodes, which
# the patch leaves out as every policy does
GRAPH_DIFFS = {
    "edge tree: a lost edge into a node with another in-edge": lost_edge_with_a_hidden_in_edge_left,
    "a new edge into the root": edge_into_the_root,
    "graph tree: a lost edge into a node that stays live": lost_edge_into_a_node_that_stays_live,
    "a new history edge that is not live": dead_edge_into_a_revived_node,
    "an added node that is a history source": readded_source_of_a_dropped_node,
    **{
        f"a cycle of added nodes under {connect}": partial(cycle_of_added_nodes, connect)
        for connect in ("skip", "reappear", "root", "compact")
    },
}


@pytest.mark.parametrize("diff", GRAPH_DIFFS)
def test_graph_patches_equal_a_fresh_build_on_rare_payload_diffs(diff):
    tree = GRAPH_DIFFS[diff]()
    assert tree._basis is not None  # the last lookup left a tree to patch
    assert same_tree(tree.lookup(), tree._build_lookup())


# one action on a word tree: the replica, what it does, and the numbers
# that pick its path, its atom and its peer
WORD_STEPS = st.tuples(
    st.integers(0, 2),
    st.sampled_from(["add", "add", "rmv", "readd", "exchange", "sync"]),
    st.integers(0, 63),
    st.sampled_from("abc"),
    st.integers(1, 2),
)


def word_action(sim: Simulation, step) -> tuple:
    """The Simulation action a drawn step stands for.  Paths are picked
    among every shown path, inner paths and ghosts included, so removals
    cut inner paths, adds land under paths a peer has removed, and a
    readd adds a ghost's own path again."""
    r, verb, pick, atom, hop = step
    rid = sim.rids[r]
    if verb == "sync":
        return ("sync",)
    if verb == "exchange":
        peer = sim.rids[(r + hop) % len(sim.rids)]
        return (rid, "deliver" if sim.combo.flavor == "op" else "merge", peer)
    insts = list(sim.replicas[rid].tree.lookup().instances.values())
    if verb == "readd":
        ghosts = [inst for inst in insts if inst.ghost]
        if ghosts:
            inst = ghosts[pick % len(ghosts)]
            return (rid, "add", inst.label, render(Path(inst.parent)))
        verb = "add"
    if verb == "rmv" and insts:
        return (rid, "rmv", render(insts[pick % len(insts)].key))
    parents = [Path()] + [inst.key for inst in insts]
    return (rid, "add", atom, render(parents[pick % len(parents)]))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["or", "lww", "c", "2p", "g"]),
    st.sampled_from(["op", "state"]),
    st.sampled_from(["skip", "reappear"]),
    st.lists(WORD_STEPS, min_size=10, max_size=40),
)
def test_patched_word_trees_equal_a_fresh_build(kind, flavor, connect, steps):
    combo = ComboSpec("word", kind, flavor, connect, None, None)
    sim = Simulation(combo, 3, 0)
    # every replica starts from the same inner paths to cut and grow under
    sim.run(
        [("r1", "add", "a", "/"), ("r1", "add", "b", "/a"), ("r1", "add", "c", "/a/b"), ("sync",)]
    )
    for step in steps:
        action = word_action(sim, step)
        sim.apply(action)
        assert_lookups_are_builds(sim, action)


def assert_lookups_are_builds(sim: Simulation, action) -> None:
    """Each replica's memoized lookup is the tree a fresh build makes."""
    for rep in sim.replicas.values():
        assert same_tree(rep.tree.lookup(), rep.tree._build_lookup()), action


# r1 cuts /a while r2 grows /a/b/x, so r1 then holds a live path below dead
# ones: a ghost under reappear, a dropped path under skip
CUT_AND_GROW = [
    ("r1", "add", "a", "/"),
    ("r1", "add", "b", "/a"),
    ("sync",),
    ("r1", "rmv", "/a"),
    ("r2", "add", "x", "/a/b"),
    ("r1", "deliver", "r2"),
]
WORD_EDGE_SCRIPTS = {
    # regrow the dead prefixes: a re-add of a ghost, or of a prefix of a
    # dropped path, which brings the dropped path back
    "regrow": CUT_AND_GROW + [("r1", "add", "a", "/"), ("r1", "add", "b", "/a")],
    # grow below a path r1 drops, remove a live path under a ghost, and
    # remove the paths r1 drops
    "under_dead": CUT_AND_GROW
    + [
        ("r2", "add", "y", "/a/b/x"),
        ("r1", "deliver", "r2"),
        ("r1", "rmv", "/a/b/x"),
        ("r2", "rmv", "/a/b/x"),
        ("r1", "deliver", "r2"),
    ],
}


@pytest.mark.parametrize("script", WORD_EDGE_SCRIPTS)
@pytest.mark.parametrize("connect", ["skip", "reappear"])
@pytest.mark.parametrize("flavor", ["op", "state"])
@pytest.mark.parametrize("kind", ["or", "lww", "c"])
def test_word_patch_edge_cases_equal_a_fresh_build(kind, flavor, connect, script):
    sim = Simulation(ComboSpec("word", kind, flavor, connect, None, None), 3, 0)
    for action in WORD_EDGE_SCRIPTS[script]:
        if flavor == "state" and action[1:2] == ("deliver",):
            action = (action[0], "merge") + action[2:]
        sim.execute(action)
        assert_lookups_are_builds(sim, action)


def test_only_unpositioned_skip_and_reappear_word_trees_patch(monkeypatch):
    made = count_lookups(monkeypatch)
    tried = Counter()
    for combo in legal_combos():
        if combo.repr_name != "word":
            continue
        made.clear()
        scn = random_scenario(combo, seed=42, n_ops=12)
        sim = Simulation(combo, scn.replicas, scn.seed)
        for action in scn.script:
            sim.execute(action)
        patchable = combo.pi_mode is None and combo.connect_policy in ("skip", "reappear")
        assert made["build"] > 0
        if not patchable:
            assert made["patch"] == made["fail"] == 0, combo.label()
        tried[patchable] += made["patch"] + made["fail"]
    assert tried[True] > 0


def test_dump_and_children_call_no_order_key(monkeypatch):
    trees = list(final_lookups(42))
    assert sum(len(group) > 1 for lt in trees for group in lt.kids.values()) > 0
    calls = 0
    order_key = Instance.order_key

    def counted(inst):
        nonlocal calls
        calls += 1
        return order_key(inst)

    monkeypatch.setattr(Instance, "order_key", counted)
    for lt in trees:
        lt.dump()
        for key in [(), *lt.instances]:
            lt.children(key)
    assert calls == 0


def cached_elements():
    upi = Upi(((7, "r1", 1), (3, "r2", 4)))
    w = WootrTriple("x", WootrTriple("a", BEGIN, END), END)
    return [
        upi,
        w,
        PositionedNode("n", upi),
        Path(("a", PositionedNode("b", upi), w)),
    ]


@pytest.mark.parametrize("make", range(len(cached_elements())))
def test_cached_canonical_keys_do_not_change_identity(make):
    cached, fresh = cached_elements()[make], cached_elements()[make]
    text, key = render(cached), sort_key(cached)
    assert render(cached) is text and sort_key(cached) == key
    assert fresh == cached and hash(fresh) == hash(cached)
    assert repr(fresh) == repr(cached)
    assert render(fresh) == text and sort_key(fresh) == key


def test_edge_identity_is_cached_per_edge():
    e = EdgeInfo("a", "b", 3, Upi(((1, "r1", 1),)))
    assert e.identity() is e.identity()
    assert e == EdgeInfo("a", "b", 3, Upi(((1, "r1", 1),)))


class Name(str):
    pass


class Pair(tuple):
    pass


def test_sort_key_fast_paths_keep_the_tagged_order():
    assert sort_key("b") == ("s", "b") == sort_key(Name("b"))
    assert sort_key(("a", 1)) == ("t", ("s", "a"), ("i", 1)) == sort_key(Pair(("a", 1)))
    assert sort_key(Path(("a",))) == ("p", ("s", "a"))
    assert sort_key(True) == ("b", True)
    assert render(Name("n")) == "n"
    mixed = [("b",), "a", 2, Path(("a",)), None, False]
    assert sorted(mixed, key=sort_key) == [None, False, 2, Path(("a",)), "a", ("b",)]


def test_word_instances_sort_the_same_with_cached_path_keys():
    tree = WordTree("or", "op", "skip")
    clock = ReplicaClock("r1")
    for atom, parent in (("b", "/"), ("a", "/"), ("c", "/a"), ("a", "/a")):
        tree.gen_add(atom, parse_path(parent), clock)
    assert tree.lookup().dump() == "/\n  a\n    a\n    c\n  b"
    assert reference_dump(tree.lookup()) == tree.lookup().dump()
    # instances are keyed by the payload's own paths, so their cached keys
    # outlive any one lookup
    payload = {p: p for p in tree.paths.lookup()}
    assert all(key is payload[key] for key in tree.lookup().instances)
