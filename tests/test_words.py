"""Word trees: connection policies on path sets, preconditions, the memoized lookup."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecrdt.paths as paths
from treecrdt.clocks import ReplicaClock
from treecrdt.errors import IllegalCombo, PreconditionViolation
from treecrdt.graph import GraphTree
from treecrdt.paths import EPSILON, WordTree, path_images
from treecrdt.policies import CONNECT_POLICIES
from treecrdt.render import Path
from treecrdt.sets import FLAVORS, KINDS

from helpers import REPLICAS, TreeGroup, is_prefix_closed, parse_path, reference_path_images

P = Path  # Path("abcd") splits into single-character atoms

EXAMPLE_LS = {P(""), P("a"), P("ab"), P("ac"), P("abcd"), P("abcde"), P("abcdefg")}


def fresh_clock(name: str = "r1") -> ReplicaClock:
    return ReplicaClock(name, seed=1)


def shown_paths(live, policy):
    """The prefix-closed path set a word tree holding exactly live shows."""
    tree = WordTree("g", "state", policy)
    clock = fresh_clock()
    for p in sorted(set(live) - {EPSILON}, key=Path.order_key):
        tree.paths.local_add(p, clock)
    return set(tree.lookup().instances) | {EPSILON}


def assert_memo_fresh(tree):
    """The memoized lookup equals a build from the current payload."""
    assert tree.lookup() == tree._build_lookup()


# --- connection policies on raw path sets ---


@pytest.mark.parametrize(
    "policy,expected",
    [
        ("skip", {P(""), P("a"), P("ab"), P("ac")}),
        ("root", {P(""), P("a"), P("ab"), P("ac"), P("d"), P("de"), P("g")}),
        (
            "compact",
            {P(""), P("a"), P("ab"), P("ac"), P("abd"), P("abde"), P("abdeg")},
        ),
        ("reappear", EXAMPLE_LS | {P("abc"), P("abcdef")}),
    ],
)
def test_connection_policy_examples(policy, expected):
    assert shown_paths(EXAMPLE_LS, policy) == expected


@pytest.mark.parametrize("policy", CONNECT_POLICIES)
def test_empty_set_keeps_only_the_root(policy):
    assert shown_paths(set(), policy) == {EPSILON}


def test_unknown_policy_rejected():
    with pytest.raises(IllegalCombo):
        path_images({P("a")}, "umbrella")


def test_interleaved_gaps():
    live = {P("a"), P("abc"), P("abcd"), P("abcdef")}
    assert shown_paths(live, "root") == {P(""), P("a"), P("c"), P("cd"), P("f")}
    assert shown_paths(live, "compact") == {
        P(""),
        P("a"),
        P("ac"),
        P("acd"),
        P("acdf"),
    }


def test_colliding_images_fold_into_one_path():
    live = {P("a"), P("ba")}
    assert shown_paths(live, "root") == {P(""), P("a")}
    assert shown_paths(live, "compact") == {P(""), P("a")}


def test_reappear_build_walks_each_shown_path_once(monkeypatch):
    # 200 live leaves under a 200-deep chain of dead paths
    chain = Path(f"c{i}" for i in range(200))
    leaves = [chain.child(f"l{i}") for i in range(200)]
    tree = WordTree("g", "state", "reappear")
    clock = fresh_clock()
    for leaf in leaves:
        tree.paths.local_add(leaf, clock)
    images = parents = 0
    real_parent = Path.parent

    def counted_images(*args, **kwargs):
        nonlocal images
        images += 1
        return path_images(*args, **kwargs)

    def counted_parent(self):
        nonlocal parents
        parents += 1
        return real_parent(self)

    monkeypatch.setattr(paths, "path_images", counted_images)
    monkeypatch.setattr(Path, "parent", counted_parent)
    lt = tree._build_lookup()
    ghosts = sum(inst.ghost for inst in lt.instances.values())
    assert (len(lt.instances), ghosts) == (400, 200)
    assert images == 0
    assert parents <= 2 * len(lt.instances)
    assert lt.instances[leaves[0]].parent == chain


path_sets = st.sets(
    st.lists(st.sampled_from("ab"), min_size=1, max_size=6).map(Path), max_size=12
)


@given(path_sets)
@settings(max_examples=120, deadline=None)
def test_policy_properties(live):
    base = set(live) | {EPSILON}
    skip_oracle = {
        p for p in base if all(Path(p[:k]) in base for k in range(len(p)))
    }
    closure = {Path(p[:k]) for p in base for k in range(len(p) + 1)}
    assert shown_paths(live, "skip") == skip_oracle
    assert shown_paths(live, "reappear") == closure
    for policy in CONNECT_POLICIES:
        out = shown_paths(live, policy)
        assert is_prefix_closed(out)
        assert skip_oracle <= out


@given(st.sets(st.lists(st.sampled_from("abc"), min_size=1, max_size=7).map(Path), max_size=16))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_path_images_match_the_prefix_probing_formula(live):
    for policy in CONNECT_POLICIES:
        assert path_images(live, policy) == reference_path_images(live, policy)


@pytest.mark.parametrize("policy", CONNECT_POLICIES)
def test_path_images_build_a_few_paths_per_path_on_a_deep_chain(monkeypatch, policy):
    # a 400-deep chain of live paths whose link at depth 200 is dead
    chain = [Path(f"c{i}" for i in range(k)) for k in range(1, 401)]
    del chain[199]
    built = 0

    def counted_init(self, *args):
        nonlocal built
        built += 1

    monkeypatch.setattr(Path, "__init__", counted_init)
    images = path_images(chain, policy)
    assert len(images) == 400
    assert built <= 2 * len(images)


def test_path_literals_round_trip():
    assert parse_path("/a/b") == P("ab")
    assert parse_path("/") == EPSILON
    assert parse_path("") == EPSILON
    assert P("ab").render() == "/a/b"
    assert EPSILON.render() == "/"


# --- sequential tree behavior ---


def test_sequential_adds_build_the_naive_tree():
    tree = WordTree("or", "op")
    clock = fresh_clock()
    tree.gen_add("a", EPSILON, clock)
    tree.gen_add("b", P("a"), clock)
    tree.gen_add("c", P("a"), clock)
    tree.gen_add("d", P("ab"), clock)
    assert tree.lookup().dump() == "/\n  a\n    b\n      d\n    c"


def test_add_preconditions():
    tree = WordTree("or", "op")
    clock = fresh_clock()
    tree.gen_add("a", EPSILON, clock)
    with pytest.raises(PreconditionViolation):
        tree.gen_add("a", EPSILON, clock)  # already present
    with pytest.raises(PreconditionViolation):
        tree.gen_add("b", P("x"), clock)  # parent missing
    with pytest.raises(ValueError):
        tree.gen_add("a/b", EPSILON, clock)


def test_rmv_preconditions_and_subtree_payload():
    tree = WordTree("or", "op")
    clock = fresh_clock()
    with pytest.raises(PreconditionViolation):
        tree.gen_rmv(EPSILON, clock)
    tree.gen_add("a", EPSILON, clock)
    tree.gen_add("b", P("a"), clock)
    tree.gen_add("c", P("a"), clock)
    with pytest.raises(PreconditionViolation):
        tree.gen_rmv(P("x"), clock)
    op = tree.gen_rmv(P("a"), clock)
    assert [sub.element for sub in op.node_ops] == [P("a"), P("ab"), P("ac")]
    assert tree.lookup().dump() == "/"


def test_rmv_leaf_keeps_the_rest():
    tree = WordTree("lww", "state")
    clock = fresh_clock()
    tree.gen_add("a", EPSILON, clock)
    tree.gen_add("b", P("a"), clock)
    tree.gen_rmv(P("ab"), clock)
    assert tree.lookup().dump() == "/\n  a"


def test_grow_only_tree_cannot_remove():
    tree = WordTree("g", "op")
    clock = fresh_clock()
    tree.gen_add("a", EPSILON, clock)
    with pytest.raises(PreconditionViolation):
        tree.gen_rmv(P("a"), clock)


def test_two_phase_path_never_returns():
    tree = WordTree("2p", "state")
    clock = fresh_clock()
    tree.gen_add("a", EPSILON, clock)
    tree.gen_rmv(P("a"), clock)
    with pytest.raises(PreconditionViolation):
        tree.gen_add("a", EPSILON, clock)
    assert tree.lookup().dump() == "/"


def test_observed_remove_path_can_return():
    tree = WordTree("or", "op")
    clock = fresh_clock()
    tree.gen_add("a", EPSILON, clock)
    tree.gen_rmv(P("a"), clock)
    tree.gen_add("a", EPSILON, clock)
    assert tree.lookup().dump() == "/\n  a"


def test_rmv_under_compact_removes_the_relocated_sources():
    # ab and abc die concurrently with the add of abcd, so abcd shows at
    # /a/d; removing it from there must remove the real path behind the image
    r1 = WordTree("or", "op", "compact")
    r2 = WordTree("or", "op", "compact")
    c1, c2 = fresh_clock("r1"), fresh_clock("r2")
    for atom, parent in (("a", ""), ("b", "a"), ("c", "ab")):
        r2.apply_remote(r1.gen_add(atom, P(parent), c1))
    rmv_ab = r1.gen_rmv(P("ab"), c1)
    add_abcd = r2.gen_add("d", P("abc"), c2)
    r2.apply_remote(rmv_ab)
    r1.apply_remote(add_abcd)
    for tree in (r1, r2):
        assert tree.live_paths() == {P("a"), P("abcd")}
        assert tree.lookup().dump() == "/\n  a\n    d"
    op = r1.gen_rmv(P("ad"), c1)
    assert [sub.element for sub in op.node_ops] == [P("abcd")]
    assert r1.lookup().dump() == "/\n  a"


@pytest.mark.parametrize("policy", ["root", "compact"])
def test_relocated_path_shows_in_the_order_of_the_path_behind_it(policy):
    # z dies concurrently with the add of zx, so zx shows at /x; its
    # instance's node is zx itself, which sorts after the sibling y
    r1 = WordTree("or", "op", policy)
    r2 = WordTree("or", "op", policy)
    c1, c2 = fresh_clock("r1"), fresh_clock("r2")
    for atom in ("z", "y"):
        r2.apply_remote(r1.gen_add(atom, EPSILON, c1))
    rmv_z = r1.gen_rmv(P("z"), c1)
    add_zx = r2.gen_add("x", P("z"), c2)
    r2.apply_remote(rmv_z)
    r1.apply_remote(add_zx)
    for tree in (r1, r2):
        assert tree.live_paths() == {P("y"), P("zx")}
        assert tree.lookup().dump() == "/\n  y\n  x"


# --- the worked example as a causal three-replica history ---


def build_example_scenario(policy):
    trees = {r: WordTree("or", "op", policy) for r in REPLICAS}
    clocks = {r: ReplicaClock(r, seed=3) for r in REPLICAS}

    def deliver(op, *targets):
        for t in targets:
            trees[t].apply_remote(op)
            stamp = op.max_stamp()
            if stamp is not None:
                clocks[t].observe(stamp)

    t1, t2, t3 = (trees[r] for r in REPLICAS)
    c1, c2, c3 = (clocks[r] for r in REPLICAS)
    for atom, parent in (("a", ""), ("b", "a"), ("c", "a"), ("c", "ab")):
        deliver(t1.gen_add(atom, P(parent), c1), "r2", "r3")
    a5 = t2.gen_add("d", P("abc"), c2)
    a6 = t2.gen_add("e", P("abcd"), c2)
    deliver(a5, "r3")
    deliver(a6, "r3")
    a7 = t3.gen_add("f", P("abcde"), c3)
    deliver(a7, "r2")
    a8 = t3.gen_add("g", P("abcdef"), c3)
    # r2 has not seen abcdefg and r1 has seen nothing below abc, so both
    # removals carry exactly one path
    r5 = t2.gen_rmv(P("abcdef"), c2)
    r6 = t1.gen_rmv(P("abc"), c1)
    assert [sub.element for sub in r5.node_ops] == [P("abcdef")]
    assert [sub.element for sub in r6.node_ops] == [P("abc")]
    for op, targets in ((a5, ("r1",)), (a6, ("r1",)), (a7, ("r1",)),
                        (a8, ("r1", "r2")), (r5, ("r1", "r3")), (r6, ("r2", "r3"))):
        deliver(op, *targets)
    return trees


@pytest.mark.parametrize(
    "policy,dump",
    [
        ("skip", "/\n  a\n    b\n    c"),
        ("root", "/\n  a\n    b\n    c\n  d\n    e\n  g"),
        ("compact", "/\n  a\n    b\n      d\n        e\n          g\n    c"),
        (
            "reappear",
            "/\n  a\n    b\n      c ~\n        d\n          e\n            f ~\n"
            "              g\n    c",
        ),
    ],
)
def test_example_scenario_per_policy(policy, dump):
    trees = build_example_scenario(policy)
    for tree in trees.values():
        assert tree.live_paths() == EXAMPLE_LS - {EPSILON}
        assert tree.lookup().dump() == dump
        tree.lookup().validate()


# --- convergence across kinds, flavors, and policies ---


@pytest.mark.parametrize("policy", CONNECT_POLICIES)
@pytest.mark.parametrize("kind", KINDS)
def test_scripted_histories_converge(kind, policy):
    for flavor in FLAVORS:
        group = TreeGroup(lambda: WordTree(kind, flavor, policy), seed=7)
        rng = random.Random(f"words-{kind}-{policy}-{flavor}")
        for step in range(24):
            r = rng.choice(REPLICAS)
            keys = sorted(group.trees[r].lookup().instances, key=Path.order_key)
            if kind == "g" or not keys or rng.random() < 0.65:
                parent = Path(rng.choice([EPSILON] + keys))
                group.add(r, rng.choice("abcd"), parent)
            else:
                group.rmv(r, Path(rng.choice(keys)))
            if step % 8 == 7:
                group.sync()
        group.sync()
        assert len(set(group.dumps().values())) == 1
        assert len({t.canonical() for t in group.trees.values()}) == 1
        for tree in group.trees.values():
            tree.lookup().validate()


def test_two_phase_word_tracks_graph_on_isomorphic_script():
    graphs = TreeGroup(lambda: GraphTree("2p", "op"), seed=2)
    words = TreeGroup(lambda: WordTree("2p", "op"), seed=2)
    rng = random.Random("2w-parity")
    paths = {"root": EPSILON}
    counter = itertools.count()

    def compare():
        for rep in REPLICAS:
            gd = graphs.dumps()[rep].splitlines()
            wd = words.dumps()[rep].splitlines()
            assert gd[0] == "root" and wd[0] == "/"
            assert gd[1:] == wd[1:]

    for step in range(36):
        r = rng.choice(REPLICAS)
        visible = sorted(graphs.trees[r].lookup().nodes_present())
        if not visible or rng.random() < 0.6:
            m = rng.choice(["root"] + visible)
            n = f"n{next(counter)}"
            gop = graphs.add(r, n, m)
            wop = words.add(r, n, paths[m])
            if gop is not None:
                paths[n] = paths[m].child(n)
        else:
            n = rng.choice(visible)
            gop = graphs.rmv(r, n)
            wop = words.rmv(r, paths[n])
        assert (gop is None) == (wop is None)
        if step % 9 == 8:
            graphs.sync()
            words.sync()
            compare()
    graphs.sync()
    words.sync()
    compare()
    assert len(set(words.dumps().values())) == 1


# --- the memoized lookup under the monotone policies ---


def test_skip_cache_drops_orphan_and_revives_it():
    r1 = WordTree("or", "op")
    r2 = WordTree("or", "op")
    c1, c2 = fresh_clock("r1"), fresh_clock("r2")
    op_a = r1.gen_add("a", EPSILON, c1)
    op_ab = r1.gen_add("b", P("a"), c1)
    r2.apply_remote(op_a)
    rmv_a = r2.gen_rmv(P("a"), c2)  # concurrent with the add of /a/b
    r2.apply_remote(op_ab)
    assert r2.lookup().dump() == "/"  # the orphan add shows nothing
    assert_memo_fresh(r2)
    r1.apply_remote(rmv_a)
    op_back = r1.gen_add("a", EPSILON, c1)  # fresh tag revives the prefix
    r2.apply_remote(op_back)
    assert r2.lookup().dump() == "/\n  a\n    b"
    assert_memo_fresh(r2)


def test_reappear_cache_marks_unmarks_and_prunes_ghosts():
    r1 = WordTree("or", "op", "reappear")
    r2 = WordTree("or", "op", "reappear")
    c1, c2 = fresh_clock("r1"), fresh_clock("r2")
    ops = [
        r1.gen_add("a", EPSILON, c1),
        r1.gen_add("b", P("a"), c1),
        r1.gen_add("c", P("ab"), c1),
    ]
    for op in ops:
        r2.apply_remote(op)
    rmv_ab = r1.gen_rmv(P("ab"), c1)
    add_abcd = r2.gen_add("d", P("abc"), c2)  # concurrent with the removal
    r2.apply_remote(rmv_ab)
    r1.apply_remote(add_abcd)
    for tree in (r1, r2):
        assert tree.lookup().dump() == "/\n  a\n    b ~\n      c ~\n        d"
        assert_memo_fresh(tree)
    back = r1.gen_add("b", P("a"), c1)  # /a/b is only a ghost, so it may regrow
    r2.apply_remote(back)
    assert r2.lookup().dump() == "/\n  a\n    b\n      c ~\n        d"
    assert_memo_fresh(r2)
    gone = r2.gen_rmv(P("ab"), c2)
    r1.apply_remote(gone)
    for tree in (r1, r2):
        assert tree.lookup().dump() == "/\n  a"  # no ghost outlives its live descendants
        assert_memo_fresh(tree)


def test_names_leave_ghosts_out_and_resolve_walks_through_them():
    r1 = WordTree("or", "op", "reappear")
    r2 = WordTree("or", "op", "reappear")
    c1, c2 = fresh_clock("r1"), fresh_clock("r2")
    for op in (r1.gen_add("a", EPSILON, c1), r1.gen_add("b", P("a"), c1)):
        r2.apply_remote(op)
    r2.gen_add("c", P("ab"), c2)  # concurrent with the removal
    r2.apply_remote(r1.gen_rmv(P("ab"), c1))
    assert r2.lookup().dump() == "/\n  a\n    b ~\n      c"
    assert r2.names() == ["/a", "/a/b/c"]
    assert r2.resolve("/a/b/c") == P("abc")
    assert r2.resolve("/a/b") == P("ab")  # a ghost still holds its descendants
    assert r2.resolve("/") == EPSILON
    with pytest.raises(PreconditionViolation, match="/a/c is not in the tree"):
        r2.resolve("/a/c")


@pytest.mark.parametrize("policy", ("skip", "reappear"))
@pytest.mark.parametrize("kind", KINDS)
def test_incremental_matches_batch_stepwise(kind, policy):
    for flavor in FLAVORS:
        rng = random.Random(f"incr-{kind}-{policy}-{flavor}")
        trees = {r: WordTree(kind, flavor, policy) for r in REPLICAS}
        clocks = {r: ReplicaClock(r, seed=5) for r in REPLICAS}
        log = []
        applied = {r: 0 for r in REPLICAS}

        def check(r):
            assert_memo_fresh(trees[r])

        def drain(r):
            for origin, op in log[applied[r]:]:
                if origin != r:
                    trees[r].apply_remote(op)
                    stamp = op.max_stamp()
                    if stamp is not None:
                        clocks[r].observe(stamp)
                    check(r)
            applied[r] = len(log)

        for _ in range(40):
            r = rng.choice(REPLICAS)
            keys = sorted(trees[r].lookup().instances, key=Path.order_key)
            try:
                if kind == "g" or not keys or rng.random() < 0.6:
                    parent = Path(rng.choice([EPSILON] + keys))
                    op = trees[r].gen_add(rng.choice("abc"), parent, clocks[r])
                else:
                    op = trees[r].gen_rmv(Path(rng.choice(keys)), clocks[r])
            except PreconditionViolation:
                op = None
            check(r)
            if flavor == "op":
                if op is not None:
                    log.append((r, op))
                if rng.random() < 0.5:
                    drain(rng.choice(REPLICAS))
            elif rng.random() < 0.4:
                t, u = rng.sample(REPLICAS, 2)
                trees[t].merge(trees[u], clocks[t])
                check(t)
        if flavor == "op":
            for r in REPLICAS:
                drain(r)
        else:
            for _ in range(2):
                for t in REPLICAS:
                    for u in REPLICAS:
                        if u != t:
                            trees[t].merge(trees[u], clocks[t])
                            check(t)
        assert len({trees[r].lookup().dump() for r in REPLICAS}) == 1
