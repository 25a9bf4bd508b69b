"""Recursive sequence elements: structural identity, ordering, and removal."""

import pickle
import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CountingAtom,
    TombstoneSequence,
    assert_unpickled_hash,
    gen_insert_at,
    gen_remove,
)
from treecrdt.clocks import ReplicaClock, Tag
from treecrdt.errors import IllegalCombo, InvalidInterval, PreconditionViolation
from treecrdt.graph import TreeOp
from treecrdt.harness import make_tree, parse_combo
from treecrdt.render import Path
from treecrdt.sets import ADD, SetOp
from treecrdt.wootr import (
    BEGIN,
    END,
    WootrSequence,
    WootrTriple,
    _order_live,
    wootr_closure,
    wootr_order,
)


def clock(rid="r1", seed=0):
    return ReplicaClock(rid, seed)


# --- the two-site example ---


def test_two_site_example():
    c1, c2 = clock("r1"), clock("r2")
    s1 = WootrSequence("or", "op")
    s2 = WootrSequence("or", "op")
    a = WootrTriple("a", BEGIN, END)
    op_a = s1.gen_insert("a", BEGIN, END, c1)
    op_b = s1.gen_insert("b", a, END, c1)
    op_c = s2.gen_insert("c", BEGIN, END, c2)
    s2.apply(op_a)
    s2.apply(op_b)
    s1.apply(op_c)
    b = WootrTriple("b", a, END)
    c = WootrTriple("c", BEGIN, END)
    assert s1.elements.lookup() == {a, b, c}
    assert s1.text() == "abc"
    assert s2.text() == "abc"


# --- structural identity ---


def test_concurrent_identical_inserts_collapse():
    c1, c2 = clock("r1"), clock("r2")
    s1 = WootrSequence("or", "op")
    s2 = WootrSequence("or", "op")
    o1 = s1.gen_insert("x", BEGIN, END, c1)
    o2 = s2.gen_insert("x", BEGIN, END, c2)
    s1.apply(o2)
    s2.apply(o1)
    assert s1.text() == "x"
    assert len(s1.order()) == 1
    assert s1.order() == s2.order()


def test_reintroduction_is_the_same_element():
    c = clock()
    s = WootrSequence("or", "op")
    s.gen_insert("x", BEGIN, END, c)
    x = s.order()[0]
    gen_remove(s, x, c)
    assert s.text() == ""
    s.gen_insert("x", BEGIN, END, c)
    assert s.order() == [x]


# --- no tombstones: removed elements still anchor their neighbours ---


def test_insert_relative_to_concurrently_removed_element():
    c1, c2 = clock("r1"), clock("r2")
    s1 = WootrSequence("lww", "op")
    s2 = WootrSequence("lww", "op")
    op_a = s1.gen_insert("a", BEGIN, END, c1)
    s2.apply(op_a)
    a = s1.order()[0]
    op_rm = gen_remove(s1, a, c1)
    op_b = s2.gen_insert("b", a, END, c2)
    op_c = s2.gen_insert("c", BEGIN, a, c2)
    s1.apply(op_b)
    s1.apply(op_c)
    s2.apply(op_rm)
    assert s1.text() == s2.text() == "cb"
    assert a not in s1.order()


def test_closure_pulls_in_references():
    a = WootrTriple("a", BEGIN, END)
    b = WootrTriple("b", a, END)
    assert wootr_closure([b]) == {a, b}
    assert wootr_order([b]) == [b]


def test_order_ignores_input_order():
    a = WootrTriple("a", BEGIN, END)
    b = WootrTriple("b", a, END)
    c = WootrTriple("c", BEGIN, a)
    assert wootr_order([b, c, a]) == wootr_order([a, b, c]) == [c, a, b]


# --- the structural hash is computed once per triple ---


@contextmanager
def deadline(seconds=10):
    """Fail instead of hanging where an alarm signal is available."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def nested_history(depth):
    """A valid history in which each element goes between the two before
    it, so every element reaches the first along exponentially many paths."""
    older, newer = BEGIN, WootrTriple(0, BEGIN, END)
    history = [newer]
    for n in range(1, depth):
        pair = (older, newer) if n % 2 else (newer, older)
        older, newer = newer, WootrTriple(n, *pair)
        history.append(newer)
    return history


def test_structurally_equal_triples_hash_equal():
    def build():
        a = WootrTriple("a", BEGIN, END)
        return WootrTriple("b", a, WootrTriple("c", a, END))

    one, two = build(), build()
    assert one is not two
    assert one == two and hash(one) == hash(two)
    assert len({one, two}) == 1


def test_hash_is_the_field_tuple_hash():
    a = WootrTriple("a", BEGIN, END)
    for t in (a, WootrTriple("b", a, END), WootrTriple(("t", 1), BEGIN, a)):
        assert hash(t) == hash((t.atom, t.prev, t.next))


def test_unpickled_triple_hashes_under_the_loading_hash_seed():
    a = WootrTriple("a", BEGIN, END)
    assert_unpickled_hash(WootrTriple("b", a, END), "(v.atom, v.prev, v.next)")


def test_nested_history_is_a_valid_sequence():
    history = nested_history(12)
    s = WootrSequence("or", "op")
    c = clock()
    for e in history:
        s.gen_insert(e.atom, e.prev, e.next, c)
    assert s.elements.lookup() == set(history)


def test_deep_nested_history_hashes_in_linear_time():
    # never rendered: the canonical text of the deepest triple is
    # exponentially long
    history = nested_history(60)
    with deadline():
        assert len(set(history)) == 60
        assert wootr_closure([history[-1]]) == set(history)
        assert history[-1].depth == 60


def test_typing_at_the_end_orders_a_deep_chain():
    # each triple goes after the one before it, so the chain nests once per
    # element: neither its depth nor its text may be found by recursion
    chain = [WootrTriple(0, BEGIN, END)]
    for n in range(1, 1500):
        chain.append(WootrTriple(n, chain[-1], END))
    assert chain[-1].depth == 1500
    with deadline():
        assert wootr_order(reversed(chain)) == chain


def test_equal_deep_chains_built_apart_compare_equal():
    # no triple is shared between the two chains, so equality must walk
    # every level, and a recursive compare would go 1,500 calls deep
    def chain(atoms):
        line = [WootrTriple(atoms[0], BEGIN, END)]
        for atom in atoms[1:]:
            line.append(WootrTriple(atom, line[-1], END))
        return line

    a, b = chain(range(1500)), chain(range(1500))
    other = chain([*range(1499), "z"])
    with deadline():
        assert a[-1] is not b[-1] and a[-1] == b[-1]
        assert {a[-1]} & {b[-1]} == {a[-1]}
        assert a[-1] != other[-1] and other[-1] != b[-1]
        # a nested history refers to each triple along many paths, and
        # each pair of triples is compared once
        assert nested_history(60)[-1] == nested_history(60)[-1]
    assert a[0] != BEGIN and a[0] != "a" and a[0] == WootrTriple(0, BEGIN, END)


def test_order_hashes_each_triple_at_most_once():
    # hashing a triple hashes its atom once and reads its neighbours' hashes
    CountingAtom.hashes = 0
    rng = random.Random(200)
    line = [BEGIN, END]
    for n in range(200):
        i = rng.randrange(len(line) - 1)
        line.insert(i + 1, WootrTriple(CountingAtom(f"a{n}"), line[i], line[i + 1]))
    assert wootr_order(line[1:-1]) == line[1:-1]
    assert 0 < CountingAtom.hashes <= 200


# --- a previous element that does not precede the next one ---


X = WootrTriple("x", BEGIN, END)


@pytest.mark.parametrize(
    "bad",
    [WootrTriple("z", X, X), WootrTriple("z", END, BEGIN), WootrTriple("z", "stray", END)],
    ids=["empty", "reversed", "unknown"],
)
def test_order_refuses_a_window_that_is_not_open(bad):
    with deadline(), pytest.raises(InvalidInterval):
        wootr_order([X, bad])


def test_forged_empty_window_op_raises_at_lookup():
    combo = parse_combo("word or op skip - wootr".split())
    sender, receiver = make_tree(combo), make_tree(combo)
    receiver.apply_remote(sender.gen_add("x", Path(()), clock("r1")))
    assert [key[-1] for key in receiver.lookup().instances] == [X]
    forged = Path((WootrTriple("z", X, X),))
    op = SetOp(ADD, forged, tag=Tag("r2", 1))
    receiver.apply_remote(TreeOp(ADD, forged, Path(()), (op,)))
    with deadline(), pytest.raises(InvalidInterval):
        receiver.lookup()


# --- preconditions and combos ---


def test_insert_needs_ordered_neighbours():
    c = clock()
    s = WootrSequence("or", "op")
    s.gen_insert("a", BEGIN, END, c)
    a = s.order()[0]
    with pytest.raises(PreconditionViolation):
        s.gen_insert("x", END, BEGIN, c)
    with pytest.raises(PreconditionViolation):
        s.gen_insert("x", a, a, c)
    with pytest.raises(PreconditionViolation):
        s.gen_insert("x", WootrTriple("ghost", BEGIN, END), END, c)


def test_remove_missing_element_rejected():
    c = clock()
    s = WootrSequence("or", "op")
    with pytest.raises(PreconditionViolation):
        gen_remove(s, WootrTriple("x", BEGIN, END), c)


@pytest.mark.parametrize("kind", ["g", "2p"])
def test_add_only_kinds_rejected(kind):
    with pytest.raises(IllegalCombo):
        WootrSequence(kind, "op")


def test_insert_at_index_places_atom():
    c = clock()
    s = WootrSequence("or", "op")
    gen_insert_at(s, "b", 0, c)
    gen_insert_at(s, "a", 0, c)
    gen_insert_at(s, "d", 2, c)
    gen_insert_at(s, "c", 2, c)
    assert s.text() == "abcd"
    with pytest.raises(PreconditionViolation):
        gen_insert_at(s, "x", 9, c)


def test_counter_kind_balances_add_remove():
    c1, c2 = clock("r1"), clock("r2")
    s1 = WootrSequence("c", "op")
    s2 = WootrSequence("c", "op")
    op_a = s1.gen_insert("a", BEGIN, END, c1)
    s2.apply(op_a)
    a = s1.order()[0]
    o1 = gen_remove(s1, a, c1)
    o2 = gen_remove(s2, a, c2)
    s1.apply(o2)
    s2.apply(o1)
    assert s1.text() == s2.text() == ""


def test_state_merge_both_directions():
    c1, c2 = clock("r1"), clock("r2")
    s1 = WootrSequence("lww", "state")
    s2 = WootrSequence("lww", "state")
    s1.gen_insert("a", BEGIN, END, c1)
    s2.gen_insert("b", BEGIN, END, c2)
    t1 = s1.copy()
    t1.merge(s2)
    t2 = s2.copy()
    t2.merge(s1)
    assert t1.text() == t2.text() == "ab"


# --- every causal delivery order agrees with the tombstone reference ---


def _legal_orders(n, deps):
    out = []

    def rec(prefix, done):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for i in range(n):
            if i not in done and deps[i] <= done:
                rec(prefix + [i], done | {i})

    rec([], set())
    return out


def test_every_delivery_order_matches_tombstone_reference():
    c1, c2, c3 = clock("r1"), clock("r2"), clock("r3")
    a = WootrTriple("a", BEGIN, END)
    s1 = WootrSequence("or", "op")
    op0 = s1.gen_insert("a", BEGIN, END, c1)
    op1 = s1.gen_insert("b", a, END, c1)
    s2 = WootrSequence("or", "op")
    s2.apply(op0)
    op2 = s2.gen_insert("c", BEGIN, END, c2)
    op3 = gen_remove(s2, a, c2)
    s3 = WootrSequence("or", "op")
    s3.apply(op0)
    op4 = s3.gen_insert("d", BEGIN, a, c3)
    ops = [op0, op1, op2, op3, op4]
    deps = [set(), {0}, {0}, {0, 2}, {0}]

    texts = set()
    orders = _legal_orders(len(ops), deps)
    assert len(orders) > 10
    for order in orders:
        obs = WootrSequence("or", "op")
        ref = TombstoneSequence()
        for i in order:
            obs.apply(ops[i])
            if ops[i].verb == ADD:
                ref.deliver(ops[i].element)
        assert ref.order(obs.elements.lookup()) == obs.order()
        texts.add(obs.text())
    assert texts == {"dbc"}


def _two_replica_history(seed):
    """Two op replicas of a random history with removals, synced at the end;
    each insert goes between two live neighbours, so triples nest."""
    rng = random.Random(seed)
    replicas = ("r1", "r2")
    clocks = {r: ReplicaClock(r, seed) for r in replicas}
    seqs = {r: WootrSequence("or", "op") for r in replicas}
    log = []
    applied = {r: 0 for r in replicas}

    def sync(r):
        for origin, op in log[applied[r]:]:
            if origin != r:
                seqs[r].apply(op)
        applied[r] = len(log)

    for _ in range(14):
        r = rng.choice(replicas)
        s = seqs[r]
        if rng.random() < 0.25:
            sync(r)
            continue
        try:
            if s.order() and rng.random() < 0.3:
                op = gen_remove(s, rng.choice(s.order()), clocks[r])
            else:
                line = s.line()
                i = rng.randrange(len(line) - 1)
                op = s.gen_insert(
                    chr(97 + rng.randrange(6)), line[i], line[i + 1], clocks[r]
                )
        except PreconditionViolation:
            continue
        log.append((r, op))

    for r in replicas:
        sync(r)
    ref = TombstoneSequence()
    for _, op in log:
        if op.verb == ADD:
            ref.deliver(op.element)
    return seqs, ref


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_random_histories_match_tombstone_reference(seed):
    seqs, ref = _two_replica_history(seed)
    assert seqs["r1"].text() == seqs["r2"].text()
    assert ref.order(seqs["r1"].elements.lookup()) == seqs["r1"].order()


# --- the order is memoized per live set ---


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_memoized_order_changes_no_result(seed):
    seqs, ref = _two_replica_history(seed)
    live = seqs["r1"].elements.lookup()
    expected = wootr_order(live)
    assert expected == ref.order(live)
    _order_live.cache_clear()
    got = wootr_order(live)
    assert got == expected
    # a triple's identity is structural: unpickled copies find the entry
    copies = pickle.loads(pickle.dumps(list(live)))
    assert all(c is not e for c in copies for e in live)
    assert wootr_order(copies) == expected
    # each call hands out a fresh list
    got.reverse()
    got.append(X)
    assert wootr_order(live) == expected
    # an exception is never memoized
    at = expected[0] if expected else X
    bad = WootrTriple("z", at, at)
    for _ in range(2):
        with pytest.raises(InvalidInterval):
            wootr_order([*live, bad])
