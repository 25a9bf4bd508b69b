"""Behavior of the five set types in both flavors, plus merge and oracle laws."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SetGroup,
    oracle_membership_ops,
    random_set_script,
    reference_lookup,
    run_set_history,
)
from treecrdt.clocks import LamportStamp, ReplicaClock, Tag
from treecrdt.errors import KindMismatch, PreconditionViolation
from treecrdt.sets import ADD, FLAVORS, RMV, KINDS, SetOp, make_set


def clock(rid="r1"):
    return ReplicaClock(rid)


# --- grow-only ---


def test_gset_add_and_lookup():
    s = make_set("g", "state")
    s.gen_add("a", clock())
    assert s.lookup() == {"a"}


def test_gset_rejects_removal():
    s = make_set("g", "state")
    s.gen_add("a", clock())
    with pytest.raises(PreconditionViolation):
        s.gen_rmv("a", clock())


def test_gset_duplicate_add_rejected():
    s = make_set("g", "op")
    s.gen_add("a", clock())
    with pytest.raises(PreconditionViolation):
        s.gen_add("a", clock())


# --- two-phase ---


def test_twophase_add_remove_never_again():
    s = make_set("2p", "state")
    c = clock()
    s.gen_add("a", c)
    s.gen_rmv("a", c)
    assert s.lookup() == set()
    with pytest.raises(PreconditionViolation):
        s.gen_add("a", c)


def test_twophase_remove_wins_any_arrival_order():
    add = SetOp(ADD, "a")
    rmv = SetOp(RMV, "a")
    for perm in itertools.permutations([add, rmv]):
        s = make_set("2p", "op")
        for op in perm:
            s.apply(op)
        assert s.lookup() == set()


# --- last-writer-wins ---


def test_lww_latest_stamp_decides():
    s = make_set("lww", "op")
    c = clock()
    s.gen_add("a", c)
    s.gen_rmv("a", c)
    assert s.lookup() == set()


def test_lww_remote_lower_stamp_ignored():
    s = make_set("lww", "op")
    s.apply(SetOp(ADD, "a", stamp=LamportStamp(5, "r2")))
    s.apply(SetOp(RMV, "a", stamp=LamportStamp(3, "r3")))
    assert s.lookup() == {"a"}


def test_lww_concurrent_add_rmv_resolved_by_stamp_order():
    add = SetOp(ADD, "a", stamp=LamportStamp(2, "r1"))
    rmv = SetOp(RMV, "a", stamp=LamportStamp(2, "r2"))
    for perm in itertools.permutations([add, rmv]):
        s = make_set("lww", "op")
        for op in perm:
            s.apply(op)
        assert s.lookup() == set()


# --- counting ---


def test_counter_add_sets_balance_to_one():
    s = make_set("c", "op")
    op = s.gen_add("a", clock())
    assert op.delta == 1
    assert s.count("a") == 1


def test_counter_remove_delta_cancels_balance():
    s = make_set("c", "op")
    s.apply(SetOp(ADD, "a", delta=1))
    s.apply(SetOp(ADD, "a", delta=1))
    op = s.gen_rmv("a", clock())
    assert op.delta == -2
    assert s.count("a") == 0
    assert s.lookup() == set()


def test_counter_concurrent_adds_then_one_remove_kills_everywhere():
    left = make_set("c", "op")
    right = make_set("c", "op")
    add1 = left.gen_add("a", clock("r1"))
    add2 = right.gen_add("a", clock("r2"))
    left.apply(add2)
    rmv = left.gen_rmv("a", clock("r1"))
    assert rmv.delta == -2
    right.apply(add1)
    right.apply(rmv)
    assert left.lookup() == right.lookup() == set()


def test_counter_state_balance_is_pool_size_difference():
    s = make_set("c", "state")
    c = clock()
    s.gen_add("a", c)
    s.gen_rmv("a", c)
    s.gen_add("a", c)
    assert len(s.pos["a"]) == 2
    assert len(s.neg["a"]) == 1
    assert s.count("a") == 1


# --- observed-remove ---


def test_orset_remove_kills_only_observed_tags():
    s = make_set("or", "op")
    s.apply(SetOp(ADD, "a", tag=Tag("r1", 1)))
    s.apply(SetOp(RMV, "a", tags=frozenset({Tag("r2", 1)})))
    assert s.lookup() == {"a"}
    assert s.live_tags("a") == {Tag("r1", 1)}


def test_orset_concurrent_add_survives_remove():
    first_adder = make_set("or", "op")
    remover = make_set("or", "op")
    late_adder = make_set("or", "op")
    first = first_adder.gen_add("a", clock("r1"))
    remover.apply(first)
    rmv = remover.gen_rmv("a", clock("r2"))
    readd = late_adder.gen_add("a", clock("r3"))
    pending = {
        id(first_adder): [rmv, readd],
        id(remover): [readd],
        id(late_adder): [first, rmv],
    }
    for s in (first_adder, remover, late_adder):
        for op in pending[id(s)]:
            s.apply(op)
    assert first_adder.lookup() == remover.lookup() == late_adder.lookup() == {"a"}


def test_orset_state_lookup_needs_an_unremoved_tag():
    s = make_set("or", "state")
    c = clock()
    s.gen_add("a", c)
    s.gen_rmv("a", c)
    assert s.tags["a"] & s.removed["a"]
    assert s.lookup() == set()


def tombstone_peer(kind, shown):
    """A state peer whose payload names a only as removed.

    A 2P peer removed a without adding it; an OR peer holds a removed
    bucket with the tags `shown` holds for a, and no tags for it.
    """
    peer = make_set(kind, "state")
    if kind == "2p":
        peer.local_rmv("a", clock("r2"))
    else:
        peer.removed["a"] = set(shown.tags["a"])
    return peer


@pytest.mark.parametrize("kind", ["2p", "or"])
def test_merge_drops_an_element_the_peer_removed_but_never_added(kind):
    shown = make_set(kind, "state")
    shown.local_add("a", clock())
    peer = tombstone_peer(kind, shown)
    assert "a" not in peer.ever()
    shown.merge(peer)
    assert shown.lookup() == reference_lookup(shown) == set()
    assert not shown.contains("a")


# --- flavor and kind guards ---


def test_apply_on_state_flavor_rejected():
    s = make_set("g", "state")
    with pytest.raises(KindMismatch):
        s.apply(SetOp(ADD, "a"))


def test_merge_on_op_flavor_rejected():
    s = make_set("g", "op")
    with pytest.raises(KindMismatch):
        s.merge(make_set("g", "op"))


def test_merge_across_kinds_rejected():
    s = make_set("g", "state")
    with pytest.raises(KindMismatch):
        s.merge(make_set("2p", "state"))


# --- versions and copies ---


def with_history(kind, flavor):
    """A set holding a, and b added and removed where the kind allows it."""
    s = make_set(kind, flavor)
    c = clock()
    s.local_add("a", c)
    s.local_add("b", c)
    if kind != "g":
        s.local_rmv("b", c)
    return s


def accepted_mutations(kind, flavor, e):
    """Each mutation of e the kind and flavor accept, by name.

    They run under another replica's clock, so every tag and stamp is new.
    """
    peer = make_set(kind, flavor)
    peer_op = peer.local_add(e, clock("r3"))
    out = {}
    if kind != "2p":  # a two-phase set refuses a second add
        out["re-add"] = lambda s: s.local_add(e, clock("r2"))
    if kind != "g":
        out["rmv"] = lambda s: s.local_rmv(e, clock("r2"))
    if flavor == "op":
        out["apply"] = lambda s: s.apply(peer_op)
    else:
        out["merge"] = lambda s: s.merge(peer)
    return out


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("kind", KINDS)
def test_a_copy_shares_no_container_with_its_original(kind, flavor):
    for e in ("a", "b"):
        for name, mutate in accepted_mutations(kind, flavor, e).items():
            for mutated_side in (0, 1):
                original = with_history(kind, flavor)
                pair = [original, original.copy()]
                assert pair[0].state() == pair[1].state()
                other = pair[1 - mutated_side]
                before = (other.state(), other.canonical(), other.lookup())
                mutate(pair[mutated_side])
                after = (other.state(), other.canonical(), other.lookup())
                assert after == before, (e, name, mutated_side)


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("kind", KINDS)
def test_each_accepted_mutation_gives_a_new_version(kind, flavor):
    s = with_history(kind, flavor)
    seen = {s.version}
    dup = s.copy()
    assert dup.version not in seen
    seen.add(dup.version)
    mutations = dict(accepted_mutations(kind, flavor, "a"))
    mutations["add"] = lambda s: s.local_add("z", clock("r2"))
    for name, mutate in mutations.items():
        mutate(s)
        assert s.version not in seen, name
        seen.add(s.version)


def refused_mutations(kind, flavor):
    """(name, mutation, error) for each mutation the kind and flavor refuse."""
    other_kind = "or" if kind == "g" else "g"
    out = [("merge another kind", lambda s: s.merge(make_set(other_kind, flavor)), KindMismatch)]
    if flavor == "state":
        out.append(("apply", lambda s: s.apply(SetOp(ADD, "c")), KindMismatch))
        out.append(("merge another flavor", lambda s: s.merge(make_set(kind, "op")), KindMismatch))
    else:
        out.append(("merge", lambda s: s.merge(make_set(kind, "op")), KindMismatch))
    if kind == "2p":
        out.append(("re-add", lambda s: s.local_add("b", clock("r2")), PreconditionViolation))
    if kind == "g":
        out.append(("rmv", lambda s: s.local_rmv("a", clock("r2")), PreconditionViolation))
        if flavor == "op":
            out.append(("apply rmv", lambda s: s.apply(SetOp(RMV, "a")), PreconditionViolation))
    if kind == "or" and flavor == "op":
        forged = SetOp(ADD, "x", tag=["t"])
        out.append(("apply unhashable tag", lambda s: s.apply(forged), TypeError))
    return out


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("kind", KINDS)
def test_a_refused_mutation_keeps_version_and_state(kind, flavor):
    for name, mutate, error in refused_mutations(kind, flavor):
        s = with_history(kind, flavor)
        before = (s.version, s.state(), s.ever())
        with pytest.raises(error):
            mutate(s)
        assert (s.version, s.state(), s.ever()) == before, name


# --- canonical text ---


def test_canonical_has_header_and_sorted_elements():
    s = make_set("g", "state")
    c = clock()
    for e in ("b", "a", "c"):
        s.gen_add(e, c)
    text = s.canonical()
    assert text.splitlines()[0] == "set kind=g flavor=state"
    assert text.splitlines()[1:] == ["elem a", "elem b", "elem c"]


def test_canonical_identical_for_equal_states():
    left = make_set("or", "state")
    right = make_set("or", "state")
    c1, c2 = clock("r1"), clock("r2")
    left.gen_add("a", c1)
    right.gen_add("b", c2)
    left.merge(right)
    right.merge(left)
    assert left.canonical() == right.canonical()


# --- merge laws ---


def merged(a, b):
    out = a.copy()
    out.merge(b)
    return out


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_merge_commutes_and_is_idempotent(kind, seed):
    group = run_set_history(kind, "state", random_set_script(seed), final_sync=False)
    a = group.states["r1"]
    b = group.states["r2"]
    ab = merged(a, b)
    ba = merged(b, a)
    assert ab.lookup() == ba.lookup()
    assert ab.canonical() == ba.canonical()
    again = merged(ab, b)
    assert again.canonical() == ab.canonical()


@pytest.mark.parametrize("kind", KINDS)
def test_merge_associative(kind):
    group = run_set_history(kind, "state", random_set_script(7), final_sync=False)
    a, b, c = (group.states[r] for r in ("r1", "r2", "r3"))
    left = merged(merged(a, b), c)
    right = merged(a, merged(b, c))
    assert left.canonical() == right.canonical()


# --- flavor equivalence and membership oracle ---


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_flavors_agree_on_fully_synced_histories(kind, seed):
    script = random_set_script(seed)
    state_group = run_set_history(kind, "state", script)
    op_group = run_set_history(kind, "op", script)
    state_lookups = set(map(frozenset, state_group.lookups().values()))
    op_lookups = set(map(frozenset, op_group.lookups().values()))
    assert len(state_lookups) == 1
    assert state_lookups == op_lookups


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_op_history_oracle_matches_lookup(kind, seed):
    group = run_set_history(kind, "op", random_set_script(seed))
    ops = [op for _, op in group.log]
    final = group.states["r1"].lookup()
    for e in "abc":
        assert oracle_membership_ops(kind, ops, e) == (e in final)


def test_counter_balance_equals_delta_sum():
    group = run_set_history("c", "op", random_set_script(99))
    ops = [op for _, op in group.log]
    for e in "abc":
        total = sum(op.delta for op in ops if op.element == e)
        assert group.states["r2"].count(e) == total


# --- ever: every element the payload has held ---


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_ever_is_the_elements_of_the_delivered_adds(kind, flavor, seed):
    group = SetGroup(kind, flavor)
    # the elements of the add ops each replica has made or received
    added = {r: set() for r in group.states}
    for step in random_set_script(seed) + [("sync",)]:
        if step[0] == "sync":
            group.sync()
            everything = {op.element for _, op in group.log if op.verb == ADD}
            added = {r: set(everything) for r in added}
        else:
            replica, verb, e = step
            op = group.local(replica, verb, e)
            if op is not None and op.verb == ADD:
                added[replica].add(e)
        for r, state in group.states.items():
            assert state.ever() == added[r]
            assert state.lookup() <= state.ever()


def test_op_orset_keeps_an_emptied_element_in_ever_only():
    c = clock()
    local, remote = make_set("or", "op"), make_set("or", "op")
    for op in (local.gen_add("a", c), local.gen_rmv("a", c)):
        remote.apply(op)
    for s in (local, remote):
        assert s.lookup() == set()
        assert "elem" not in s.canonical()
        assert s.ever() == {"a"}


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("kind", ["2p", "c", "or"])
def test_removing_an_element_never_held_leaves_ever_empty(kind, flavor):
    s = make_set(kind, flavor)
    s.local_rmv("a", clock())
    assert s.ever() == set()
    if (kind, flavor) == ("or", "op"):
        s.apply(SetOp(RMV, "b", tags=frozenset()))
        assert s.ever() == set()


def test_op_counter_stores_nothing_for_a_zero_delta():
    s = make_set("c", "op")
    s.apply(SetOp(RMV, "a", delta=0))
    assert s.ever() == set()
    assert s.state() == make_set("c", "op").state()


def copied_live_tags(s, e):
    """OR-set live tags, read through fresh copies of the stored sets."""
    tags = set(s.tags.get(e, set()))
    if s.flavor == "state":
        tags -= set(s.removed.get(e, set()))
    return tags


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), copied=st.sets(st.integers(0, 20)))
def test_reads_match_a_reference_lookup(kind, flavor, seed, copied):
    """After every step, copy and sync, reads agree with a full recompute.

    At each step index in `copied`, the acting replica (r1 at a sync)
    carries on with a copy of its set.
    """
    group = SetGroup(kind, flavor)
    for i, step in enumerate(random_set_script(seed, n_steps=20) + [("sync",)]):
        if step[0] == "sync":
            group.sync()
        else:
            group.local(*step)
        if i in copied:
            replica = "r1" if step[0] == "sync" else step[0]
            group.states[replica] = group.states[replica].copy()
        for s in group.states.values():
            live = reference_lookup(s)
            assert s.lookup() == live
            assert {e for e in "abc" if s.contains(e)} == live
            if kind == "or":
                assert {e: set(s.live_tags(e)) for e in "abc"} == {
                    e: copied_live_tags(s, e) for e in "abc"
                }
