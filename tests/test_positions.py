"""Dense unique position identifiers: ordering, freshness, and length bounds."""

import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CountingAtom, assert_unpickled_hash
from treecrdt.clocks import ReplicaClock
from treecrdt.errors import InvalidInterval
from treecrdt.positions import (
    DIGIT_BASE,
    UPI_MAX,
    UPI_MIN,
    Upi,
    upi_at,
    upi_between,
)


def clock(rid="r1", seed=11):
    return ReplicaClock(rid, seed)


# --- basic ordering ---


def test_sentinels_bracket_everything():
    c = clock()
    u = upi_between(UPI_MIN, UPI_MAX, c)
    assert UPI_MIN < u < UPI_MAX
    assert len(u.triples) == 1


def test_between_is_strictly_inside():
    c = clock()
    a = upi_between(UPI_MIN, UPI_MAX, c)
    b = upi_between(UPI_MIN, UPI_MAX, c)
    lo, hi = sorted([a, b])
    mid = upi_between(lo, hi, c)
    assert lo < mid < hi


def test_empty_interval_rejected():
    c = clock()
    u = upi_between(UPI_MIN, UPI_MAX, c)
    with pytest.raises(InvalidInterval):
        upi_between(u, u, c)
    with pytest.raises(InvalidInterval):
        upi_between(UPI_MAX, UPI_MIN, c)


def test_render_round_trip_is_distinct():
    c = clock()
    seen = set()
    u = UPI_MIN
    for _ in range(50):
        u = upi_between(u, UPI_MAX, c)
        assert u.render() not in seen
        seen.add(u.render())


# --- determinism ---


def test_same_seed_same_positions():
    xs = [upi_between(UPI_MIN, UPI_MAX, clock("a", 3)) for _ in range(2)]
    assert xs[0] == xs[1]


def test_different_replicas_never_collide():
    ca, cb = clock("a", 5), clock("b", 5)
    ua = [upi_between(UPI_MIN, UPI_MAX, ca) for _ in range(40)]
    ub = [upi_between(UPI_MIN, UPI_MAX, cb) for _ in range(40)]
    assert not set(ua) & set(ub)


# --- front-insert length bound ---


def test_thousand_front_inserts_stay_short():
    c = clock()
    right = UPI_MAX
    seen = []
    for _ in range(1000):
        right = upi_between(UPI_MIN, right, c)
        seen.append(right)
        assert len(right.triples) <= 2
    assert all(a > b for a, b in zip(seen, seen[1:]))
    assert len(set(seen)) == len(seen)


def test_back_inserts_grow_slowly():
    # no squeeze on this side: depth grows, but only logarithmically per level
    c = clock()
    left = UPI_MIN
    seen = []
    for _ in range(1000):
        left = upi_between(left, UPI_MAX, c)
        seen.append(left)
        assert len(left.triples) <= 120
    assert all(a < b for a, b in zip(seen, seen[1:]))


# --- tiny base exercises the squeeze and copy branches ---


def test_base_two_still_dense():
    c = clock(seed=9)
    a = upi_between(UPI_MIN, UPI_MAX, c, base=2)
    b = upi_between(UPI_MIN, a, c, base=2)
    d = upi_between(b, a, c, base=2)
    assert UPI_MIN < b < d < a < UPI_MAX


def test_base_two_interleaved_replicas():
    ca, cb = clock("a", 13), clock("b", 13)
    items = [upi_between(UPI_MIN, UPI_MAX, ca, base=2)]
    for i in range(30):
        c = ca if i % 2 else cb
        left = items[i % len(items)]
        rights = sorted(u for u in items if u > left)
        right = rights[0] if rights else UPI_MAX
        items.append(upi_between(left, right, c, base=2))
    assert len(set(items)) == len(items)
    ordered = sorted(items)
    for lo, hi in zip(ordered, ordered[1:]):
        assert lo < upi_between(lo, hi, ca, base=2) < hi


# --- hashing: once, at construction, to the field-tuple hash ---


def some_upis():
    c = clock()
    a = upi_between(UPI_MIN, UPI_MAX, c)
    return [UPI_MIN, UPI_MAX, a, upi_between(UPI_MIN, a, c), upi_between(a, UPI_MAX, c)]


def test_hash_is_the_field_tuple_hash():
    # the generated hash this one replaces, so no set or dict order moves
    for u in some_upis():
        assert hash(u) == hash((u.triples,))


def test_equal_positions_built_apart_hash_equal():
    for u in some_upis():
        twin = Upi(tuple((d, o, s) for d, o, s in u.triples))
        assert twin is not u
        assert twin == u and hash(twin) == hash(u)
        assert len({u, twin}) == 1


def test_copies_keep_equality_order_and_hash():
    upis = some_upis()
    for u in upis:
        for dup in (copy.copy(u), copy.deepcopy(u)):
            assert dup == u and hash(dup) == hash(u)
    assert sorted(copy.deepcopy(upis)) == sorted(upis)


def test_unpickled_position_hashes_under_the_loading_hash_seed():
    assert_unpickled_hash(some_upis()[3], "(v.triples,)")


def test_reads_never_rehash_the_triples():
    CountingAtom.hashes = 0
    u = Upi(((7, CountingAtom("o"), 1), (9, CountingAtom("p"), 2)))
    assert CountingAtom.hashes == 2
    seen, table = {u}, {u: 0}
    for _ in range(1000):
        assert u in seen and table[u] == 0
    assert CountingAtom.hashes == 2


# --- index helper ---


def test_upi_at_endpoints_and_middle():
    c = clock()
    sibs = sorted(upi_between(UPI_MIN, UPI_MAX, c) for _ in range(3))
    front = upi_at(sibs, 0, c)
    back = upi_at(sibs, 3, c)
    mid = upi_at(sibs, 2, c)
    assert front < sibs[0]
    assert back > sibs[2]
    assert sibs[1] < mid < sibs[2]


def test_upi_at_empty_siblings():
    c = clock()
    u = upi_at([], 0, c)
    assert UPI_MIN < u < UPI_MAX


# --- property: random insertion sequences stay ordered and unique ---


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60), st.integers(0, 2**31))
def test_random_insertions_preserve_order(picks, seed):
    c = ReplicaClock("p", seed)
    items = []
    for pick in picks:
        ordered = sorted(items)
        i = pick % (len(ordered) + 1)
        left = ordered[i - 1] if i > 0 else UPI_MIN
        right = ordered[i] if i < len(ordered) else UPI_MAX
        u = upi_between(left, right, c)
        assert left < u < right
        items.append(u)
    assert len(set(items)) == len(items)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31))
def test_upi_at_matches_sorted_rank(seed):
    c = ReplicaClock("q", seed)
    items = []
    for i in range(12):
        u = upi_at(items, i % (len(items) + 1), c)
        items.append(u)
    ordered = sorted(items)
    probe = upi_at(items, 5, c)
    assert ordered[4] < probe < ordered[5]
