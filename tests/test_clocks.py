"""Timestamps, tags, vector clocks, and causal delivery order."""

import itertools
import random

from hypothesis import given
from hypothesis import strategies as st

from treecrdt import clocks
from treecrdt.clocks import (
    DeliveryBuffer,
    Envelope,
    LamportStamp,
    ReplicaClock,
    Tag,
    VectorClock,
    deliverable,
)


def test_lamport_total_order_breaks_ties_by_origin():
    assert LamportStamp(1, "r1") < LamportStamp(2, "r1")
    assert LamportStamp(3, "r1") < LamportStamp(3, "r2")
    assert LamportStamp(3, "r2") < LamportStamp(4, "r1")


def test_next_stamp_is_strictly_increasing():
    clock = ReplicaClock("r1")
    stamps = [clock.next_stamp() for _ in range(5)]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == 5


def test_observe_advances_past_received_stamp():
    clock = ReplicaClock("r1")
    clock.next_stamp()
    clock.observe(LamportStamp(10, "r2"))
    assert clock.next_stamp() == LamportStamp(11, "r1")


def test_rng_is_seeded_on_first_read_and_kept():
    clock = ReplicaClock("r1", seed=7)
    assert "rng" not in vars(clock)
    expected = random.Random("7/r1")
    assert [clock.rng.random() for _ in range(3)] == [expected.random() for _ in range(3)]
    assert clock.rng is clock.rng
    # the generator is not part of a clock's value
    drawn, fresh = ReplicaClock("r1", seed=7), ReplicaClock("r1", seed=7)
    drawn.rng.random()
    assert drawn == fresh
    assert repr(drawn) == repr(fresh)


def test_fresh_tags_unique_across_replicas():
    a, b = ReplicaClock("r1"), ReplicaClock("r2")
    tags = [a.fresh_tag(), a.fresh_tag(), b.fresh_tag(), b.fresh_tag()]
    assert len(set(tags)) == 4
    assert Tag("r1", 1) < Tag("r1", 2) < Tag("r2", 1)


def test_vector_clock_merge_is_entrywise_max():
    left = VectorClock({"r1": 2, "r2": 1})
    right = VectorClock({"r2": 3, "r3": 1})
    left |= right
    assert dict(left) == {"r1": 2, "r2": 3, "r3": 1}


def test_vector_clock_dominates_reads_absent_as_zero():
    assert VectorClock({"r1": 1}) >= VectorClock()
    assert not VectorClock() >= VectorClock({"r1": 1})
    assert VectorClock({"r1": 1}) >= VectorClock({"r1": 1})
    assert VectorClock()["r1"] == 0
    assert VectorClock({"r1": 0}) == VectorClock()


@given(
    st.dictionaries(st.sampled_from(["r1", "r2", "r3"]), st.integers(0, 5)),
    st.dictionaries(st.sampled_from(["r1", "r2", "r3"]), st.integers(0, 5)),
)
def test_vector_clock_merge_commutes(a, b):
    left = VectorClock(a)
    left |= VectorClock(b)
    right = VectorClock(b)
    right |= VectorClock(a)
    assert left == right


def test_envelope_seq_counts_own_prior_ops():
    clock = ReplicaClock("r1")
    first = clock.wrap("p1")
    second = clock.wrap("p2")
    assert first.seq == 1
    assert second.seq == 2
    # deps with no entry for the origin
    env = Envelope("p", "r1", VectorClock({"r2": 3}), LamportStamp(4, "r1"))
    assert env.seq == 1


def test_deliverable_requires_fifo_and_deps():
    sender = ReplicaClock("r1")
    first = sender.wrap("p1")
    second = sender.wrap("p2")
    receiver = VectorClock()
    assert deliverable(first, receiver)
    assert not deliverable(second, receiver)
    receiver["r1"] += 1
    assert deliverable(second, receiver)
    # a vector with no entry for an origin reads it as 0
    assert deliverable(first, VectorClock({"r2": 5}))
    follow = Envelope("p2", "r2", VectorClock({"r1": 1}), LamportStamp(2, "r2"))
    assert not deliverable(follow, VectorClock({"r2": 0}))
    assert deliverable(follow, VectorClock({"r1": 1}))


def test_buffer_drains_out_of_order_arrivals():
    sender = ReplicaClock("r1")
    envs = [sender.wrap(i) for i in range(3)]
    receiver = ReplicaClock("r2")
    buf = DeliveryBuffer()
    for env in reversed(envs):
        buf.add(env)
    seen = []
    for env in buf.drain(receiver.delivered):
        receiver.accept(env)
        seen.append(env.payload)
    assert seen == [0, 1, 2]
    assert not buf.pending


def test_cross_replica_dependency_blocks_until_met():
    r1, r2 = ReplicaClock("r1"), ReplicaClock("r2")
    base = r1.wrap("base")
    r2_buf = DeliveryBuffer()
    r2_buf.add(base)
    for env in r2_buf.drain(r2.delivered):
        r2.accept(env)
    reply = r2.wrap("reply")

    r3 = ReplicaClock("r3")
    buf = DeliveryBuffer()
    buf.add(reply)
    assert list(buf.drain(r3.delivered)) == []
    buf.add(base)
    seen = []
    for env in buf.drain(r3.delivered):
        r3.accept(env)
        seen.append(env.payload)
    assert seen == ["base", "reply"]


def test_every_causal_permutation_drains_fully():
    r1, r2 = ReplicaClock("r1"), ReplicaClock("r2")
    a = r1.wrap("a")
    b = r1.wrap("b")
    c = r2.wrap("c")
    for perm in itertools.permutations([a, b, c]):
        obs = ReplicaClock("obs")
        buf = DeliveryBuffer()
        seen = []
        for env in perm:
            buf.add(env)
            for ready in buf.drain(obs.delivered):
                obs.accept(ready)
                seen.append(ready.payload)
        assert not buf.pending
        assert seen.index("a") < seen.index("b")


def test_stamp_order_consistent_with_causality():
    r1, r2 = ReplicaClock("r1"), ReplicaClock("r2")
    cause = r1.wrap("cause")
    r2_buf = DeliveryBuffer()
    r2_buf.add(cause)
    for env in r2_buf.drain(r2.delivered):
        r2.accept(env)
    effect = r2.wrap("effect")
    assert cause.stamp < effect.stamp


class ScanBuffer:
    """The delivery buffer as a rescan of every pending envelope per yield."""

    def __init__(self):
        self.pending = []

    def add(self, env):
        self.pending.append(env)

    def drain(self, delivered):
        progress = True
        while progress:
            progress = False
            for env in list(self.pending):
                if env.seq <= delivered[env.origin]:
                    self.pending.remove(env)
                elif deliverable(env, delivered):
                    self.pending.remove(env)
                    progress = True
                    yield env
                    break


def causal_envelopes(rng, n_ops):
    """Envelopes of three replicas that deliver some of each other's ops."""
    clocks_ = {r: ReplicaClock(r) for r in ("r1", "r2", "r3")}
    bufs = {r: DeliveryBuffer() for r in clocks_}
    made = []
    while len(made) < n_ops:
        rid = rng.choice(sorted(clocks_))
        others = [env for env in made if env.origin != rid]
        if others and rng.random() < 0.5:
            bufs[rid].add(rng.choice(others))
            for env in bufs[rid].drain(clocks_[rid].delivered):
                clocks_[rid].accept(env)
        else:
            made.append(clocks_[rid].wrap(len(made)))
    return made


def test_drain_yields_what_a_full_rescan_yields():
    rng = random.Random(3)
    for _ in range(60):
        made = causal_envelopes(rng, 15)
        arrivals = made + [rng.choice(made) for _ in range(6)]
        rng.shuffle(arrivals)
        fast, scan = DeliveryBuffer(), ScanBuffer()
        fast_clock, scan_clock = ReplicaClock("obs"), ReplicaClock("obs")
        for i, env in enumerate(arrivals):
            fast.add(env)
            scan.add(env)
            if rng.random() < 0.5 and i < len(arrivals) - 1:
                continue
            got = []
            for ready in fast.drain(fast_clock.delivered):
                fast_clock.accept(ready)
                got.append(ready)
            want = []
            for ready in scan.drain(scan_clock.delivered):
                scan_clock.accept(ready)
                want.append(ready)
            assert got == want
            assert fast.pending == scan.pending
        assert fast.pending == []
        made_by = {r: sum(env.origin == r for env in made) for r in ("r1", "r2", "r3")}
        assert fast_clock.delivered == VectorClock(made_by)


def test_reversed_arrival_needs_linear_deliverable_checks(monkeypatch):
    sender = ReplicaClock("r1")
    envs = [sender.wrap(i) for i in range(2000)]
    checks = 0

    def counted(env, delivered):
        nonlocal checks
        checks += 1
        return deliverable(env, delivered)

    monkeypatch.setattr(clocks, "deliverable", counted)
    buf = DeliveryBuffer()
    for env in reversed(envs):
        buf.add(env)
    receiver = ReplicaClock("r2")
    seen = []
    for env in buf.drain(receiver.delivered):
        receiver.accept(env)
        seen.append(env.payload)
    assert seen == list(range(2000))
    assert buf.pending == []
    assert checks <= 2 * len(envs)
