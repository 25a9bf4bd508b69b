"""Growth gates: the work of each stage, counted at three sizes.

``GROWTH`` is one table with one row per stage.  A row's generator builds
an input of size n and returns the action to measure.  Its counter names
the function whose calls are counted while that action runs, each call
adding its ``weight`` (1 unless the row says otherwise), and the count is
divided by the ``units`` of work the action's result reports (1 unless
the row says otherwise).  Its bound is the largest exponent allowed for
the power law count ~ n ** exponent fitted over the row's sizes
(``SIZES`` unless the row says otherwise).  Counts, not timings, so the
gate is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Tuple

import pytest
import treecrdt.render
from treecrdt import harness
from treecrdt.clocks import ReplicaClock
from treecrdt.harness import Fold, check_convergence, make_tree, parse_combo
from treecrdt.sets import (
    FLAVORS,
    CounterSet,
    GSet,
    LwwSet,
    ObservedRemoveSet,
    TwoPhaseSet,
    make_set,
)

SIZES = (500, 1000, 2000)


def wide_tree(label: str, n: int) -> Tuple[Any, ReplicaClock, Any]:
    """The tree of a combo with n nodes: n / 4 under the root, each with
    three leaves, written straight to the sets (no lookup per add) and
    then shown once; and its last top node.  A codec that draws positions
    draws each after the siblings drawn before it, as ``gen_add`` does."""
    tree, clock = make_tree(parse_combo(label.split())), ReplicaClock("r1")
    codec, drawn = tree.codec, {}

    def add(name: str, parent: Any) -> Any:
        pos = None
        if codec.draws:
            siblings = drawn.setdefault(parent, [])
            pos = codec.position_at(siblings, len(siblings), clock)
            siblings.append(pos)
        return tree._commit(name, parent, clock, pos).node

    root = () if tree.repr_name == "word" else "root"
    for i in range(n // 4):
        top = add(f"t{i}", root)
        for j in range(3):
            add(f"t{i}x{j}", top)
    tree.lookup()
    return tree, clock, top


def remove_a_leaf(label: str) -> Callable[[int], Callable[[], Any]]:
    """Remove the last leaf of ``wide_tree(label, n)``."""

    def generate(n: int) -> Callable[[], Any]:
        tree, clock, _ = wide_tree(label, n)
        top = f"t{n // 4 - 1}"
        leaf = (top, top + "x2") if tree.repr_name == "word" else top + "x2"
        return lambda: tree.gen_rmv(leaf, clock)

    return generate


def insert_first(label: str) -> Callable[[int], Callable[[], Any]]:
    """Insert a child at index 0 under the last top node of
    ``wide_tree(label, n)``, then show the tree."""

    def generate(n: int) -> Callable[[], Any]:
        tree, clock, top = wide_tree(label, n)
        return lambda: (tree.gen_insert("new", top, 0, clock), tree.lookup())

    return generate


def filled_set(kind: str, flavor: str, n: int):
    """A set of the kind and flavor holding n elements, added at replica r1."""
    s, clock = make_set(kind, flavor), ReplicaClock("r1")
    for i in range(n):
        s.local_add(f"e{i}", clock)
    return s


def sync_then_read(kind: str, flavor: str) -> Callable[[int], Callable[[], Any]]:
    """Apply one remote add (op flavor) or merge a one-element peer (state
    flavor) into ``filled_set(kind, flavor, n)``, then read it."""

    def generate(n: int) -> Callable[[], Any]:
        s, peer = filled_set(kind, flavor, n), make_set(kind, flavor)
        op = peer.local_add("new", ReplicaClock("r2"))
        sync = (lambda: s.apply(op)) if flavor == "op" else (lambda: s.merge(peer))
        return lambda: (sync(), s.lookup())

    return generate


def check_a_history(label: str, replicas: int) -> Callable[[int], Callable[[], Any]]:
    """Check one n-op scenario of the combo on that many replicas."""

    def generate(n: int) -> Callable[[], Any]:
        combo = parse_combo(label.split())
        return lambda: check_convergence(combo, n_ops=n, n_replicas=replicas, scenarios=1)

    return generate


def sub_ops(fold: Fold, kind: str, ops) -> int:
    """The sub-ops one ``extend_fold`` call folds in."""
    return sum(len(op.node_ops) + len(op.edge_ops) for op in ops)


def one(*args: Any) -> int:
    return 1


@dataclass(frozen=True)
class Growth:
    stage: str
    generator: Callable[[int], Callable[[], Any]]
    counter: Tuple[Any, str]
    bound: float
    sizes: Tuple[int, ...] = SIZES
    weight: Callable[..., int] = one
    units: Callable[[Any], int] = one


SORT_KEY = (treecrdt.render, "sort_key")

GROWTH = [
    Growth("gen_rmv graph", remove_a_leaf("graph or op skip shortest plain"), SORT_KEY, 0.1),
    Growth("gen_rmv edge", remove_a_leaf("edge or op skip shortest plain"), SORT_KEY, 0.1),
    Growth("gen_rmv word", remove_a_leaf("word or op skip - plain"), SORT_KEY, 0.1),
    Growth("insert upi node", insert_first("graph 2p op skip shortest node"), SORT_KEY, 0.1),
    Growth("insert upi edge", insert_first("graph or op skip shortest edge"), SORT_KEY, 0.1),
    Growth("insert upi word", insert_first("word 2p op skip - edge"), SORT_KEY, 0.1),
    Growth("apply g", sync_then_read("g", "op"), (GSet, "_is_live"), 0.1),
    Growth("apply 2p", sync_then_read("2p", "op"), (TwoPhaseSet, "_is_live"), 0.1),
    Growth("apply or", sync_then_read("or", "op"), (ObservedRemoveSet, "_is_live"), 0.1),
    Growth("apply lww", sync_then_read("lww", "op"), (LwwSet, "_is_live"), 0.1),
    Growth("apply c", sync_then_read("c", "op"), (CounterSet, "_is_live"), 0.1),
    Growth("merge g", sync_then_read("g", "state"), (GSet, "_is_live"), 0.1),
    Growth("merge 2p", sync_then_read("2p", "state"), (TwoPhaseSet, "_is_live"), 0.1),
    Growth("merge lww", sync_then_read("lww", "state"), (LwwSet, "_is_live"), 0.1),
    Growth("merge c", sync_then_read("c", "state"), (CounterSet, "_is_live"), 0.1),
    Growth("merge or", sync_then_read("or", "state"), (ObservedRemoveSet, "_is_live"), 0.1),
    # the oracle folds each walked set from the set it steps from: sub-ops
    # folded per walked set, over histories of 25, 50 and 100 ops
    Growth(
        "oracle fold",
        check_a_history("graph or op compact highest plain", replicas=4),
        (harness, "extend_fold"),
        0.1,
        sizes=(25, 50, 100),
        weight=sub_ops,
        units=lambda report: report.schedules,
    ),
]


def fitted_exponent(sizes, counts) -> float:
    """The least-squares slope of log(count) against log(size)."""
    xs, ys = [math.log(n) for n in sizes], [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def test_fitted_exponent_reads_a_power_law():
    assert fitted_exponent(SIZES, [7, 7, 7]) == 0
    assert fitted_exponent(SIZES, [3 * n for n in SIZES]) == pytest.approx(1)
    assert fitted_exponent(SIZES, [n * n for n in SIZES]) == pytest.approx(2)


@pytest.mark.parametrize("row", GROWTH, ids=lambda row: row.stage)
def test_stage_grows_within_its_bound(monkeypatch, row):
    owner, name = row.counter
    inner = getattr(owner, name)
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += row.weight(*args, **kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    counts = []
    for n in row.sizes:
        action = row.generator(n)
        calls = 0
        result = action()
        counts.append(calls / row.units(result))
    # a counter that reads zero would pass any bound and show nothing
    assert min(counts) > 0, (row.stage, counts)
    exponent = fitted_exponent(row.sizes, counts)
    assert exponent <= row.bound, (row.stage, counts, round(exponent, 2))


@pytest.mark.parametrize("flavor", FLAVORS)
def test_an_or_copy_shares_its_buckets(flavor):
    """A copy costs no bucket copies, and a write to it replaces buckets
    instead of changing the ones the source holds."""
    s, clock = filled_set("or", flavor, 100), ReplicaClock("r2")
    s.local_rmv("e0", clock)
    before, dup = s.state(), s.copy()
    buckets = ("tags", "removed") if flavor == "state" else ("tags",)
    for name in buckets:
        assert all(getattr(dup, name)[e] is bucket for e, bucket in getattr(s, name).items())
    dup.local_add("e1", clock)
    dup.local_rmv("e2", clock)
    dup.local_add("e0", clock)
    dup.local_add("new", clock)
    assert s.state() == before and dup.state() != before
    assert s.lookup() == {f"e{i}" for i in range(1, 100)}
