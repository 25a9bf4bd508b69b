"""Growth gates: the work of each stage, counted at three sizes.

``GROWTH`` is one table with one row per stage.  A row's generator builds
an input of size n and returns the action to measure.  Its counter names
the function whose calls are counted while that action runs, and its bound
is the largest exponent allowed for the power law count ~ n ** exponent
fitted over ``SIZES``.  Counts, not timings, so the gate is deterministic.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import Any, Callable, Tuple

import pytest
from treecrdt.clocks import ReplicaClock
from treecrdt.harness import make_tree, parse_combo

SIZES = (500, 1000, 2000)


def wide_tree(label: str, n: int) -> Tuple[Any, ReplicaClock]:
    """The tree of a combo with n nodes: n / 4 under the root, each with
    three leaves, written straight to the sets (no lookup per add) and
    then shown once."""
    tree, clock = make_tree(parse_combo(label.split())), ReplicaClock("r1")
    word = tree.repr_name == "word"
    for i in range(n // 4):
        top = f"t{i}"
        tree._commit(top, () if word else "root", clock, None)
        for j in range(3):
            tree._commit(f"{top}x{j}", (top,) if word else top, clock, None)
    tree.lookup()
    return tree, clock


def remove_a_leaf(label: str) -> Callable[[int], Callable[[], Any]]:
    """Remove the last leaf of ``wide_tree(label, n)``."""

    def generate(n: int) -> Callable[[], Any]:
        tree, clock = wide_tree(label, n)
        top = f"t{n // 4 - 1}"
        leaf = (top, top + "x2") if tree.repr_name == "word" else top + "x2"
        return lambda: tree.gen_rmv(leaf, clock)

    return generate


@dataclass(frozen=True)
class Growth:
    stage: str
    generator: Callable[[int], Callable[[], Any]]
    counter: Tuple[Any, str]
    bound: float


# the package re-exports the function render, so ask for the module by name
SORT_KEY = (importlib.import_module("treecrdt.render"), "sort_key")

GROWTH = [
    Growth("gen_rmv graph", remove_a_leaf("graph or op skip shortest plain"), SORT_KEY, 0.1),
    Growth("gen_rmv edge", remove_a_leaf("edge or op skip shortest plain"), SORT_KEY, 0.1),
    Growth("gen_rmv word", remove_a_leaf("word or op skip - plain"), SORT_KEY, 0.1),
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
        calls += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    counts = []
    for n in SIZES:
        action = row.generator(n)
        calls = 0
        action()
        counts.append(calls)
    # a counter that reads zero would pass any bound and show nothing
    assert min(counts) > 0, (row.stage, counts)
    exponent = fitted_exponent(SIZES, counts)
    assert exponent <= row.bound, (row.stage, counts, round(exponent, 2))
