"""Inputs the convergence checker does not produce: replays and mismatched merges."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import parse_path
from treecrdt.clocks import DeliveryBuffer, ReplicaClock
from treecrdt.errors import KindMismatch
from treecrdt.graph import GraphTree
from treecrdt.harness import Simulation, legal_combos, parse_combo, random_scenario, shown
from treecrdt.paths import EPSILON, WordTree

SRC = Path(__file__).resolve().parent.parent / "src"


def test_buffer_drops_an_envelope_delivered_twice():
    sender = ReplicaClock("r1")
    envs = [sender.wrap(i) for i in range(2)]
    receiver = ReplicaClock("r2")
    buf = DeliveryBuffer()
    seen = []
    for env in (envs[0], envs[0], envs[1], envs[0]):
        buf.add(env)
        for ready in buf.drain(receiver.delivered):
            receiver.accept(ready)
            seen.append(ready.payload)
    assert seen == [0, 1]
    assert buf.pending == []
    assert receiver.delivered["r1"] == 2


def test_replayed_envelope_does_not_stall_sync():
    sim = Simulation(parse_combo("graph c op skip shortest plain".split()), 2, 0)
    sim.execute(("r1", "add", "a", "root"))
    sim.execute(("r2", "deliver", "r1"))
    # the same envelope arrives again, before and after a fresh one
    replica = sim.replicas["r2"]
    replica.buffer.add(sim.envelopes[0])
    sim.execute(("r1", "add", "b", "a"))
    replica.buffer.add(sim.envelopes[0])
    record = sim.execute(("sync",))
    assert record.violation is None
    assert replica.buffer.pending == []
    dumps = sim.final_dumps()
    assert dumps["r1"] == dumps["r2"] == "root\n  a\n    b"
    # the counter set would read 2 had the add been applied twice
    assert replica.tree.nodes.count("a") == 1


def grown(tree, clock_id="r1"):
    root = parse_path("/") if isinstance(tree, WordTree) else "root"
    tree.gen_add("a", root, ReplicaClock(clock_id))
    return tree


@pytest.mark.parametrize(
    "mine, theirs",
    [
        (lambda: GraphTree("or", "state", "skip"), lambda: GraphTree("or", "state", "root")),
        (
            lambda: GraphTree("or", "state", map_policy="shortest"),
            lambda: GraphTree("or", "state", map_policy="zero"),
        ),
        (lambda: GraphTree("or", "state"), lambda: GraphTree("or", "state", repr_name="edge")),
        (lambda: GraphTree("or", "state"), lambda: GraphTree("or", "state", pi_mode="edge")),
        (
            lambda: GraphTree("or", "state", "skip", repr_name="edge"),
            lambda: GraphTree("or", "state", "compact", repr_name="edge"),
        ),
        (lambda: WordTree("lww", "state"), lambda: WordTree("lww", "state", pi_mode="wootr")),
        (lambda: WordTree("lww", "state", "skip"), lambda: WordTree("lww", "state", "root")),
    ],
)
def test_merge_refuses_a_peer_of_another_combo(mine, theirs):
    tree, peer = grown(mine()), grown(theirs(), "r2")
    before = tree.canonical()
    with pytest.raises(KindMismatch):
        tree.merge(peer, ReplicaClock("r1"))
    assert tree.canonical() == before


def add_and_remove(tree, clock_id):
    """Add two fresh children of the root, then remove one unless grow-only."""
    clock = ReplicaClock(clock_id)
    root = EPSILON if tree.repr_name == "word" else tree.root
    for name in ("zz", "zy"):
        if tree.pi_mode is None:
            op = tree.gen_add(name, root, clock)
        else:
            op = tree.gen_insert(name, root, 0, clock)
    if tree.kind != "g":
        tree.gen_rmv(op.node, clock)


@pytest.mark.parametrize("combo", legal_combos(), ids=lambda c: c.label())
def test_copy_is_independent_in_both_directions(combo):
    scn = random_scenario(combo, seed=3, n_ops=6)
    sim = Simulation(combo, scn.replicas, scn.seed)
    sim.run(scn.script)
    tree = sim.replicas["r1"].tree
    before = shown(tree, payload=True)
    dup = tree.copy()
    assert shown(dup, payload=True) == before
    add_and_remove(dup, "copy")
    assert shown(dup, payload=True) != before
    assert shown(tree, payload=True) == before
    dup = tree.copy()
    add_and_remove(tree, "original")
    assert shown(tree, payload=True) != before
    assert shown(dup, payload=True) == before


@pytest.mark.parametrize("combo", legal_combos(), ids=lambda c: c.label())
def test_state_is_an_exact_hashable_copy_of_the_payload(combo):
    scn = random_scenario(combo, seed=42)
    sim = Simulation(combo, scn.replicas, scn.seed)
    texts = {}
    for action in scn.script:
        sim.apply(action)
        for rep in sim.replicas.values():
            state = rep.tree.state()
            assert rep.tree.copy().state() == state
            # the checker dumps one tree per distinct state: equal states show alike
            text = shown(rep.tree, payload=True)
            assert texts.setdefault(state, text) == text
    if combo.flavor == "op":
        assert len({rep.tree.state() for rep in sim.replicas.values()}) == 1


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "treecrdt", "check", "--repr", "graph", "--set", "or",
         "--flavor", "op", "--connect", "skip", "--map", "shortest", "--pi", "plain"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("checking 1 combos seed=42 ops=5\n")
    assert proc.stdout.endswith("checked 1 combos: all pass\n")


# what perfbench/workloads.py imports from the package root, and nothing more
ROOT_NAMES = [
    "Simulation",
    "check_convergence",
    "legal_combos",
    "oracle_membership",
    "parse_combo",
    "tree_validity",
]


def test_every_exported_name_resolves():
    import treecrdt

    assert sorted(treecrdt.__all__) == ROOT_NAMES
    assert [n for n in treecrdt.__all__ if not hasattr(treecrdt, n)] == []
    assert len(set(treecrdt.__all__)) == len(treecrdt.__all__)
    namespace: dict = {}
    exec("from treecrdt import *", namespace)
    assert set(treecrdt.__all__) <= set(namespace)


def test_the_benchmark_imports_and_instruments_the_package(monkeypatch):
    """The benchmark's modules import, and its tracer finds every name it
    wraps, ``harness.linear_extensions`` and ``harness.oracle_mismatches``
    among them, and puts each original back."""
    from treecrdt import harness

    monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
    try:
        import spans
        import workloads

        assert workloads.WORKLOADS
        wrapped = (harness.linear_extensions, harness.oracle_mismatches)
        with spans.instrumented(spans.Tracer()) as tracer:
            assert tracer.patched
            assert harness.linear_extensions is not wrapped[0]
            assert harness.oracle_mismatches is not wrapped[1]
        assert tracer.patched == []
        assert (harness.linear_extensions, harness.oracle_mismatches) == wrapped
    finally:
        for name in ("spans", "workloads", "speed"):
            sys.modules.pop(name, None)
