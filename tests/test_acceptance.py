"""End-to-end checks of the headline guarantees, one test per criterion."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from typing import List, Set

import pytest

from helpers import TombstoneSequence, gen_remove, same_tree
from treecrdt.cli import main
from treecrdt.clocks import ReplicaClock
from treecrdt.demos import CYCLE_SCRIPT, DEMOS, WORD_SCRIPT
from treecrdt.errors import SeveralBlowup
from treecrdt.graph import GraphTree
from treecrdt.harness import (
    ComboSpec,
    ConvergenceReport,
    Simulation,
    check_convergence,
    legal_combos,
    linear_extensions,
    oracle_membership,
    random_scenario,
)
from treecrdt.policies import CONNECT_POLICIES
from treecrdt.render import render
from treecrdt.sets import ADD, make_set
from treecrdt.wootr import BEGIN, END, WootrSequence, wootr_order

KINDS = ("g", "2p", "lww", "c", "or")


@pytest.fixture(scope="module")
def matrix() -> List[ConvergenceReport]:
    """One exhaustive delivery-order report per legal combo, shared below."""
    return [
        check_convergence(combo, n_ops=5, n_replicas=3, seed=42)
        for combo in legal_combos()
    ]


def _replay(combo: ComboSpec, scn) -> Simulation:
    sim = Simulation(combo, scn.replicas, scn.seed)
    for action in scn.script:
        record = sim.execute(action)
        assert record.violation is None, (combo.label(), action, record.violation)
    return sim


def _snapshot(sim: Simulation, rid: str) -> tuple:
    tree = sim.replicas[rid].tree
    parts = [tree.lookup().dump()]
    for attr in ("nodes", "edges"):
        payload = getattr(tree, attr, None)
        if payload is not None:
            parts.append(" ".join(sorted(render(e) for e in payload.lookup())))
    return tuple(parts)


# --- criterion 1: the pruned-chain word tree under all four policies ---

WORD_DEMO = """word-example: r1 grows a chain to abcdefg while r2 and r3 concurrently
remove the single links abc and abcdef
script (word or op <connect> - plain):
  r1 add a /
  r1 add b /a
  r1 add c /a
  r1 add c /a/b
  r2 deliver r1
  r1 add d /a/b/c
  r1 add e /a/b/c/d
  r1 add f /a/b/c/d/e
  r2 rmv /a/b/c
  r3 deliver r1
  r3 rmv /a/b/c/d/e/f
  r1 add g /a/b/c/d/e/f
  sync

live paths {/, a, ab, ac, abcd, abcde, abcdefg}
skip     {/, a, ab, ac}
  /
    a
      b
      c
reappear {/, a, ab, ac, abc, abcd, abcde, abcdef, abcdefg}
  /
    a
      b
        c ~
          d
            e
              f ~
                g
      c
  note: the recreated chain contains abcdef, the prefix of abcdefg; a reading that gives abcef drops the d
root     {/, a, d, g, ab, ac, de}
  /
    a
      b
      c
    d
      e
    g
compact  {/, a, ab, ac, abd, abde, abdeg}
  /
    a
      b
        d
          e
            g
      c
"""


def test_criterion_01_word_example_policy_sets(capsys):
    assert main(["demo", "word-example"]) == 0
    out = capsys.readouterr().out
    assert out == WORD_DEMO
    for line in (
        "skip     {/, a, ab, ac}",
        "reappear {/, a, ab, ac, abc, abcd, abcde, abcdef, abcdefg}",
        "root     {/, a, d, g, ab, ac, de}",
        "compact  {/, a, ab, ac, abd, abde, abdeg}",
    ):
        assert line in out
    assert "a reading that gives abcef drops the d" in out
    # recompute each policy set and check reappear against prefix closure
    shown = {}
    live: Set[str] = set()
    for connect in CONNECT_POLICIES:
        combo = ComboSpec("word", "or", "op", connect, None, None)
        sim = Simulation(combo, 3, 3)
        for action in WORD_SCRIPT:
            assert sim.execute(action).violation is None
        tree = sim.replicas["r1"].tree
        shown[connect] = {""} | {"".join(p) for p in tree.lookup().instances}
        if connect == "skip":
            live = {""} | {"".join(p) for p in tree.live_paths()}
    assert live == {"", "a", "ab", "ac", "abcd", "abcde", "abcdefg"}
    closure = {p[:i] for p in live for i in range(len(p) + 1)}
    assert shown["reappear"] == closure
    assert "abcdef" in closure and "abcef" not in closure
    assert shown["skip"] == {
        p for p in live if all(p[:i] in live for i in range(len(p)))
    }
    assert shown["root"] == {"", "a", "ab", "ac", "d", "de", "g"}
    assert shown["compact"] == {"", "a", "ab", "ac", "abd", "abde", "abdeg"}


# --- criteria 2-4 and 7: the full combo matrix under every delivery order ---


def test_criterion_02_full_matrix_convergence(matrix):
    assert len(matrix) == 784
    assert all(report.schedules > 0 for report in matrix)
    assert sum(report.schedules for report in matrix) == 15161
    assert [line for report in matrix for line in report.divergences] == []


def test_criterion_03_every_step_is_a_valid_tree(matrix):
    assert [v for report in matrix for v in report.validity_violations] == []


def test_criterion_04_membership_matches_the_history_rule(matrix):
    assert [m for report in matrix for m in report.oracle_mismatches] == []
    # the rule itself discriminates, so the zero above is not vacuous
    probe = make_set("or", "op")
    clock = ReplicaClock("probe", 0)
    added = probe.gen_add("a", clock)
    assert oracle_membership("or", [added], "a")
    removed = probe.gen_rmv("a", clock)
    assert not oracle_membership("or", [added, removed], "a")


def test_criterion_07_monotone_policies_never_move_survivors(matrix):
    assert [m for report in matrix for m in report.monotonic_violations] == []
    moves = Counter()
    for report in matrix:
        moves[report.combo.connect_policy] += report.parent_moves
    assert moves["root"] > 0
    assert moves["compact"] > 0


# the summary line of every matrix report, joined by newlines, at check seed 42
MATRIX_SUMMARY_DIGEST = "35a048b2903a400e79ab53938c886f315b8fa504e3c9d15fe312747bc2452b1a"


def test_matrix_report_summary_digest(matrix):
    """Pin what the checker says about every legal combo, counts included.

    The criteria above only assert that the failure lists are empty; this
    digest also pins the scenario, schedule and move counts of each report,
    so a change to how the checker drives replicas cannot alter them.
    """
    text = "\n".join(report.summary() for report in matrix)
    assert hashlib.sha256(text.encode()).hexdigest() == MATRIX_SUMMARY_DIGEST


# --- criterion 5: both delivery flavors read the same trees ---


def test_criterion_05_state_and_op_flavors_agree():
    for kind in KINDS:
        for seed in range(200):
            op_combo = ComboSpec("graph", kind, "op", "skip", "shortest", None)
            st_combo = ComboSpec("graph", kind, "state", "skip", "shortest", None)
            scn = random_scenario(op_combo, seed=seed, n_ops=6)
            op_sim = _replay(op_combo, scn)
            st_sim = _replay(st_combo, scn)
            for rid in op_sim.rids:
                left, right = _snapshot(op_sim, rid), _snapshot(st_sim, rid)
                assert left == right, (kind, seed, rid, left, right)


# --- criterion 6: the edge representation matches the graph one ---

SETUP = [("r1", "add", "y", "root"), ("r1", "add", "z", "root"), ("sync",)]
RMV_LAST = SETUP + [
    ("r2", "add", "x", "z"),
    ("r1", "add", "x", "y"),
    ("r1", "rmv", "x"),
    ("sync",),
]
ADD_LAST = SETUP + [
    ("r1", "add", "x", "y"),
    ("r1", "rmv", "x"),
    ("r2", "add", "w", "z"),
    ("r2", "rmv", "w"),
    ("r2", "add", "x", "z"),
    ("sync",),
]
DOUBLE_RMV = SETUP + [
    ("r1", "add", "x", "y"),
    ("r3", "deliver", "r1"),
    ("r1", "rmv", "x"),
    ("r3", "rmv", "x"),
    ("r2", "add", "x", "z"),
    ("sync",),
]


def _run_script(repr_name: str, kind: str, script) -> Simulation:
    combo = ComboSpec(repr_name, kind, "op", "skip", "shortest", None)
    sim = Simulation(combo, 3, 0)
    for action in script:
        assert sim.execute(action).violation is None
    return sim


def test_criterion_06_edge_and_graph_representations_agree():
    # fresh-name histories built against a skip mirror stay legal for both
    # representations: every offered parent has a live incoming edge
    for kind in ("g", "2p", "or"):
        for seed in range(200):
            connect = CONNECT_POLICIES[seed % 4]
            mp = ("several", "shortest", "zero")[seed % 3]
            flavor = ("op", "state")[seed % 2]
            g_combo = ComboSpec("graph", kind, flavor, connect, mp, None)
            e_combo = ComboSpec("edge", kind, flavor, connect, mp, None)
            mirror = ComboSpec("graph", kind, flavor, "skip", mp, None)
            scn = random_scenario(mirror, seed=seed, n_ops=6, fresh_only=True)
            g_sim, e_sim = _replay(g_combo, scn), _replay(e_combo, scn)
            for rid in g_sim.rids:
                gd = g_sim.replicas[rid].tree.lookup().dump()
                ed = e_sim.replicas[rid].tree.lookup().dump()
                assert gd == ed, (kind, seed, rid, gd, ed)
    # per-node and per-edge stamps part ways when a remove races a re-add:
    # the edge payload keeps the surviving (z, x) arc the node payload drops
    g = _run_script("graph", "lww", RMV_LAST)
    e = _run_script("edge", "lww", RMV_LAST)
    assert g.replicas["r1"].tree.lookup().dump() == "root\n  y\n  z"
    assert e.replicas["r1"].tree.lookup().dump() == "root\n  y\n  z\n    x"
    assert ("z", "x") in set(e.replicas["r1"].tree.edges.lookup())
    # with the re-add stamped newest both representations keep x under z
    g = _run_script("graph", "lww", ADD_LAST)
    e = _run_script("edge", "lww", ADD_LAST)
    assert g.replicas["r1"].tree.lookup().dump() == "root\n  y\n  z\n    x"
    assert e.replicas["r1"].tree.lookup().dump() == "root\n  y\n  z\n    x"
    # counters split the same way under a concurrent double remove
    g = _run_script("graph", "c", DOUBLE_RMV)
    e = _run_script("edge", "c", DOUBLE_RMV)
    assert g.replicas["r1"].tree.lookup().dump() == "root\n  y\n  z"
    assert e.replicas["r1"].tree.lookup().dump() == "root\n  y\n  z\n    x"
    assert ("z", "x") in set(e.replicas["r1"].tree.edges.lookup())


# --- criterion 8: the memoized lookup equals a fresh build after every step ---


def _steps_match_build(combo: ComboSpec, seed: int) -> None:
    """After every action, each replica's memoized lookup, patched or
    built, is the same tree as a build from scratch."""
    scn = random_scenario(combo, seed=seed, n_ops=8)
    sim = Simulation(combo, scn.replicas, scn.seed)
    for action in scn.script:
        record = sim.execute(action)
        assert record.violation is None, (combo.label(), action, record.violation)
        for rep in sim.replicas.values():
            memo = rep.tree.lookup()
            built = rep.tree._build_lookup()
            assert same_tree(memo, built), (combo.label(), seed, action, memo.dump(), built.dump())


def test_criterion_08_incremental_lookup_equals_batch():
    histories = 0
    for connect in ("skip", "reappear"):
        for seed in range(200):
            combo = ComboSpec(
                "word", KINDS[seed % 5], ("op", "state")[seed % 2], connect, None, None
            )
            _steps_match_build(combo, seed)
            histories += 1
    for seed in range(100):
        combo = ComboSpec("graph", "2p", "op", "skip", "shortest", None)
        _steps_match_build(combo, seed)
        histories += 1
    assert histories == 500


@pytest.mark.parametrize("seed", [42, 43])
def test_criterion_08_every_combo_memo_equals_a_fresh_build(seed):
    combos = legal_combos()
    assert len(combos) == 784
    for combo in combos:
        _steps_match_build(combo, seed)


# --- criterion 9: tombstone-free sequences converge and match a keeper ---


def _wootr_history(seed: int, n_ops: int = 6):
    rng = random.Random(f"wootr/{seed}")
    seqs = {rid: WootrSequence("or", "op") for rid in ("r1", "r2")}
    clocks = {rid: ReplicaClock(rid, 0) for rid in seqs}
    ops, deps = [], []
    seen = {rid: set() for rid in seqs}
    while len(ops) < n_ops:
        rid = rng.choice(("r1", "r2"))
        seq = seqs[rid]
        if ops and rng.random() < 0.35:
            for i in sorted(set(range(len(ops))) - seen[rid]):
                seq.apply(ops[i])
                seen[rid].add(i)
            continue
        live = wootr_order(seq.elements.lookup())
        if live and rng.random() < 0.30:
            op = gen_remove(seq, rng.choice(live), clocks[rid])
        else:
            line = [BEGIN] + live + [END]
            k = rng.randrange(len(line) - 1)
            op = seq.gen_insert(rng.choice("abcde"), line[k], line[k + 1], clocks[rid])
        deps.append(set(seen[rid]))
        ops.append(op)
        seen[rid].add(len(ops) - 1)
    return ops, deps


def test_criterion_09_wootr_sequences_converge():
    text = DEMOS["wootr-abc"]()
    assert "sequence at r1: abc" in text
    assert "sequence at r2: abc" in text
    for rendered in ("<a.^.$>", "<b.<a.^.$>.$>", "<c.^.$>"):
        assert rendered in text
    orders_total = 0
    for seed in range(60):
        ops, deps = _wootr_history(seed)
        finals = set()
        for order in linear_extensions(deps):
            orders_total += 1
            elems = make_set("or", "op")
            keeper = TombstoneSequence()
            for i in order:
                op = ops[i]
                elems.apply(op)
                if op.verb == ADD:
                    keeper.deliver(op.element)
                live = list(elems.lookup())
                assert wootr_order(live) == keeper.order(live)
            finals.add("".join(str(e.atom) for e in wootr_order(elems.lookup())))
        assert len(finals) == 1, (seed, finals)
    assert orders_total > 300


# --- criterion 11: the cycle resolves finitely and dense graphs are capped ---


class CappedTree(GraphTree):
    several_cap = 5000


def test_criterion_11_cycle_tree_and_blowup_guard():
    combo = ComboSpec("graph", "g", "state", "skip", "several", None)
    sim = Simulation(combo, 2, 3)
    for action in CYCLE_SCRIPT:
        assert sim.execute(action).violation is None
    for rep in sim.replicas.values():
        lt = rep.tree.lookup()
        assert len(lt.instances) == 4
        assert lt.dump() == "root\n  x\n    y/x\n  y\n    x/y"
    # a complete 8-node digraph holds ~10^5 simple paths; the cap stops it
    names = [f"x{i}" for i in range(8)]
    rng = random.Random(0)
    arcs, chains = set(), []
    while len(arcs) < 8 * 7:
        perm = rng.sample(names, 8)
        chains.append(perm)
        arcs.update((perm[i], perm[i + 1]) for i in range(7))
    merged = None
    for k, perm in enumerate(chains):
        contrib = CappedTree("or", "state", "skip", "several")
        clock = ReplicaClock(f"c{k}", 0)
        prev = "root"
        for name in perm:
            contrib.gen_add(name, prev, clock)
            prev = name
        if merged is None:
            merged = contrib
        else:
            merged.merge(contrib)
    assert len(set(merged.edges.lookup())) == 8 * 7 + 8
    with pytest.raises(SeveralBlowup, match="5000"):
        merged.lookup()
