"""Simulator and convergence-checker tests, including a planted-bug check."""

import dataclasses
import hashlib
import itertools
import random
import re
from collections import Counter

import pytest

from helpers import hiding_tree, known_ops, listed_oracle_mismatches
from treecrdt import cli, harness
from treecrdt.clocks import ReplicaClock, VectorClock
from treecrdt.errors import (
    IllegalCombo,
    PreconditionViolation,
    ScenarioError,
    SeveralBlowup,
    WalkBlowup,
)
from treecrdt.graph import GraphTree
from treecrdt.lookup import LookupTree
from treecrdt.ordered import PositionedNode
from treecrdt.paths import WordTree
from treecrdt.policies import CONNECT_POLICIES, MAP_POLICIES
from treecrdt.render import Path
from treecrdt.sets import FLAVORS, KINDS
from treecrdt.harness import (
    ComboSpec,
    ConvergenceReport,
    Scenario,
    Simulation,
    _check_generated,
    _check_one,
    _generate,
    _shrink,
    _walk,
    causal_deps,
    check_convergence,
    legal_combos,
    linear_extensions,
    make_tree,
    oracle_membership,
    parse_combo,
    parse_scenario,
    random_scenario,
    run_scenario,
    PI_MODES,
    REPRS,
    serialize_scenario,
    witness_map,
    witness_moves,
)
from treecrdt.clocks import LamportStamp, Tag
from treecrdt.sets import ADD, RMV, SetOp


# --- combos ---


def test_every_legal_combo_builds_one_of_two_engines():
    assert {type(make_tree(c)) for c in legal_combos()} == {GraphTree, WordTree}


def test_several_instances_keep_their_identity_when_the_graph_becomes_a_tree():
    combo = parse_combo("edge or op skip several plain".split())
    report = check_convergence(combo, seed=34)
    assert report.monotonic_violations == []
    assert report.passed


def test_legal_combo_count():
    combos = legal_combos()
    assert len(combos) == 784
    assert len({c.label() for c in combos}) == 784


def test_legal_combo_distribution():
    counts = {}
    for c in legal_combos():
        key = (c.repr_name, c.pi_mode)
        counts[key] = counts.get(key, 0) + 1
    assert counts == {
        ("graph", None): 152,
        ("graph", "node"): 24,
        ("graph", "edge"): 152,
        ("graph", "wootr"): 104,
        ("edge", None): 152,
        ("edge", "edge"): 24,
        ("edge", "wootr"): 104,
        ("word", None): 40,
        ("word", "edge"): 8,
        ("word", "wootr"): 24,
    }


def test_combo_labels_round_trip():
    for combo in legal_combos():
        assert parse_combo(combo.label().split()) == combo


@pytest.mark.parametrize(
    "combo",
    [
        ComboSpec("word", "g", "op", "skip", "several", None),
        ComboSpec("graph", "g", "op", "skip", None, None),
        ComboSpec("graph", "g", "op", "skip", "newest", None),
        ComboSpec("graph", "lww", "op", "skip", "highest", None),
        ComboSpec("edge", "g", "op", "skip", "shortest", "node"),
        ComboSpec("graph", "or", "op", "skip", "shortest", "node"),
        ComboSpec("edge", "or", "op", "skip", "shortest", "edge"),
        ComboSpec("word", "g", "op", "skip", None, "edge"),
        ComboSpec("word", "or", "op", "skip", None, "node"),
        ComboSpec("graph", "g", "op", "skip", "shortest", "wootr"),
        ComboSpec("word", "2p", "op", "skip", None, "wootr"),
        ComboSpec("river", "g", "op", "skip", "shortest", None),
        ComboSpec("graph", "g", "op", "melt", "shortest", None),
    ],
)
def test_illegal_combos_rejected(combo):
    with pytest.raises(IllegalCombo):
        make_tree(combo)


CANDIDATES = list(
    itertools.product(
        REPRS, KINDS, FLAVORS, CONNECT_POLICIES, MAP_POLICIES + (None,), PI_MODES
    )
)


def build_directly(c: ComboSpec):
    """The combo's engine built by hand; a word tree takes no mapping policy."""
    if c.repr_name == "word":
        return WordTree(c.kind, c.flavor, c.connect_policy, c.pi_mode)
    return GraphTree(c.kind, c.flavor, c.connect_policy, c.map_policy, c.repr_name, c.pi_mode)


def builds(make, combo: ComboSpec) -> bool:
    try:
        make(combo)
    except IllegalCombo:
        return False
    return True


def test_an_engine_constructs_exactly_the_combos_make_tree_builds():
    assert len(CANDIDATES) == 2880
    direct = 0
    for choices in CANDIDATES:
        combo = ComboSpec(*choices)
        word_map = combo.repr_name == "word" and combo.map_policy is not None
        ok = not word_map and builds(build_directly, combo)
        assert ok == builds(make_tree, combo), combo.label()
        direct += ok
    assert direct == 784


def test_legal_combo_order_digest():
    labels = "\n".join(c.label() for c in legal_combos())
    assert hashlib.sha256(labels.encode()).hexdigest() == (
        "a16008221180f1a2562738318794b10da263e3c2e3d721b57b52afc7c576a67d"
    )


# combos with one fault each, and the text that refuses them
ONE_FAULT_COMBOS = [
    ("graph zz op skip shortest plain", "unknown set kind 'zz'"),
    ("graph or zz skip shortest plain", "unknown flavor 'zz'"),
    ("river or op skip shortest plain", "unknown representation 'river'"),
    ("graph or op skip shortest zz", "unknown positioning mode 'zz'"),
    ("word or op skip - zz", "unknown positioning mode 'zz'"),
    ("graph or op melt shortest plain", "unknown connection policy 'melt'"),
    ("graph or op skip zz plain", "unknown mapping policy 'zz'"),
    ("graph or op skip - plain", "graph trees need a mapping policy"),
    ("edge or op skip - plain", "edge trees need a mapping policy"),
    ("word or op skip shortest plain", "word trees have no mapping stage"),
    ("word or op skip - node", "word trees take positions on steps, not nodes"),
    ("edge 2p op skip shortest node", "node positions pair with the graph representation"),
    ("graph or op skip shortest node", "positioned nodes are add-once, so 2p"),
    ("edge or op skip shortest edge", "positioned edges are add-once, so 2p"),
    ("word or op skip - edge", "positioned path steps are add-once, so 2p"),
]


@pytest.mark.parametrize("label, text", ONE_FAULT_COMBOS)
def test_one_fault_combo_is_refused_with_its_text(label, text):
    combo = parse_combo(label.split())
    makers = [make_tree]
    if combo.repr_name != "word" or combo.map_policy is None:
        makers.append(build_directly)
    for make in makers:
        with pytest.raises(IllegalCombo) as exc:
            make(combo)
        assert str(exc.value) == text


@pytest.mark.parametrize("label, text", ONE_FAULT_COMBOS)
def test_run_refuses_a_one_fault_combo_with_exit_2(capsys, tmp_path, label, text):
    path = tmp_path / "bad.scn"
    path.write_text(f"combo {label}\nsync\n")
    assert cli.main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f": {text}\n")


def test_monotone_classification():
    assert ComboSpec("graph", "or", "op", "skip", "zero").is_monotone()
    assert ComboSpec("graph", "or", "op", "reappear", "several").is_monotone()
    assert ComboSpec("word", "or", "op", "skip", None).is_monotone()
    assert not ComboSpec("graph", "or", "op", "root", "zero").is_monotone()
    assert not ComboSpec("graph", "or", "op", "skip", "shortest").is_monotone()
    assert not ComboSpec("word", "or", "op", "compact", None).is_monotone()


# --- scenario files ---


def test_scenario_round_trip():
    combo = ComboSpec("graph", "or", "op", "skip", "shortest", None)
    s = Scenario(
        combo=combo,
        replicas=2,
        seed=9,
        script=[("r1", "add", "a", "root"), ("sync",), ("r2", "rmv", "a")],
    )
    assert parse_scenario(serialize_scenario(s)) == s


def test_scenario_parse_ignores_comments_and_blanks():
    text = """
# a comment
combo word or op skip - plain   # trailing note

r1 add a /
sync
"""
    s = parse_scenario(text)
    assert s.combo.repr_name == "word"
    assert s.script == [("r1", "add", "a", "/"), ("sync",)]


def test_scenario_parse_reports_line_numbers():
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario("combo graph g op skip zero plain\nr1 add a root\nr1 frobnicate a\n")
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("combo graph g op skip zero plain\nseed notanumber\n")
    with pytest.raises(ScenarioError, match="combo"):
        parse_scenario("r1 add a root\n")
    with pytest.raises(ScenarioError, match="6 fields"):
        parse_scenario("combo graph g op\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("r1 add a", "add takes 2 argument"),
        ("r1 add a root extra", "add takes 2 argument"),
        ("r1 rmv", "rmv takes 1 argument"),
        ("r1 insert a root", "insert takes 3 argument"),
        ("r1 insert a root x", "invalid literal"),
        ("r1 deliver", "deliver takes 1 argument"),
        ("r1 merge r2 r3", "merge takes 1 argument"),
    ],
)
def test_scenario_parse_checks_each_verbs_arguments(line, message):
    text = f"combo graph or op skip shortest plain\nr1 add a root\n{line}\n"
    with pytest.raises(ScenarioError, match=f"line 3: .*{message}"):
        parse_scenario(text)


@pytest.mark.parametrize(
    "line, message",
    [
        ("replicas 0", "at least 1 replica"),
        ("replicas -2", "at least 1 replica"),
        ("replicas", "replicas takes 1 argument"),
        ("replicas 2 3", "replicas takes 1 argument"),
        ("seed 1 2", "seed takes 1 argument"),
    ],
)
def test_scenario_parse_checks_the_replicas_and_seed_lines(line, message):
    text = f"combo graph or op skip shortest plain\n{line}\nsync\n"
    with pytest.raises(ScenarioError, match=f"line 2: .*{message}"):
        parse_scenario(text)


@pytest.mark.parametrize(
    "header, line",
    [
        ("combo", "combo word g state skip - plain"),
        ("replicas", "replicas 2"),
        ("seed", "seed 9"),
    ],
)
def test_scenario_parse_refuses_a_second_header_line(header, line):
    """A repeated header is refused, not read as the last copy: with a
    second combo and replicas line, ``r3`` would name no replica."""
    text = (
        "combo graph or op skip shortest plain\nreplicas 3\nseed 4\n"
        f"r3 add a root\n{line}\n"
    )
    with pytest.raises(ScenarioError, match=f"line 5: a scenario has one {header} line"):
        parse_scenario(text)


@pytest.mark.parametrize(
    "flavor, verb", [("op", "deliver"), ("state", "merge")]
)
def test_execute_rejects_an_unknown_source_replica(flavor, verb):
    sim = Simulation(ComboSpec("graph", "or", flavor, "skip", "shortest", None), 2)
    with pytest.raises(ScenarioError, match="unknown replica 'r9'"):
        sim.execute(("r1", verb, "r9"))


@pytest.mark.parametrize(
    "action, message",
    [
        (("r1", "deliver"), "deliver takes 1 argument"),
        (("r1", "add", "x"), "add takes 2 argument"),
        (("r1", "insert", "x", "root", "z"), "invalid literal"),
        (("r1", "frobnicate", "x"), "unknown action"),
        (("sync", "now"), "unknown action"),
        (("r1",), "unknown action"),
        ((), "unknown action"),
    ],
)
def test_execute_refuses_a_malformed_action_as_the_parser_does(action, message):
    sim = Simulation(ComboSpec("graph", "or", "op", "skip", "shortest", None), 2, 1)
    with pytest.raises(ScenarioError, match=message):
        sim.execute(action)
    assert sim.local_ops == [] and sim.envelopes == []


@pytest.mark.parametrize(
    "combo, action",
    [
        (ComboSpec("word", "or", "op", "skip", None, None), ("r1", "add", "a/b", "/")),
        (ComboSpec("word", "2p", "op", "skip", None, "edge"), ("r1", "insert", "a/b", "/", "0")),
    ],
)
def test_a_malformed_word_atom_touches_neither_tree_nor_clock(combo, action):
    refused, untouched = Simulation(combo, 1), Simulation(combo, 1)
    with pytest.raises(ScenarioError, match="'a/b'"):
        refused.execute(action)
    # the same action with a good atom draws the same position and stamps
    good = action[:2] + ("a",) + action[3:]
    for sim in (refused, untouched):
        sim.execute(good)
    assert refused.replicas["r1"].tree.canonical() == untouched.replicas["r1"].tree.canonical()


# --- transcripts ---


GOLDEN_TRANSCRIPT = """combo graph or op skip shortest plain
replicas 2 seed 7
step 1 replica r1 add a root
  root
    a
step 2 replica r1 add b a
  root
    a
      b
step 3 replica r2 deliver r1
  root
    a
      b
step 4 replica r2 add c b
  root
    a
      b
        c
step 5 replica r1 rmv b
  root
    a
step 6 sync
  replica r1
    root
      a
  replica r2
    root
      a
final
  replica r1
    root
      a
  replica r2
    root
      a
"""


def test_run_scenario_transcript_golden():
    combo = ComboSpec("graph", "or", "op", "skip", "shortest", None)
    s = Scenario(
        combo=combo,
        replicas=2,
        seed=7,
        script=[
            ("r1", "add", "a", "root"),
            ("r1", "add", "b", "a"),
            ("r2", "deliver", "r1"),
            ("r2", "add", "c", "b"),
            ("r1", "rmv", "b"),
            ("sync",),
        ],
    )
    assert run_scenario(s) == GOLDEN_TRANSCRIPT


def test_run_scenario_records_violations():
    combo = ComboSpec("graph", "g", "state", "skip", "zero", None)
    s = Scenario(combo=combo, replicas=2, seed=1, script=[("r1", "add", "a", "ghost")])
    out = run_scenario(s)
    assert "violation: parent ghost is not in the tree" in out


def test_run_scenario_flavor_guards():
    combo = ComboSpec("graph", "g", "state", "skip", "zero", None)
    s = Scenario(combo=combo, replicas=2, seed=1, script=[("r2", "deliver", "r1")])
    assert "violation: deliver needs the op flavor" in run_scenario(s)
    combo = ComboSpec("graph", "g", "op", "skip", "zero", None)
    s = Scenario(combo=combo, replicas=2, seed=1, script=[("r2", "merge", "r1")])
    assert "violation: merge needs the state flavor" in run_scenario(s)


@pytest.mark.parametrize(
    "combo, parent",
    [
        (ComboSpec("graph", "or", "op", "skip", "shortest", None), "root"),
        (ComboSpec("word", "or", "op", "skip", None, None), "/"),
    ],
)
def test_run_scenario_insert_needs_a_positioned_tree(combo, parent):
    s = Scenario(combo=combo, replicas=2, seed=1, script=[("r1", "insert", "x", parent, "0")])
    assert "violation: insert needs a positioned tree" in run_scenario(s)


def test_random_scenario_is_deterministic():
    combo = ComboSpec("edge", "or", "op", "reappear", "several", None)
    a = random_scenario(combo, seed=5)
    b = random_scenario(combo, seed=5)
    assert a == b
    assert run_scenario(a) == run_scenario(b)
    assert random_scenario(combo, seed=6) != a


CYCLE_SCRIPT = [
    ("r1", "add", "x", "root"),
    ("r1", "add", "y", "x"),
    ("r2", "add", "y", "root"),
    ("r2", "add", "x", "y"),
    ("sync",),
]


def test_concurrent_cycle_under_several_keeps_every_path():
    combo = ComboSpec("graph", "g", "state", "skip", "several", None)
    sim = Simulation(combo, 2, 3)
    for action in CYCLE_SCRIPT:
        assert sim.execute(action).violation is None
    lt = sim.replicas["r1"].tree.lookup()
    assert len(lt.instances) == 4
    assert lt.dump() == "root\n  x\n    y/x\n  y\n    x/y"


def test_final_dumps_record_a_blowup_as_execute_does():
    combo = ComboSpec("graph", "g", "state", "skip", "several", None)
    sim = Simulation(combo, 2, 1)
    for rep in sim.replicas.values():
        rep.tree.several_cap = 3
    script = [
        ("r1", "add", "a", "root"),
        ("r1", "add", "b", "root"),
        ("r2", "merge", "r1"),
        ("r1", "add", "c", "a"),
        ("r2", "add", "c", "b"),
        ("r1", "add", "d", "c"),
        ("sync",),
    ]
    records = sim.run(script)
    blowup = "blowup: all-paths mapping exceeded the instance cap of 3"
    assert records[-1].dumps == [("r1", blowup), ("r2", blowup)]
    assert sim.final_dumps() == {"r1": blowup, "r2": blowup}


def test_concurrent_cycle_under_zero_keeps_only_root():
    combo = ComboSpec("graph", "g", "state", "skip", "zero", None)
    sim = Simulation(combo, 2, 3)
    for action in CYCLE_SCRIPT:
        assert sim.execute(action).violation is None
    for rep in sim.replicas.values():
        assert rep.tree.lookup().dump() == "root"


@pytest.mark.parametrize("seed", [42, 43])
def test_every_name_a_replica_lists_resolves_to_what_it_names(seed):
    """After each step of each combo's random scenario, every replica
    resolves each name it lists to a node it shows under that name.

    A word name resolves through the first sibling of each label, so a
    name that runs through a label two shown siblings share (positioned
    steps allow that) may be refused; every other name resolves."""
    resolved = 0
    for combo in legal_combos():
        scn = random_scenario(combo, seed)
        sim = Simulation(combo, scn.replicas, scn.seed)
        for action in scn.script:
            sim.apply(action)
            for rep in sim.replicas.values():
                try:
                    lt = rep.tree.lookup()
                except SeveralBlowup:
                    continue
                if combo.repr_name == "word":
                    shared = Counter(label_path(lt, key) for key in lt.instances)
                for name in rep.tree.names():
                    where = (combo.label(), action, name)
                    if combo.repr_name != "word":
                        got = rep.tree.resolve(name)
                        assert got in lt.nodes_present(), where
                        element = got.element if isinstance(got, PositionedNode) else got
                        assert element == name, where
                    else:
                        steps = name.split("/")[1:]
                        prefixes = ("/" + "/".join(steps[:k]) for k in range(1, len(steps) + 1))
                        if any(shared[p] > 1 for p in prefixes):
                            continue
                        got = rep.tree.resolve(name)
                        assert got in lt.instances and label_path(lt, got) == name, where
                    resolved += 1
    assert resolved > 0


# a name runs through the first sibling of each label, so a node below a
# later sibling of the same label has no name that reaches it; this waits
# for unambiguous word names (ROADMAP item 9)
@pytest.mark.xfail(raises=PreconditionViolation)
@pytest.mark.parametrize(
    "label, unreachable",
    [("word 2p state root - edge", "/c/e"), ("word 2p op compact - edge", "/c/d")],
)
def test_every_listed_word_name_resolves(label, unreachable):
    combo = parse_combo(label.split())
    scn = random_scenario(combo, 42)
    sim = Simulation(combo, scn.replicas, scn.seed)
    for action in scn.script:
        sim.apply(action)
    for rep in sim.replicas.values():
        assert unreachable in rep.tree.names()
        for name in rep.tree.names():
            rep.tree.resolve(name)


def label_path(lt, key) -> str:
    """The labels from the root down to the shown instance at key."""
    labels = []
    while key:
        labels.append(lt.instances[key].label)
        key = lt.instances[key].parent
    return "/" + "/".join(reversed(labels))


# --- membership oracle ---


def stamp(counter, origin="r1"):
    return LamportStamp(counter, origin)


def test_oracle_grow_only_and_two_phase():
    adds = [SetOp(ADD, "a")]
    both = adds + [SetOp(RMV, "a")]
    assert oracle_membership("g", adds, "a")
    assert oracle_membership("g", both, "a")
    assert not oracle_membership("g", [], "a")
    assert oracle_membership("2p", adds, "a")
    assert not oracle_membership("2p", both, "a")


def test_oracle_lww_takes_the_latest_stamp():
    ops = [
        SetOp(ADD, "a", stamp=stamp(1)),
        SetOp(RMV, "a", stamp=stamp(3)),
        SetOp(ADD, "a", stamp=stamp(2)),
    ]
    assert not oracle_membership("lww", ops, "a")
    ops.append(SetOp(ADD, "a", stamp=stamp(4, "r2")))
    assert oracle_membership("lww", ops, "a")


def test_oracle_counter_sums_deltas():
    ops = [SetOp(ADD, "a", delta=1), SetOp(RMV, "a", delta=-1)]
    assert not oracle_membership("c", ops, "a")
    ops.append(SetOp(ADD, "a", delta=1))
    assert oracle_membership("c", ops, "a")
    ops.append(SetOp(RMV, "a", delta=-1))
    assert not oracle_membership("c", ops, "a")


def test_oracle_or_needs_an_uncovered_tag():
    t1, t2 = Tag("r1", 1), Tag("r2", 1)
    ops = [SetOp(ADD, "a", tag=t1), SetOp(RMV, "a", tags=frozenset({t1}))]
    assert not oracle_membership("or", ops, "a")
    ops.append(SetOp(ADD, "a", tag=t2))
    assert oracle_membership("or", ops, "a")


def walk_with_spied_oracle(monkeypatch, scn, factory=None):
    """Replay scn and walk its delivered sets, checking at each miss that
    the oracle findings are the ones ``listed_oracle_mismatches``, the
    per-element reference, gives over the listed delivered ops.  Returns
    the simulation, every vector observed, and the oracle findings."""
    sim = Simulation(scn.combo, scn.replicas, scn.seed, factory)
    for action in scn.script:
        sim.apply(action)  # a planted defect may refuse some
    observed, texts = set(), []
    check_state = harness._check_state

    def spied(sim, tree, vector, base):
        observed.add(vector)
        findings, witness = check_state(sim, tree, vector, base)
        known = VectorClock(dict(zip(sim.rids, vector)))
        listed = listed_oracle_mismatches(sim.combo, tree, known_ops(sim, known))
        oracle = [msg for name, msg in findings if name == "oracle_mismatches"]
        if witness is not None:
            assert oracle == listed
        texts.extend(oracle)
        return findings, witness

    monkeypatch.setattr(harness, "_check_state", spied)
    _walk(scn, sim, ConvergenceReport(combo=scn.combo), {})
    monkeypatch.undo()
    return sim, observed, texts


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("kind", KINDS)
def test_the_oracle_fold_is_oracle_membership(monkeypatch, kind, flavor):
    """At every delivered vector the walk reaches, each payload set's fold
    names exactly the elements the ops name, and expects live exactly the
    ones ``oracle_membership`` holds for."""
    combo = ComboSpec("graph", kind, flavor, "skip", "shortest", None)
    for seed in (42, 43):
        scn = random_scenario(combo, seed, n_ops=20, final_sync=flavor == "op")
        sim, observed, texts = walk_with_spied_oracle(monkeypatch, scn)
        assert texts == [] and len(observed) > 1
        assert observed <= set(sim.folds)
        for vector, fold in sim.folds.items():
            ops = known_ops(sim, VectorClock(dict(zip(sim.rids, vector))))
            for k, (summaries, live) in enumerate(fold.parts):
                history = {}
                for sub in (sub for op in ops for sub in (op.edge_ops if k else op.node_ops)):
                    history.setdefault(sub.element, []).append(sub)
                assert set(summaries) == set(history)
                assert live == {e for e, mine in history.items() if oracle_membership(kind, mine, e)}


def test_a_planted_mismatch_reads_as_oracle_mismatches_gives_it(monkeypatch):
    combo = ComboSpec("graph", "or", "op", "skip", "shortest", None)
    scn = random_scenario(combo, 42, n_ops=20, final_sync=True)
    asked = []
    membership = harness.oracle_membership
    monkeypatch.setattr(
        harness, "oracle_membership", lambda *args: asked.append(args) or membership(*args)
    )
    _, _, texts = walk_with_spied_oracle(monkeypatch, scn, hiding_tree)
    assert texts and all(text == "nodes set disagrees on a: oracle=True lookup=False" for text in texts)
    # the checker words each mismatch from the fold, never from the per-element rule
    assert asked == []


# --- delivery schedules ---


def make_envelopes():
    """r1 sends two ops; r2 sends one after seeing the first."""
    c1, c2 = ReplicaClock("r1", 0), ReplicaClock("r2", 0)
    e1 = c1.wrap("op1")
    e2 = c1.wrap("op2")
    c2.accept(e1)
    e3 = c2.wrap("op3")
    return [e1, e2, e3]


def test_causal_deps_track_fifo_and_cross_replica():
    deps = causal_deps(make_envelopes())
    assert deps == [set(), {0}, {0}]


def test_linear_extensions_respect_deps():
    deps = causal_deps(make_envelopes())
    orders = linear_extensions(deps)
    assert sorted(orders) == [(0, 1, 2), (0, 2, 1)]


# --- convergence checking ---


@pytest.mark.parametrize(
    "combo",
    [
        ComboSpec("graph", "or", "op", "skip", "zero", None),
        ComboSpec("graph", "lww", "state", "root", "newest", None),
        ComboSpec("edge", "c", "op", "compact", "highest", None),
        ComboSpec("word", "2p", "state", "reappear", None, None),
        ComboSpec("graph", "2p", "op", "skip", "shortest", "node"),
        ComboSpec("word", "or", "op", "skip", None, "wootr"),
    ],
)
def test_check_convergence_passes(combo):
    report = check_convergence(combo, n_ops=4, scenarios=1)
    assert report.passed, report.summary()
    assert report.schedules > 0
    assert "pass" in report.summary()


@pytest.mark.parametrize(
    "sizes, message",
    [
        ({"n_replicas": 0}, "at least 1 replica"),
        ({"n_ops": -1}, "cannot be negative"),
        ({"scenarios": 0}, "at least 1 scenario"),
        ({"scenarios": -1}, "at least 1 scenario"),
    ],
)
def test_check_convergence_refuses_bad_sizes(sizes, message):
    combo = ComboSpec("graph", "or", "op", "skip", "shortest", None)
    with pytest.raises(ValueError, match=message):
        check_convergence(combo, **sizes)
    if "n_replicas" in sizes:
        # the generator refuses a size that leaves it nothing to run, too
        with pytest.raises(ValueError, match=message):
            random_scenario(combo, 42, replicas=sizes["n_replicas"])


@pytest.mark.parametrize("replicas", [1, 3, 8])
def test_a_state_walk_joins_every_subset_of_the_replicas(replicas):
    combo = ComboSpec("graph", "or", "state", "skip", "shortest", None)
    report = check_convergence(combo, n_replicas=replicas)
    assert report.passed, report.summary()
    assert report.scenarios == 2
    assert report.schedules == 2**replicas * report.scenarios


def test_the_walk_is_capped_with_a_typed_error(monkeypatch):
    combo = ComboSpec("graph", "or", "op", "skip", "shortest", None)
    assert check_convergence(combo, scenarios=1).schedules > 5
    monkeypatch.setattr(harness, "WALK_CAP", 5)
    with pytest.raises(WalkBlowup, match="cap of 5"):
        check_convergence(combo, scenarios=1)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("flavor", ["op", "state"])
def test_a_sync_is_one_pass(monkeypatch, flavor, n):
    combo = ComboSpec("graph", "or", flavor, "skip", "shortest", None)
    sim = Simulation(combo, n, seed=0)
    # the last replica adds first; each earlier one hears from every later
    # one and adds under the newest node, so an op of r1 waits on the ops
    # of every other origin
    exchange = "deliver" if flavor == "op" else "merge"
    parent = "root"
    for k in reversed(range(n)):
        rid = sim.rids[k]
        for src in sim.rids[k + 1 :]:
            assert sim.apply((rid, exchange, src)) is None
        assert sim.apply((rid, "add", f"n{k}", parent)) is None
        assert sim.apply((rid, "add", f"m{k}", "root")) is None
        parent = f"n{k}"
    exchanges = []
    for name in ("deliver_from", "merge_with"):

        def spied(self, rid, src, method=getattr(Simulation, name)):
            exchanges.append((rid, src))
            return method(self, rid, src)

        monkeypatch.setattr(Simulation, name, spied)
    assert sim.apply(("sync",)) is None
    if flavor == "op":
        assert exchanges == [(rid, src) for rid in sim.rids for src in sim.rids if src != rid]
    else:
        # every peer into the first replica, then the first into each peer
        first, peers = sim.rids[0], sim.rids[1:]
        assert exchanges == [(first, src) for src in peers] + [(rid, first) for rid in peers]
    made = Counter(origin for origin, _ in sim.local_ops)
    for rep in sim.replicas.values():
        assert not rep.buffer.pending
        assert rep.clock.delivered == made
    assert len({rep.tree.state() for rep in sim.replicas.values()}) == 1
    if flavor == "state":
        # the walk merges each replica into each subset of the others once
        merges = []
        merge = GraphTree.merge

        def counted(tree, other, clock=None):
            merges.append(other)
            return merge(tree, other, clock)

        monkeypatch.setattr(GraphTree, "merge", counted)
        report = ConvergenceReport(combo=combo)
        scn = Scenario(combo=combo, replicas=n, seed=0, script=[])
        _walk(scn, sim, report, {})
        assert report.passed and report.schedules == 2**n
        assert len(merges) == n * 2 ** (n - 1)


def test_monotone_combo_never_moves_a_survivor():
    combo = ComboSpec("graph", "or", "op", "reappear", "several", None)
    report = check_convergence(combo, n_ops=5, scenarios=3)
    assert report.passed, report.summary()
    assert report.parent_moves == 0


def test_root_policy_moves_an_orphan_to_the_root():
    combo = ComboSpec("graph", "or", "state", "root", "shortest", None)
    sim = Simulation(combo, 2, 7)
    for action in [
        ("r1", "add", "a", "root"),
        ("r1", "add", "b", "a"),
        ("sync",),
        ("r2", "add", "c", "b"),
        ("r1", "rmv", "a"),
    ]:
        assert sim.execute(action).violation is None
    before = witness_map(combo, sim.replicas["r2"].tree.lookup())
    sim.execute(("sync",))
    after = witness_map(combo, sim.replicas["r2"].tree.lookup())
    assert witness_moves(before, after) == ["(c) moved ('b',) -> ()"]
    assert sim.replicas["r2"].tree.lookup().dump() == "root\n  c"


class ArrivalOrderTree(GraphTree):
    """Planted bug: labels leak the local delivery order of adds.

    The order is part of ``state()``, so the visible tree is still a
    function of it, as every tree's must be.
    """

    def __init__(self):
        super().__init__("or", "op", "skip", "shortest")
        self.arrivals = []

    def apply_remote(self, op):
        if op.verb == ADD and op.node not in self.arrivals:
            self.arrivals.append(op.node)
        super().apply_remote(op)

    def state(self):
        return super().state() + (tuple(self.arrivals),)

    def copy(self):
        dup = super().copy()
        dup.arrivals = list(self.arrivals)
        return dup

    def _build(self, *reads):
        lt, _ = super()._build(*reads)
        for inst in lt.instances.values():
            if inst.node in self.arrivals:
                inst.label += f"#{self.arrivals.index(inst.node)}"
        return lt, None


class SharedNodesTree(GraphTree):
    """Planted bug: a copy shares its node set with the tree it copies."""

    def copy(self):
        dup = super().copy()
        dup.nodes = self.nodes
        return dup


@pytest.mark.parametrize("flavor", ["op", "state"])
def test_a_copy_that_shares_state_is_caught(flavor):
    combo = ComboSpec("graph", "or", flavor, "skip", "shortest", None)
    factory = lambda c: SharedNodesTree(c.kind, c.flavor, c.connect_policy, c.map_policy)
    report = ConvergenceReport(combo=combo)
    _check_one(random_scenario(combo, 42, final_sync=True), report, factory)
    assert len(report.divergences) == 1
    assert "changed as a copy of it took a step" in report.divergences[0]
    # the same scenario passes when each copy is independent
    report = ConvergenceReport(combo=combo)
    _check_one(random_scenario(combo, 42, final_sync=True), report, None)
    assert report.passed


def _replayed(sim, order):
    """A fresh tree that has applied sim's envelopes in order."""
    tree = make_tree(sim.combo)
    for i in order:
        tree.apply_remote(sim.envelopes[i].payload)
    return tree


@pytest.mark.parametrize(
    "combo",
    [
        ComboSpec("graph", "or", "op", "skip", "shortest", None),
        ComboSpec("word", "or", "op", "reappear", None, None),
    ],
    ids=lambda c: c.label(),
)
def test_the_walk_builds_each_distinct_state_once(monkeypatch, combo):
    scn = random_scenario(combo, seed=42)
    sim = Simulation(combo, scn.replicas, scn.seed)
    sim.run(scn.script)
    replicas = {id(rep.tree) for rep in sim.replicas.values()}
    orders = linear_extensions(causal_deps(sim.envelopes))
    prefixes = {order[:k] for order in orders for k in range(1, len(order) + 1)}
    # what a prefix's observation depends on: its payload and which ops it holds
    states = {
        (
            _replayed(sim, prefix).state(),
            tuple(sum(sim.envelopes[i].origin == rid for i in prefix) for rid in sim.rids),
        )
        for prefix in prefixes
    }
    # an observer's lookup is a full build or a patch of its last tree,
    # in either engine
    made = Counter()
    for engine in (GraphTree, WordTree):
        build, patch = engine._build, engine._patch

        def counted_build(tree, *reads, build=build):
            made["build"] += id(tree) not in replicas
            return build(tree, *reads)

        def counted_patch(tree, basis, *reads, patch=patch):
            lt = patch(tree, basis, *reads)
            made["patch"] += lt is not None and id(tree) not in replicas
            return lt

        monkeypatch.setattr(engine, "_build", counted_build)
        monkeypatch.setattr(engine, "_patch", counted_patch)
    report = ConvergenceReport(combo=combo)
    _walk(scn, sim, report, {})
    # the walk visits each delivered set, the empty one included, once
    assert report.schedules == len({frozenset(prefix) for prefix in prefixes}) + 1
    # the orders share prefixes, and prefixes share states, so observing
    # every delivery, or every prefix, would make more trees
    assert len(prefixes) < len(orders) * len(sim.envelopes)
    assert len(states) < len(prefixes)
    assert made["build"] + made["patch"] == len(states)
    assert made["patch"] > 0


def test_generating_and_replaying_a_scenario_dump_no_tree(monkeypatch):
    dumps = []
    dump = LookupTree.dump

    def counted(lt):
        dumps.append(lt)
        return dump(lt)

    monkeypatch.setattr(LookupTree, "dump", counted)
    combo = ComboSpec("graph", "or", "op", "skip", "shortest", None)
    scn = random_scenario(combo, seed=42)
    assert scn.script and dumps == []
    report = ConvergenceReport(combo=combo)
    _check_one(scn, report, None)
    assert report.passed and report.schedules > 1
    assert dumps == []


def test_planted_order_dependence_is_caught_and_minimized():
    combo = ComboSpec("graph", "or", "op", "skip", "shortest", None)
    report = check_convergence(
        combo, n_ops=5, scenarios=4, factory=lambda combo: ArrivalOrderTree()
    )
    assert not report.passed
    assert len(report.divergences) == 1
    counterexample = report.divergences[0]
    assert counterexample.startswith("minimized scenario:")
    assert "combo graph or op skip shortest plain" in counterexample
    assert "disagree" in counterexample
    # the planted tree counts remote adds only, so the replica that made
    # an add and a path that delivered it already disagree
    assert counterexample.count(" add ") <= 3


def test_the_cache_separates_equal_payloads_with_other_arrival_orders():
    source, clock = GraphTree("or", "op"), ReplicaClock("r1")
    ops = [source.gen_add("a", "root", clock), source.gen_add("b", "root", clock)]
    trees = [ArrivalOrderTree(), ArrivalOrderTree()]
    for tree, order in zip(trees, (ops, ops[::-1])):
        for op in order:
            tree.apply_remote(op)
    # the sets are equal, but the arrival order is part of state()
    assert GraphTree.state(trees[0]) == GraphTree.state(trees[1])
    assert trees[0].state() != trees[1].state()
    assert trees[0].lookup().dump() != trees[1].lookup().dump()
    # so two paths into one delivered set that hold equal sets are still told apart
    combo = ComboSpec("graph", "or", "op", "skip", "shortest", None)
    for seed in (42, 43, 44, 45):
        report = ConvergenceReport(combo=combo)
        _check_one(random_scenario(combo, seed), report, lambda c: ArrivalOrderTree())
        assert report.divergences
        assert report.divergences[0].startswith(f"seed={seed}: schedules ("), seed


@pytest.mark.parametrize("seed", [42, 43])
def test_a_replica_short_of_some_ops_is_checked_against_its_own_set(seed):
    """Without a final sync a replica holds a proper subset of the ops, and
    is compared with the walk's tree of that subset."""
    failed = []
    for combo in (c for c in legal_combos() if c.flavor == "op"):
        report = ConvergenceReport(combo=combo)
        _check_one(random_scenario(combo, seed, final_sync=False), report, None)
        if not report.passed:
            failed.append(combo.label())
    assert failed == []


def test_a_one_add_script_passes():
    combo = ComboSpec("graph", "or", "op", "skip", "shortest", None)
    report = ConvergenceReport(combo=combo)
    _check_one(Scenario(combo=combo, script=[("r1", "add", "a", "root")]), report, None)
    assert report.passed, report.findings
    assert report.schedules == 2


def test_a_replica_is_one_more_way_into_its_set():
    """r1 applied its add locally, and the walk's path (0,) remotely, so
    the planted tree tells them apart at the set that holds the add."""
    combo = ComboSpec("graph", "or", "op", "skip", "shortest", None)
    report = ConvergenceReport(combo=combo)
    scn = Scenario(combo=combo, script=[("r1", "add", "d", "root")])
    _check_one(scn, report, lambda c: ArrivalOrderTree())
    assert len(report.divergences) == 1
    assert report.divergences[0].startswith("seed=42: schedules (0,) and replica r1 disagree:")


def test_shrink_checks_the_minimized_script_once(monkeypatch):
    combo = ComboSpec("graph", "or", "op", "skip", "shortest", None)
    checked = []
    check_one = harness._check_one

    def spied(scn, report, factory):
        before = len(report.divergences)
        check_one(scn, report, factory)
        checked.append((scn, len(report.divergences) > before))

    monkeypatch.setattr(harness, "_check_one", spied)
    report = check_convergence(
        combo, n_ops=5, scenarios=4, factory=lambda combo: ArrivalOrderTree()
    )
    minimized = [scn for scn, failed in checked if failed][-1]
    assert report.divergences[0].startswith(
        "minimized scenario:\n" + serialize_scenario(minimized)
    )
    assert [scn for scn, _ in checked].count(minimized) == 1
    # the shrink starts from the divergence the generating run reported
    generated = [random_scenario(combo, 42 + k, final_sync=True) for k in range(4)]
    assert not any(scn in generated for scn, _ in checked)


@pytest.mark.parametrize("flavor", ["op", "state"])
def test_each_new_cache_key_folds_only_the_ops_its_base_lacks(monkeypatch, flavor):
    combo = ComboSpec("graph", "or", flavor, "skip", "shortest", None)
    listed, calls, folds, extended, caches = [], [], [], [], []
    fold, membership = Simulation.fold, harness.oracle_membership
    extend, observe = harness.OracleFold.extend, harness._observe

    def counted(kind, history, e):
        listed.append(e)
        return membership(kind, history, e)

    def spied_fold(sim, vector, base):
        calls.append(vector)
        if vector not in sim.folds:
            folds.append((sim, vector, base))
        return fold(sim, vector, base)

    def spied_extend(oracle, kind, ops):
        extended.append(ops)
        return extend(oracle, kind, ops)

    def spied(sim, tree, state, vector, base, prev_witness, cache, report, where):
        caches.append(cache)
        return observe(sim, tree, state, vector, base, prev_witness, cache, report, where)

    monkeypatch.setattr(harness, "oracle_membership", counted)
    monkeypatch.setattr(Simulation, "fold", spied_fold)
    monkeypatch.setattr(harness.OracleFold, "extend", spied_extend)
    monkeypatch.setattr(harness, "_observe", spied)
    report = ConvergenceReport(combo=combo)
    scn = random_scenario(combo, seed=42, final_sync=flavor == "op")
    _check_one(scn, report, None)
    monkeypatch.undo()
    # a passing check asks the per-element rule about no element
    assert report.passed and listed == []
    (cache,) = {id(c): c for c in caches}.values()
    # a miss folds the oracle of its vector once, a hit not at all
    assert len(calls) == len(cache) < len(caches)
    # each vector a cache key holds is folded once, from a vector it
    # dominates, by exactly the sub-ops of the ops that vector lacks
    vectors = [vector for _, vector, _ in folds]
    zero = (0,) * scn.replicas
    assert len(set(vectors)) == len(vectors) == len(extended)
    assert set(vectors) | {zero} == {vector for _, vector in cache} | {zero}
    for (sim, vector, base), ops in zip(folds, extended):
        have = Counter(known_ops(sim, VectorClock(dict(zip(sim.rids, base)))))
        want = Counter(known_ops(sim, VectorClock(dict(zip(sim.rids, vector)))))
        assert have <= want and want - have == Counter(ops)


def _walked_states(monkeypatch, scn):
    """Replay scn, walk its delivered sets, and map each non-empty set, as
    the envelope indices or the replicas of a path into it, to the
    ``state()`` of every path the walk took into it."""
    sim = Simulation(scn.combo, scn.replicas, scn.seed)
    for action in scn.script:
        assert sim.apply(action) is None
    walked = {}
    observe = harness._observe

    def spied(sim, tree, state, vector, base, prev_witness, cache, report, where):
        at = re.search(r"order=\((.*)\) delivery|fold=(\S+)", where())
        members = at[1].replace(",", " ").split() if at[1] is not None else at[2].split("-")
        walked.setdefault(frozenset(members), set()).add(state)
        return observe(sim, tree, state, vector, base, prev_witness, cache, report, where)

    monkeypatch.setattr(harness, "_observe", spied)
    report = ConvergenceReport(combo=scn.combo)
    _walk(scn, sim, report, {})
    monkeypatch.undo()
    assert report.passed, report.findings
    return sim, walked


def _reference_states(sim, orders, step):
    """Each set reached by a prefix of the orders, from a fresh tree, with
    the ``state()`` of every prefix that reached it."""
    reached = {}
    for order in orders:
        tree = sim.factory(sim.combo)
        for k, item in enumerate(order, start=1):
            step(tree, item)
            reached.setdefault(frozenset(str(i) for i in order[:k]), set()).add(tree.state())
    return reached


@pytest.mark.parametrize("seed", [42, 43])
def test_the_op_walk_visits_every_delivery_prefix(monkeypatch, seed):
    """The brute-force reference: every linear extension of the causal
    order, replayed on a fresh tree, reaches the sets the walk visits, in
    the one state the walk saw in each."""
    for combo in (c for c in legal_combos() if c.flavor == "op"):
        scn = random_scenario(combo, seed, final_sync=True)
        sim, walked = _walked_states(monkeypatch, scn)
        orders = linear_extensions(causal_deps(sim.envelopes))
        apply = lambda tree, i: tree.apply_remote(sim.envelopes[i].payload)
        reached = _reference_states(sim, orders, apply)
        assert walked == reached, combo.label()
        assert all(len(states) == 1 for states in walked.values()), combo.label()


@pytest.mark.parametrize("seed", [42, 43])
def test_the_state_walk_visits_every_permutation_fold(monkeypatch, seed):
    """The same for the state flavor: every order of the replicas, merged
    one by one into a fresh tree."""
    for combo in (c for c in legal_combos() if c.flavor == "state"):
        scn = random_scenario(combo, seed)
        sim, walked = _walked_states(monkeypatch, scn)
        merge = lambda tree, rid: tree.merge(sim.replicas[rid].tree)
        reached = _reference_states(sim, itertools.permutations(sim.rids), merge)
        assert walked == reached, combo.label()
        assert all(len(states) == 1 for states in walked.values()), combo.label()


def test_known_ops_of_a_delivery_prefix_are_its_ops():
    combo = ComboSpec("graph", "or", "op", "skip", "shortest", None)
    scn = random_scenario(combo, seed=42, final_sync=True)
    sim = Simulation(combo, scn.replicas, scn.seed)
    sim.run(scn.script)
    for order in linear_extensions(causal_deps(sim.envelopes)):
        known = VectorClock()
        for pos, i in enumerate(order, start=1):
            known[sim.envelopes[i].origin] += 1
            prefix = Counter(sim.envelopes[j].payload for j in order[:pos])
            assert Counter(known_ops(sim, known)) == prefix


def test_known_ops_of_a_state_replica_are_the_ops_it_has_merged():
    combo = ComboSpec("graph", "or", "state", "skip", "shortest", None)
    script = """
        r1 add a root
        r2 add b root
        r2 merge r1
        r3 add c root
        r1 merge r3
        r2 add d a
        r3 merge r2
        r3 rmv b
        r1 merge r3
        sync
    """
    sim = Simulation(combo, seed=42)
    held = {rid: Counter() for rid in sim.rids}
    for action in (tuple(line.split()) for line in script.split("\n") if line.strip()):
        assert sim.apply(action) is None
        if action[0] == "sync":
            held = {rid: Counter(op for _, op in sim.local_ops) for rid in sim.rids}
        elif action[1] == "merge":
            held[action[0]] |= held[action[2]]
        else:
            held[action[0]][sim.local_ops[-1][1]] += 1
        for rid, rep in sim.replicas.items():
            assert Counter(known_ops(sim, rep.clock.delivered)) == held[rid]


def test_full_matrix_sample_across_pi_modes():
    rng = random.Random(11)
    sample = rng.sample(legal_combos(), 12)
    for combo in sample:
        report = check_convergence(combo, n_ops=3, scenarios=1)
        assert report.passed, report.summary()


# --- checking a scenario on the run that generates it ---


def _clock_state(clock):
    """What a clock has spent.  Reading the rng of a clock that never drew
    gives its seeded state, so an rng never read counts as no state."""
    return clock.counter, clock.tag_seq, dict(clock.delivered), clock.rng.getstate()


@pytest.mark.parametrize("seed", [42, 43])
def test_a_generated_script_replays_to_the_generators_clocks(seed):
    """A refused action spends no clock state, so replaying the script a
    generator kept ends with the clocks the generator ended with."""
    mismatched = []
    for combo in legal_combos():
        gen = Simulation(combo, seed=seed)
        script = list(_generate(gen, seed, n_ops=5, final_sync=True))
        replay = Simulation(combo, seed=seed)
        for action in script:
            assert replay.apply(action) is None
        for rid in gen.rids:
            if _clock_state(gen.replicas[rid].clock) != _clock_state(replay.replicas[rid].clock):
                mismatched.append(f"{combo.label()} {rid}")
    assert mismatched == []


@pytest.mark.parametrize(
    "label",
    [
        "graph 2p op skip shortest node",
        "graph or op skip shortest edge",
        "edge 2p op skip shortest edge",
        "word 2p op skip - edge",
    ],
)
@pytest.mark.parametrize("verb", ["gen_insert", "gen_add"])
def test_a_refused_insert_draws_no_position(label, verb):
    """Every UPI tree refuses an add or an insert before it draws."""
    tree, clock = make_tree(parse_combo(label.split())), ReplicaClock("r1")
    word = tree.repr_name == "word"
    root, missing = (Path(()), Path(("x",))) if word else ("root", "x")

    def add(n, m, index=0):
        if verb == "gen_add":
            return tree.gen_add(n, m, clock)
        return tree.gen_insert(n, m, index, clock)

    add("a", root)
    spent = _clock_state(clock)
    with pytest.raises(PreconditionViolation, match="x is not in the tree|no edge into x"):
        add("b", missing)
    if label == "graph or op skip shortest edge":
        with pytest.raises(PreconditionViolation, match="already in the tree"):
            add("a", root, 1)
    if verb == "gen_insert":
        with pytest.raises(PreconditionViolation, match="outside sibling range"):
            add("b", root, 2)
    assert _clock_state(clock) == spent


def _replayed_report(combo, seed, factory=None, scenarios=2):
    """``check_convergence`` with the CLI defaults as a replay: each
    scenario's ``random_scenario`` script checked by ``_check_one``."""
    report = ConvergenceReport(combo=combo)
    first_failure = None
    for k in range(scenarios):
        scn = random_scenario(combo, seed + k, final_sync=combo.flavor == "op")
        before = len(report.divergences)
        _check_one(scn, report, factory)
        report.scenarios += 1
        if first_failure is None and len(report.divergences) > before:
            first_failure = scn
    if first_failure is not None:
        report.divergences = [_shrink(first_failure, factory, report.divergences[0])]
    return report


@pytest.mark.parametrize("seed", [7, 42])
def test_checking_the_generating_run_reports_what_a_replay_reports(seed):
    """Every field of every report, finding texts included: at check seed
    7, edge 2p op reappear zero plain reports the monotone moves of the
    zero-policy defect, which a fix of it removes."""
    differ, failed = [], 0
    for combo in legal_combos():
        report = check_convergence(combo, seed=seed)
        failed += not report.passed
        if dataclasses.astuple(report) != dataclasses.astuple(_replayed_report(combo, seed)):
            differ.append(combo.label())
    assert differ == []
    assert failed == (1 if seed == 7 else 0)


def test_a_factorys_run_reports_what_its_replay_reports():
    combo = ComboSpec("graph", "or", "op", "skip", "shortest", None)
    factory = lambda combo: ArrivalOrderTree()
    for seed in (42, 44):
        report = check_convergence(combo, seed=seed, scenarios=4, factory=factory)
        assert report.divergences
        expected = _replayed_report(combo, seed, factory, scenarios=4)
        assert dataclasses.astuple(report) == dataclasses.astuple(expected)


@pytest.mark.parametrize("seed", [42, 43, 44, 45])
def test_observing_the_generating_run_keeps_its_script(seed):
    differ = []
    for combo in legal_combos():
        report = ConvergenceReport(combo=combo)
        checked = _check_generated(combo, seed, 5, 3, report, None)
        if checked != random_scenario(combo, seed, final_sync=combo.flavor == "op"):
            differ.append(combo.label())
    assert differ == []
