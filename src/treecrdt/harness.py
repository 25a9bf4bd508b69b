"""Deterministic multi-replica simulator and exhaustive convergence checker."""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from operator import ge
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .clocks import DeliveryBuffer, Envelope, ReplicaClock
from .errors import (
    IllegalCombo,
    PreconditionViolation,
    ScenarioError,
    SeveralBlowup,
    WalkBlowup,
)
from .graph import GraphTree, TreeOp
from .lookup import LookupTree
from .paths import WordTree, check_atom
from .policies import CONNECT_POLICIES, MAP_POLICIES, MONOTONE_CONNECT, MONOTONE_MAP
from .render import render, sorted_elements
from .sets import ADD, FLAVORS, KINDS, RMV, SetOp

REPRS = ("graph", "edge", "word")
PI_MODES = (None, "node", "edge", "wootr")

# --- combos ---


@dataclass(frozen=True)
class ComboSpec:
    """One point in the design space: representation, kind, flavor, policies."""

    repr_name: str
    kind: str
    flavor: str
    connect_policy: str = "skip"
    map_policy: Optional[str] = "shortest"
    pi_mode: Optional[str] = None

    def label(self) -> str:
        return " ".join(
            (
                self.repr_name,
                self.kind,
                self.flavor,
                self.connect_policy,
                self.map_policy or "-",
                self.pi_mode or "plain",
            )
        )

    def is_monotone(self) -> bool:
        """True when the lookup may only grow in place, never rewire."""
        if self.connect_policy not in MONOTONE_CONNECT:
            return False
        if self.repr_name == "word":
            return True
        return self.map_policy in MONOTONE_MAP


def parse_combo(tokens: List[str]) -> ComboSpec:
    if len(tokens) != 6:
        raise ScenarioError(
            "combo needs 6 fields: repr kind flavor connect map pi"
        )
    repr_name, kind, flavor, connect, mp, pi = tokens
    return ComboSpec(
        repr_name=repr_name,
        kind=kind,
        flavor=flavor,
        connect_policy=connect,
        map_policy=None if mp == "-" else mp,
        pi_mode=None if pi == "plain" else pi,
    )


def make_tree(combo: ComboSpec) -> Any:
    """Build the tree a combo describes; its engine refuses an illegal one."""
    c = combo
    if c.repr_name != "word":
        return GraphTree(c.kind, c.flavor, c.connect_policy, c.map_policy, c.repr_name, c.pi_mode)
    if c.map_policy is not None:
        raise IllegalCombo("word trees have no mapping stage")
    return WordTree(c.kind, c.flavor, c.connect_policy, c.pi_mode)


def legal_combos() -> List[ComboSpec]:
    """Every combination of choices that builds, in a stable order."""
    out = []
    for repr_name in REPRS:
        for kind in KINDS:
            for flavor in FLAVORS:
                for connect in CONNECT_POLICIES:
                    for mp in MAP_POLICIES + (None,):
                        for pi in PI_MODES:
                            combo = ComboSpec(repr_name, kind, flavor, connect, mp, pi)
                            try:
                                make_tree(combo)
                            except IllegalCombo:
                                continue
                            out.append(combo)
    return out


# --- scenarios ---


@dataclass
class Scenario:
    """A replayable script: same combo, seed, and actions give one transcript."""

    combo: ComboSpec
    replicas: int = 3
    seed: int = 42
    script: List[Tuple[str, ...]] = field(default_factory=list)


# the arguments each replica verb takes after "<replica> <verb>"
ARITY = {"add": 2, "rmv": 1, "insert": 3, "deliver": 1, "merge": 1}


def check_action(action: Tuple[str, ...]) -> None:
    """Refuse an action that is not ``sync``, a known verb with its
    arguments, or an insert at an integer sibling index."""
    if action == ("sync",):
        return
    verb = action[1] if len(action) > 1 else ""
    if verb not in ARITY:
        raise ScenarioError(f"unknown action {' '.join(action)!r}")
    if len(action) != 2 + ARITY[verb]:
        raise ScenarioError(f"{verb} takes {ARITY[verb]} argument(s): {' '.join(action)!r}")
    if verb == "insert":
        try:
            int(action[4])
        except ValueError as exc:
            raise ScenarioError(f"{' '.join(action)!r}: {exc}") from None


def parse_scenario(text: str) -> Scenario:
    combo: Optional[ComboSpec] = None
    replicas = 3
    seed = 42
    script: List[Tuple[str, ...]] = []
    headers: Set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        try:
            if head in ("combo", "replicas", "seed"):
                if head in headers:
                    raise ScenarioError(f"a scenario has one {head} line: {line!r}")
                headers.add(head)
            if head == "combo":
                combo = parse_combo(tokens[1:])
            elif head in ("replicas", "seed"):
                if len(tokens) != 2:
                    raise ScenarioError(f"{head} takes 1 argument: {line!r}")
                if head == "seed":
                    seed = int(tokens[1])
                else:
                    replicas = int(tokens[1])
                    if replicas < 1:
                        raise ScenarioError(f"a scenario needs at least 1 replica: {line!r}")
            else:
                check_action(tuple(tokens))
                script.append(tuple(tokens))
        except (IndexError, ValueError) as exc:
            raise ScenarioError(f"line {lineno}: {raw.strip()!r}: {exc}") from exc
        except ScenarioError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from exc
    if combo is None:
        raise ScenarioError("scenario is missing a combo line")
    return Scenario(combo=combo, replicas=replicas, seed=seed, script=script)


def serialize_scenario(s: Scenario) -> str:
    lines = [f"combo {s.combo.label()}", f"replicas {s.replicas}", f"seed {s.seed}"]
    for action in s.script:
        lines.append("sync" if action[0] == "sync" else " ".join(action))
    return "\n".join(lines) + "\n"


# --- simulation ---


def shown(tree: Any, payload: bool = False) -> str:
    """The tree's dump, after its payload text when asked, or its blowup."""
    try:
        dump = tree.lookup().dump()
    except SeveralBlowup as exc:
        return f"blowup: {exc}"
    return tree.canonical() + "\n" + dump if payload else dump


@dataclass
class SimReplica:
    rid: str
    tree: Any
    clock: ReplicaClock
    buffer: DeliveryBuffer = field(default_factory=DeliveryBuffer)


@dataclass
class StepRecord:
    index: int
    action: Tuple[str, ...]
    violation: Optional[str] = None
    dumps: List[Tuple[str, str]] = field(default_factory=list)


class Simulation:
    """Replicas of one combo driven by scenario actions, fully deterministic."""

    def __init__(
        self,
        combo: ComboSpec,
        replicas: int = 3,
        seed: int = 42,
        factory: Optional[Callable[[ComboSpec], Any]] = None,
    ):
        self.combo = combo
        self.factory = factory or make_tree
        self.rids = [f"r{i}" for i in range(1, replicas + 1)]
        self.replicas = {
            rid: SimReplica(rid, self.factory(combo), ReplicaClock(rid, seed))
            for rid in self.rids
        }
        self.envelopes: List[Envelope] = []
        # each origin's envelopes, and its local ops, in the order it made them
        self.outbox: Dict[str, List[Envelope]] = {rid: [] for rid in self.rids}
        self.made: Dict[str, List[TreeOp]] = {rid: [] for rid in self.rids}
        self.local_ops: List[Tuple[str, TreeOp]] = []
        # the oracle's fold of each delivered vector folded so far (see fold)
        self.folds: Dict[Tuple[int, ...], Fold] = {(0,) * replicas: EMPTY_FOLD}
        self.handed: Dict[Tuple[str, str], int] = {}
        self.steps = 0

    # --- actions ---

    def local(self, rid: str, verb: str, args: Tuple[str, ...]) -> None:
        rep = self.replicas[rid]
        op = self._gen(rep, verb, args)
        self.local_ops.append((rid, op))
        self.made[rid].append(op)
        if self.combo.flavor == "op":
            env = rep.clock.wrap(op)
            self.envelopes.append(env)
            self.outbox[rid].append(env)
        else:
            rep.clock.delivered[rid] += 1

    def _gen(self, rep: SimReplica, verb: str, args: Tuple[str, ...]) -> TreeOp:
        """The op of an add, insert or rmv that ``check_action`` let through."""
        tree, clock = rep.tree, rep.clock
        if self.combo.repr_name == "word" and verb in ("add", "insert"):
            try:
                check_atom(args[0])
            except ValueError as exc:
                raise ScenarioError(str(exc)) from None
        if verb == "add":
            n, m = args
            return tree.gen_add(n, tree.resolve(m), clock)
        if verb == "insert":
            n, m, idx = args
            return tree.gen_insert(n, tree.resolve(m), int(idx), clock)
        return tree.gen_rmv(tree.resolve(args[0]), clock)

    def deliver_from(self, rid: str, src: str) -> None:
        if self.combo.flavor != "op":
            raise PreconditionViolation("deliver needs the op flavor")
        if src == rid:
            return
        rep = self.replicas[rid]
        start = self.handed.get((rid, src), 0)
        outgoing = self.outbox[src]
        for env in outgoing[start:]:
            rep.buffer.add(env)
        self.handed[(rid, src)] = len(outgoing)
        for env in rep.buffer.drain(rep.clock.delivered):
            rep.tree.apply_remote(env.payload)
            rep.clock.accept(env)

    def merge_with(self, rid: str, src: str) -> None:
        if self.combo.flavor != "state":
            raise PreconditionViolation("merge needs the state flavor")
        rep, peer = self.replicas[rid], self.replicas[src]
        rep.tree.merge(peer.tree, rep.clock)
        rep.clock.delivered |= peer.clock.delivered

    def fold(self, vector: Tuple[int, ...], base: Tuple[int, ...]) -> Fold:
        """The oracle's fold of the local ops that a state with delivered
        counts vector (in ``rids`` order) reflects: the first ``vector[i]``
        ops that origin ``rids[i]`` made.  In both flavors a replica's
        delivered counts are its version vector ``clock.delivered``, which
        delivery and local ops advance and a state merge joins.

        A vector folded before is looked up in ``folds``.  A new one is
        extended from base's fold by the ops base lacks, and kept; base is
        a vector folded before, and vector dominates it.
        """
        fold = self.folds.get(vector)
        if fold is None:
            lacking = [
                op
                for rid, have, want in zip(self.rids, base, vector)
                for op in self.made[rid][have:want]
            ]
            fold = self.folds[vector] = extend_fold(self.folds[base], self.combo.kind, lacking)
        return fold

    def sync_all(self) -> None:
        # one pass is enough.  State: the first replica merges every peer,
        # then each other replica merges the first, which holds the join:
        # 2(n-1) merges.  Op: each replica is handed every origin's whole
        # outbox, and the drain after the last hand-off delivers whatever
        # waited on another origin's ops
        if self.combo.flavor == "op":
            for rid in self.rids:
                for src in self.rids:
                    if src != rid:
                        self.deliver_from(rid, src)
        else:
            first, others = self.rids[0], self.rids[1:]
            for src in others:
                self.merge_with(first, src)
            for rid in others:
                self.merge_with(rid, first)
        if any(rep.buffer.pending for rep in self.replicas.values()):
            raise AssertionError("undeliverable envelopes after sync")

    def apply(self, action: Tuple[str, ...]) -> Optional[str]:
        """Perform one action without reading any tree.

        Returns the violation text when a precondition refuses the action,
        and None when it took effect.
        """
        try:
            check_action(action)
            if action[0] == "sync":
                self.sync_all()
            else:
                rid, verb = action[0], action[1]
                if rid not in self.replicas:
                    raise ScenarioError(f"unknown replica {rid!r}")
                if verb in ("deliver", "merge") and action[2] not in self.replicas:
                    raise ScenarioError(f"unknown replica {action[2]!r}")
                if verb == "deliver":
                    self.deliver_from(rid, action[2])
                elif verb == "merge":
                    self.merge_with(rid, action[2])
                else:
                    self.local(rid, verb, tuple(action[2:]))
        except PreconditionViolation as exc:
            return str(exc)
        return None

    def execute(self, action: Tuple[str, ...]) -> StepRecord:
        """Apply one action and record the dump of every replica it touched."""
        self.steps += 1
        record = StepRecord(index=self.steps, action=action, violation=self.apply(action))
        if record.violation is None:
            touched = self.rids if action[0] == "sync" else [action[0]]
            record.dumps = [(rid, shown(self.replicas[rid].tree)) for rid in touched]
        return record

    def run(self, script: Iterable[Tuple[str, ...]]) -> List[StepRecord]:
        return [self.execute(tuple(action)) for action in script]

    def final_dumps(self) -> Dict[str, str]:
        """Each replica's dump, or its blowup, as ``shown`` gives it."""
        return {rid: shown(rep.tree) for rid, rep in self.replicas.items()}


def run_scenario(s: Scenario) -> str:
    """Execute a scenario and return its line-oriented transcript."""
    make_tree(s.combo)
    sim = Simulation(s.combo, s.replicas, s.seed)
    lines = [f"combo {s.combo.label()}", f"replicas {s.replicas} seed {s.seed}"]
    for record in sim.run(s.script):
        head = f"step {record.index} "
        if record.action[0] == "sync":
            head += "sync"
        else:
            head += f"replica {record.action[0]} " + " ".join(record.action[1:])
        lines.append(head)
        if record.violation is not None:
            lines.append(f"  violation: {record.violation}")
        elif record.action[0] == "sync":
            for rid, dump in record.dumps:
                lines.append(f"  replica {rid}")
                lines.extend("    " + ln for ln in dump.splitlines())
        else:
            for _, dump in record.dumps:
                lines.extend("  " + ln for ln in dump.splitlines())
    lines.append("final")
    for rid, dump in sim.final_dumps().items():
        lines.append(f"  replica {rid}")
        lines.extend("    " + ln for ln in dump.splitlines())
    return "\n".join(lines) + "\n"


# --- random scenario generation ---


NAME_POOL = "abcdefghijklmnopqrstuvwxyz"


def random_scenario(
    combo: ComboSpec,
    seed: int,
    n_ops: int = 5,
    replicas: int = 3,
    final_sync: bool = True,
    fresh_only: bool = False,
) -> Scenario:
    """A deterministic mostly-legal script built against a live simulation."""
    check_sizes(n_ops, replicas)
    sim = Simulation(combo, replicas, seed)
    script = list(_generate(sim, seed, n_ops, final_sync, fresh_only))
    return Scenario(combo=combo, replicas=replicas, seed=seed, script=script)


def _generate(
    sim: Simulation, seed: int, n_ops: int, final_sync: bool, fresh_only: bool = False
) -> Iterator[Tuple[str, ...]]:
    """Pick random actions against sim, apply each, and yield each one that
    took effect once sim has applied it: the script of ``random_scenario``.

    A refused action changes nothing in sim, its clocks included, so sim
    ends as a replay of the yielded script on a fresh simulation ends.
    """
    rng = random.Random(f"scenario/{sim.combo.label()}/{seed}")
    fresh = iter(NAME_POOL)
    done = 0
    last: Optional[Tuple[str, ...]] = None
    for _ in range(n_ops * 30):
        if done >= n_ops:
            break
        if done and last != ("sync",) and rng.random() < 0.18:
            sim.sync_all()
            last = ("sync",)
            yield last
            continue
        rid = rng.choice(sim.rids)
        action = _random_action(sim, rid, rng, fresh, fresh_only)
        if action is None:
            continue
        if sim.apply(action) is None:
            done += 1
            last = action
            yield action
    if final_sync and last not in (None, ("sync",)):
        sim.sync_all()
        yield ("sync",)


def _random_action(
    sim: Simulation, rid: str, rng: random.Random, fresh, fresh_only: bool = False
) -> Optional[Tuple[str, ...]]:
    combo = sim.combo
    try:
        names = sim.replicas[rid].tree.names()
    except SeveralBlowup:
        return None
    root = "/" if combo.repr_name == "word" else "root"
    roll = rng.random()
    if names and roll < 0.25:
        return (rid, "rmv", rng.choice(names))
    parent = root if not names or rng.random() < 0.5 else rng.choice(names)
    if combo.repr_name == "word":
        node = rng.choice("abcde")
    elif names and not fresh_only and rng.random() < 0.25:
        node = rng.choice(names)
    else:
        node = next(fresh, None)
        if node is None:
            node = rng.choice(NAME_POOL) + str(rng.randrange(100))
    if combo.pi_mode is not None and rng.random() < 0.4:
        return (rid, "insert", node, parent, str(rng.randrange(3)))
    return (rid, "add", node, parent)


# --- oracles and per-step checks ---


def oracle_membership(kind: str, history: List[SetOp], e: Any) -> bool:
    """Decide membership of e from the op history alone, one rule per kind."""
    mine = [op for op in history if op.element == e]
    if kind == "g":
        return any(op.verb == ADD for op in mine)
    if kind == "2p":
        return any(op.verb == ADD for op in mine) and not any(
            op.verb == RMV for op in mine
        )
    if kind == "lww":
        if not mine:
            return False
        return max(mine, key=lambda op: op.stamp).verb == ADD
    if kind == "c":
        return sum(op.delta for op in mine) > 0
    if kind == "or":
        added = set()
        removed = set()
        for op in mine:
            if op.verb == ADD:
                added.add(op.tag)
            else:
                removed |= op.tags
        return bool(added - removed)
    raise ValueError(kind)


def _or_step(summary: Optional[Tuple[FrozenSet, FrozenSet]], op: SetOp) -> Tuple:
    added, removed = summary or (frozenset(), frozenset())
    if op.verb == ADD:
        return added | {op.tag}, removed
    return added, removed | op.tags


# each kind's rule of oracle_membership as a fold over an element's ops, in
# any order: step(summary, op) is the summary after one more op (None
# before the first) and live(summary) says whether the element is in
FOLD_RULES: Dict[str, Tuple[Callable[[Any, SetOp], Any], Callable[[Any], bool]]] = {
    "g": (lambda s, op: bool(s) or op.verb == ADD, bool),
    "2p": (lambda s, op: (s or 0) | (1 if op.verb == ADD else 2), lambda s: s == 1),
    "lww": (lambda s, op: op if s is None or s.stamp < op.stamp else s, lambda s: s.verb == ADD),
    "c": (lambda s, op: (s or 0) + op.delta, lambda s: s > 0),
    "or": (_or_step, lambda s: bool(s[0] - s[1])),
}


# the oracle's expectation of the payload sets of one delivered set of ops:
# for the node sub-ops and then the edge sub-ops, each element's summary
# under FOLD_RULES and the elements expected live.  Node or path sub-ops go
# to the tree's first payload set and edge sub-ops to its second, in
# tree.SETS order (an edge tree sends no node ops, a word tree no edge ops).
# A fold is never changed: extend_fold returns a new one.
Fold = Tuple[Tuple[Dict[Any, Any], Set[Any]], ...]
EMPTY_FOLD: Fold = (({}, set()), ({}, set()))


def extend_fold(fold: Fold, kind: str, ops: List[TreeOp]) -> Fold:
    """fold with ops' sub-ops folded in as well."""
    step, live_rule = FOLD_RULES[kind]
    parts = []
    for k, (summaries, live) in enumerate(fold):
        subs = [sub for op in ops for sub in (op.edge_ops if k else op.node_ops)]
        if subs:
            summaries, live = dict(summaries), set(live)
            for sub in subs:
                e = sub.element
                summaries[e] = summary = step(summaries.get(e), sub)
                if live_rule(summary):
                    live.add(e)
                else:
                    live.discard(e)
        parts.append((summaries, live))
    return tuple(parts)


def oracle_mismatches(fold: Fold, tree: Any) -> List[str]:
    """Compare each payload set's ``lookup()`` with what fold expects of it,
    on the elements some sub-op named.

    A set that agrees costs one subset test.  In a set that disagrees, each
    element is named in element order, so the result depends on which ops
    were delivered, not on the order they were delivered in.
    """
    problems = []
    for name, (summaries, live) in zip(tree.SETS, fold):
        if not summaries:
            continue
        shown = getattr(tree, name).lookup()
        if live <= shown and summaries.keys().isdisjoint(shown - live):
            continue
        for e in sorted_elements(summaries):
            if (e in shown) != (e in live):
                problems.append(
                    f"{name} set disagrees on {render(e)}:"
                    f" oracle={e in live} lookup={e in shown}"
                )
    return problems


def tree_validity(lt: LookupTree) -> Optional[str]:
    try:
        lt.validate()
    except AssertionError as exc:
        return str(exc)
    return None


def witness_map(combo: ComboSpec, lt: LookupTree) -> Dict[Any, Tuple]:
    """Where each surviving identity sits: moves show up as value changes."""
    if combo.repr_name == "word":
        return {inst.node: inst.key for inst in lt.instances.values()}
    return {inst.key: inst.parent for inst in lt.instances.values()}


def witness_moves(before: Dict[Any, Tuple], after: Dict[Any, Tuple]) -> List[str]:
    return [
        f"{render(k)} moved {before[k]!r} -> {after[k]!r}"
        for k in before
        if k in after and before[k] != after[k]
    ]


# --- delivery orders: the brute-force reference of the walk below ---


def causal_deps(envelopes: List[Envelope]) -> List[Set[int]]:
    """For each envelope, the indices that must be delivered before it."""
    deps: List[Set[int]] = []
    for e in envelopes:
        before = {
            j
            for j, f in enumerate(envelopes)
            if f is not e and e.deps[f.origin] >= f.seq
        }
        deps.append(before)
    return deps


def linear_extensions(deps: List[Set[int]]) -> List[Tuple[int, ...]]:
    """Every order of the items that puts each after its deps."""
    n = len(deps)
    out: List[Tuple[int, ...]] = []

    def rec(prefix: Tuple[int, ...], done: Set[int]) -> None:
        if len(prefix) == n:
            out.append(prefix)
            return
        for i in range(n):
            if i not in done and deps[i] <= done:
                rec(prefix + (i,), done | {i})

    rec((), set())
    return out


# --- convergence checking ---


@dataclass
class ConvergenceReport:
    """What the checks of one combo found.  ``schedules`` counts the
    delivered sets the walk visited, the empty one included."""

    combo: ComboSpec
    scenarios: int = 0
    schedules: int = 0
    divergences: List[str] = field(default_factory=list)
    oracle_mismatches: List[str] = field(default_factory=list)
    validity_violations: List[str] = field(default_factory=list)
    monotonic_violations: List[str] = field(default_factory=list)
    parent_moves: int = 0

    @property
    def findings(self) -> List[str]:
        """Every finding: the divergences, then the oracle, validity and
        monotonic ones."""
        return (
            self.divergences
            + self.oracle_mismatches
            + self.validity_violations
            + self.monotonic_violations
        )

    @property
    def passed(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{self.combo.label()}: {verdict}"
            f" scenarios={self.scenarios} schedules={self.schedules}"
            f" divergences={len(self.divergences)}"
            f" oracle={len(self.oracle_mismatches)}"
            f" validity={len(self.validity_violations)}"
            f" monotonic={len(self.monotonic_violations)}"
            f" moves={self.parent_moves}"
        )


# per scenario: (tree.state(), delivered vector) -> what the checks find in
# that state whatever came before it: the validity and oracle findings as
# (report field, text) pairs, and the witness (None when the lookup blew up)
ObservationCache = Dict[Tuple[Any, Tuple[int, ...]], Tuple[List[Tuple[str, str]], Optional[Dict]]]


def _check_state(
    sim: Simulation, tree: Any, vector: Tuple[int, ...], base: Tuple[int, ...]
) -> Tuple[List[Tuple[str, str]], Optional[Dict]]:
    """Validity and oracle findings of the tree's state, and its witness.

    The oracle is ``sim.fold(vector, base)``, which is folded even when
    the lookup blows up, so a later vector can extend it; each element
    the payload sets disagree with it on is named by ``oracle_mismatches``.
    """
    fold = sim.fold(vector, base)
    try:
        lt = tree.lookup()
    except SeveralBlowup as exc:
        return [("validity_violations", str(exc))], None
    findings = []
    problem = tree_validity(lt)
    if problem is not None:
        findings.append(("validity_violations", problem))
    findings += [("oracle_mismatches", msg) for msg in oracle_mismatches(fold, tree)]
    return findings, witness_map(sim.combo, lt)


def _observe(
    sim: Simulation,
    tree: Any,
    state: Any,
    vector: Tuple[int, ...],
    base: Tuple[int, ...],
    prev_witness: Optional[Dict],
    cache: ObservationCache,
    report: ConvergenceReport,
    where: Callable[[], str],
) -> Optional[Dict]:
    """Check one state of a replica, an observer or a fold, add what is found
    to report under the text where() makes, and return the witness to
    compare the next state with.  where is called only when there is
    something to add.

    state is ``tree.state()``, and vector the delivered counts of the ops
    the tree holds, in ``sim.rids`` order.  The validity text (or the
    ``SeveralBlowup``), the oracle findings and the witness depend only on
    the payload state and on which ops were delivered, so they are kept in
    the scenario's cache under the key (state, vector).  A miss folds the
    oracle for vector from base, a vector of fewer ops folded before (the
    set one step back in the walk, or the replica's vector at its last
    observation), by the ops base lacks (``Simulation.fold``), and compares
    the payload sets with that fold (``oracle_mismatches``).  The key is
    the exact payload, never the delivered set alone, so two replicas that
    know the same ops but hold different payloads are both checked.  Moves
    depend on prev_witness and are computed on every call; a state whose
    lookup blew up has no witness, so prev_witness stays the one to compare
    with.
    """
    key = (state, vector)
    seen = cache.get(key)
    if seen is None:
        seen = cache[key] = _check_state(sim, tree, vector, base)
    findings, witness = seen
    if findings:
        at = where()
        for name, msg in findings:
            getattr(report, name).append(f"{at}: {msg}")
    if witness is None:
        return prev_witness
    if prev_witness is not None:
        moves = witness_moves(prev_witness, witness)
        report.parent_moves += len(moves)
        if moves and sim.combo.is_monotone():
            at = where()
            report.monotonic_violations += [f"{at}: {msg}" for msg in moves]
    return witness


def check_sizes(n_ops: int, n_replicas: int, scenarios: int = 1) -> None:
    """Refuse a check with no replica or scenario, or a negative op count."""
    if n_replicas < 1:
        raise ValueError(f"a check needs at least 1 replica, not {n_replicas}")
    if n_ops < 0:
        raise ValueError(f"the op count cannot be negative, not {n_ops}")
    if scenarios < 1:
        raise ValueError(f"a check runs at least 1 scenario, not {scenarios}")


def check_convergence(
    combo: ComboSpec,
    n_ops: int = 5,
    n_replicas: int = 3,
    seed: int = 42,
    scenarios: int = 2,
    factory: Optional[Callable[[ComboSpec], Any]] = None,
) -> ConvergenceReport:
    """Drive seeded scenarios and check every delivery order of each.

    Each scenario is checked on the run that generates it, or, given a
    factory, on a replay of its script on the factory's trees; both report
    what ``_check_one`` reports on a replay of the ``random_scenario``
    script.
    """
    make_tree(combo)
    check_sizes(n_ops, n_replicas, scenarios)
    report = ConvergenceReport(combo=combo)
    first_failure: Optional[Scenario] = None
    for k in range(scenarios):
        before = len(report.divergences)
        scn = _check_generated(combo, seed + k, n_ops, n_replicas, report, factory)
        report.scenarios += 1
        if first_failure is None and len(report.divergences) > before:
            first_failure = scn
    if first_failure is not None:
        report.divergences = [_shrink(first_failure, factory, report.divergences[0])]
    return report


def _check_generated(
    combo: ComboSpec,
    seed: int,
    n_ops: int,
    n_replicas: int,
    report: ConvergenceReport,
    factory: Optional[Callable[[ComboSpec], Any]],
) -> Scenario:
    """Generate the scenario ``random_scenario`` makes, check it, and
    return it.

    Without a factory the generating simulation is checked as it runs: it
    is observed after each action it keeps, then walked.  Given a factory,
    the finished script is checked by ``_check_one`` on the factory's
    trees, the replay ``_shrink`` runs.  Generation always runs on
    ``make_tree`` trees, so a factory's trees never change the script.
    """
    sim = Simulation(combo, n_replicas, seed)
    scn = Scenario(combo=combo, replicas=n_replicas, seed=seed)
    actions = _generate(sim, seed, n_ops, final_sync=combo.flavor == "op")
    if factory is not None:
        scn.script.extend(actions)
        _check_one(scn, report, factory)
        return scn

    def applied() -> Iterator[Tuple[int, Tuple[str, ...]]]:
        for step, action in enumerate(actions, start=1):
            scn.script.append(action)
            yield step, action

    _check_run(scn, sim, applied(), report)
    return scn


def _check_one(
    scn: Scenario, report: ConvergenceReport, factory: Optional[Callable[[ComboSpec], Any]]
) -> None:
    """Replay scn's script on a fresh simulation and check the run."""
    sim = Simulation(scn.combo, scn.replicas, scn.seed, factory)
    applied = (
        (step, action)
        for step, action in enumerate(scn.script, start=1)
        if sim.apply(action) is None
    )
    _check_run(scn, sim, applied, report)


def _check_run(
    scn: Scenario,
    sim: Simulation,
    applied: Iterable[Tuple[int, Tuple[str, ...]]],
    report: ConvergenceReport,
) -> None:
    """Observe each replica an action touched, for each (step, action) that
    applied yields once sim has taken the action in, then walk the run's
    delivered sets, which compares each op replica, but no state replica,
    with the set it holds (see ``_walk``)."""
    cache: ObservationCache = {}
    witnesses: Dict[str, Optional[Dict]] = {rid: None for rid in sim.rids}
    # each replica's delivered vector when it was last observed
    vectors = {rid: (0,) * len(sim.rids) for rid in sim.rids}
    label = sim.combo.label()
    for step, action in applied:
        for rid in sim.rids if action[0] == "sync" else [action[0]]:
            rep = sim.replicas[rid]
            vector = tuple(rep.clock.delivered[r] for r in sim.rids)
            witnesses[rid] = _observe(
                sim,
                rep.tree,
                rep.tree.state(),
                vector,
                vectors[rid],
                witnesses[rid],
                cache,
                report,
                lambda: f"{label} seed={scn.seed} step={step} replica={rid}",
            )
            vectors[rid] = vector
    _walk(scn, sim, report, cache)


# the most delivered sets the walk of one scenario may visit; none of CI's
# 100-op op scenarios on 4 replicas has more than 7,451
WALK_CAP = 100_000


def _walk(
    scn: Scenario, sim: Simulation, report: ConvergenceReport, cache: ObservationCache
) -> None:
    """Walk the lattice of delivered sets level by level, and stop at the
    first divergence.

    An op-flavor set is the per-origin delivered counts, and a step applies
    an origin's next envelope once the set dominates the envelope's deps
    (both as count tuples in ``sim.rids`` order), which is when it is
    ``deliverable``.  A state-flavor set is a subset of the replicas, and a
    step merges one more of them into the join of the others, starting
    from an empty tree.  A causal delivery order passes only through these
    sets, so when every way into each set gives one ``state()``, every
    order does.  Each edge is stepped and observed once (``_observe``, with
    moves along op edges only), and a set reached again must give the state
    it recorded.  An op replica is one more way into the set it has
    delivered, which is causally closed, and must give that set's state
    when its level starts.  A state replica is not compared: its payload is
    a join of partial merges, not a fold.

    A set's delivered vector is its counts in the op flavor, and the
    entrywise max of its replicas' vectors in the state flavor; a step's
    oracle is folded from the vector of the set it steps from.  A set keeps
    the tree of the first path that reached it and is named by that path.
    Every step out of it but the last takes a ``copy()``, and the tree
    itself must still give its recorded state before it takes the last
    step, so a copy that shares mutable state is caught.  Only two levels
    are alive at a time.
    """
    op = sim.combo.flavor == "op"
    what, label = ("schedules" if op else "folds"), sim.combo.label()
    vectors = {
        rid: tuple(rep.clock.delivered[r] for r in sim.rids) for rid, rep in sim.replicas.items()
    }
    index = {id(env): j for j, env in enumerate(sim.envelopes)}
    # each origin's envelopes, each with its index and its deps as a count tuple
    boxes = [
        [(env, index[id(env)], tuple(env.deps[r] for r in sim.rids)) for env in sim.outbox[rid]]
        for rid in sim.rids
    ]
    start = sim.factory(sim.combo)
    # the op replicas that hold each delivered set, by the set's counts
    held: Dict[Tuple[int, ...], List[SimReplica]] = {}
    for rep in sim.replicas.values() if op else ():
        held.setdefault(vectors[rep.rid], []).append(rep)
    # each set of a level: its tree, state(), first path, delivered vector
    # and (op flavor only) witness
    zero = (0,) * len(sim.rids)
    level = {zero: (start, start.state(), (), zero, None)}
    sets = 1
    while True:
        report.schedules += len(level)
        for key, (tree, state, path, _, _) in level.items():
            for rep in held.get(key, ()):
                if rep.tree.state() != state:
                    ours = (path, shown(tree, True))
                    theirs = (f"replica {rep.rid}", shown(rep.tree, True))
                    report.divergences.append(_disagreement(scn, what, ours, theirs))
                    return
        nxt: Dict[Tuple[int, ...], Tuple] = {}
        for key, (tree, state, path, vector, witness) in level.items():
            if op:
                ready = [(i, box[key[i]]) for i, box in enumerate(boxes) if key[i] < len(box)]
                steps = [(i, step) for i, step in ready if all(map(ge, key, step[2]))]
            else:
                steps = [(i, sim.replicas[rid]) for i, rid in enumerate(sim.rids) if not key[i]]
            for n, (i, step) in enumerate(steps, start=1):
                if n < len(steps):
                    child = tree.copy()
                elif tree.state() == state:
                    child = tree
                else:
                    report.divergences.append(
                        f"seed={scn.seed}: {what} {path} changed as a copy of it took a step:"
                        f"\n{shown(tree, payload=True)}"
                    )
                    return
                to = key[:i] + (key[i] + 1,) + key[i + 1 :]
                if op:
                    env, j, _ = step
                    child.apply_remote(env.payload)
                    grown, route = to, path + (j,)
                else:
                    child.merge(step.tree)
                    grown, route = tuple(map(max, vector, vectors[step.rid])), path + (step.rid,)
                now = child.state()
                seen = nxt.get(to)
                if seen is not None and seen[1] != now:
                    first, second = (seen[2], shown(seen[0], True)), (route, shown(child, True))
                    report.divergences.append(_disagreement(scn, what, first, second))
                    return
                where = lambda: f"{label} seed={scn.seed} " + (
                    f"order={route} delivery={len(route)}" if op else f"fold={'-'.join(route)}"
                )
                found = _observe(sim, child, now, grown, vector, witness, cache, report, where)
                if seen is None:
                    sets += 1
                    if sets > WALK_CAP:
                        raise WalkBlowup(f"the walk of delivered sets exceeded its cap of {WALK_CAP}")
                    nxt[to] = (child, now, route, grown, found if op else None)
        if not nxt:
            return
        level = nxt


def _disagreement(scn: Scenario, what: str, first: Tuple, second: Tuple) -> str:
    """Two ways into one delivered set, each with the tree it gave."""
    (a, text_a), (b, text_b) = first, second
    return (
        f"seed={scn.seed}: {what} {a} and {b} disagree:"
        f"\n--- {a}\n{text_a}\n--- {b}\n{text_b}"
    )


def _shrink(
    scn: Scenario, factory: Optional[Callable[[ComboSpec], Any]], detail: str
) -> str:
    """Greedy script minimization keeping the first divergence reproducible,
    starting from detail, the one scn's own check reported first."""

    def divergence(candidate: Scenario) -> Optional[str]:
        probe = ConvergenceReport(combo=candidate.combo)
        _check_one(candidate, probe, factory)
        return probe.divergences[0] if probe.divergences else None

    changed = True
    while changed:
        changed = False
        for i in range(len(scn.script)):
            cand = replace(scn, script=scn.script[:i] + scn.script[i + 1 :])
            found = divergence(cand)
            if found is not None:
                scn, detail, changed = cand, found, True
                break
    return "minimized scenario:\n" + serialize_scenario(scn) + detail
