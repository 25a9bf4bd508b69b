"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload builds its inputs from the seed once (set-up), then runs any
number of identical passes over fresh replicas.  A pass times every unit of
work on its own, then checks the outputs outside the timed section.  The
program is driven only through its public entry points: ``legal_combos``,
``check_convergence``, ``Simulation.execute``, ``Simulation.final_dumps``,
``tree_validity`` and ``oracle_membership``.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Tuple

import treecrdt
from treecrdt import Simulation, oracle_membership, parse_combo, tree_validity

from speed import Stopwatch

REPLICAS = 3

# One combo per representation, each with a connection policy that rewires
# orphans, so lookup, dump, connect/map and causal delivery carry the load.
REPLAY_COMBOS = (
    "graph or op compact highest plain",
    "edge lww op root newest plain",
    "word or op reappear - plain",
)
# The positioned combos: WOOTR sequences on graph edges and word steps, and
# UPI positions on nodes, all merged as state.
SIBLING_COMBOS = (
    "graph or state skip shortest wootr",
    "graph 2p state skip shortest node",
    "word lww state skip - wootr",
)

LOCAL_VERBS = ("add", "rmv", "insert")
ATOMS = "abcdefghijklmnopqrstuvwxyz"

Action = Tuple[str, ...]


@dataclass
class PassResult:
    """What one pass measured and what its checks found.

    Unit times are labelled "combo", "local" (add, rmv, insert) or "remote"
    (deliver, merge, sync).
    """

    watch: Stopwatch = field(default_factory=Stopwatch)
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    schedules: int = 0
    digest: str = ""
    problems: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """The pass's timed section: the sum of its scaled unit times."""
        return sum(self.watch.scaled())


# --- matrix ---


class Matrix:
    """check_convergence over every legal combo with the CLI defaults.

    The defaults include the check seed, 42, so this workload is the same
    for every benchmark seed.  Other check seeds are not used: about a
    quarter of them make some edge-tree combo that should never move a
    surviving node report a move (seed 34: ``edge or op skip several
    plain``), which is a defect of the program, not of the benchmark.
    """

    name = "matrix"
    unit = "combo"
    CHECK_SEED = 42

    def __init__(self, seed: int, smoke: bool):
        combos = treecrdt.legal_combos()
        # the smoke size keeps every 49th combo: 16 combos over all three
        # representations and every positioning mode
        self.combos = combos[::49] if smoke else combos

    def run_pass(self, timed: Callable[[], ContextManager]) -> PassResult:
        out = PassResult()
        digest = hashlib.sha256()
        with timed():
            for combo in self.combos:
                self.check(combo, out, digest)
        out.digest = digest.hexdigest()
        return out

    def check(self, combo, out: PassResult, digest) -> None:
        t0 = time.perf_counter()
        try:
            report = treecrdt.check_convergence(combo, seed=self.CHECK_SEED)
        except Exception as exc:  # a crash fails this combo, not the run
            report = None
            out.problems.append(f"{combo.label()}: raised {exc!r}")
        out.watch.record(time.perf_counter() - t0, "combo")
        out.attempted += 1
        if report is None:
            out.failed += 1
            return
        out.schedules += report.schedules
        digest.update(f"{combo.label()} {report.schedules}\n".encode())
        if not report.passed:
            out.failed += 1
            out.problems.append(report.summary())


# --- scripted replica workloads ---


class ReplicaModel:
    """The generator's own guess of one replica's tree: no program involved.

    It tracks names (graph and edge trees) or /-joined paths (word trees)
    with their parents, applies other replicas' logs on delivery, and drops
    a whole subtree on removal.  It ignores policies and concurrency, so some
    generated actions are rejected by the program; the rejected share is a
    reported, seed-determined figure.
    """

    def __init__(self, word: bool):
        self.word = word
        self.view: Dict[str, str] = {}  # present node -> parent, in insertion order
        self.known: Dict[str, str] = {}  # every node ever seen -> last parent
        self.log: List[Tuple[str, str, str]] = []
        self.seen: Dict[int, int] = {}  # peer index -> log entries applied

    def apply(self, verb: str, node: str, parent: str) -> None:
        if verb == "add":
            self.view.setdefault(node, parent)
            self.known[node] = parent
            return
        doomed = {node}
        for n, p in self.view.items():
            if p in doomed or (self.word and n.startswith(node + "/")):
                doomed.add(n)
        for n in doomed:
            self.view.pop(n, None)

    def local(self, verb: str, node: str, parent: str = "") -> None:
        self.apply(verb, node, parent)
        self.log.append((verb, node, parent))

    def receive(self, peer: int, other: "ReplicaModel") -> None:
        for entry in other.log[self.seen.get(peer, 0):]:
            self.apply(*entry)
        self.seen[peer] = len(other.log)

    def children(self, parent: str) -> int:
        return sum(1 for p in self.view.values() if p == parent)


class Scripted:
    """Replicas of several combos driven by generated action scripts."""

    combo_labels: Tuple[str, ...] = ()
    # independent scripts per combo in a pass, each on fresh replicas; more
    # rounds average out how one seed's script happens to fall
    rounds = 1

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        combos = [parse_combo(label.split()) for label in self.combo_labels]
        self.combos = [c for _ in range(1 if smoke else self.rounds) for c in combos]
        self.scripts = [
            self.script(c, f"{seed}/{i // len(combos)}", smoke)
            for i, c in enumerate(self.combos)
        ]
        # construct the replicas once here so set-up pays for it as well
        self.fresh_sims()

    def fresh_sims(self) -> List[Simulation]:
        return [Simulation(c, REPLICAS, self.seed) for c in self.combos]

    def script(self, combo, seed: str, smoke: bool) -> List[Action]:
        raise NotImplementedError

    def run_pass(self, timed: Callable[[], ContextManager]) -> PassResult:
        """Execute every script, timing each action, then check the outputs."""
        out = PassResult()
        digest = hashlib.sha256()
        sims = self.fresh_sims()
        with timed():
            for sim, script in zip(sims, self.scripts):
                self.execute_all(sim, script, out)
        for sim in sims:
            problems = final_checks(sim)
            out.attempted += 1
            if problems:
                out.failed += 1
                out.problems.extend(problems)
            for rid, dump in sorted(sim.final_dumps().items()):
                digest.update(f"{sim.combo.label()} {rid}\n{dump}\n".encode())
        out.digest = digest.hexdigest()
        return out

    @staticmethod
    def execute_all(sim: Simulation, script: List[Action], out: PassResult) -> None:
        for action in script:
            t0 = time.perf_counter()
            try:
                record = sim.execute(action)
            except Exception as exc:  # counted as a failed action
                record = None
                out.problems.append(f"{sim.combo.label()} {action}: raised {exc!r}")
            local = action[0] != "sync" and action[1] in LOCAL_VERBS
            out.watch.record(time.perf_counter() - t0, "local" if local else "remote")
            out.attempted += 1
            if record is None:
                out.failed += 1
            elif record.violation is not None:
                out.rejected += 1
            elif any(d.startswith("blowup:") for _, d in record.dumps):
                out.failed += 1
                out.problems.append(f"{sim.combo.label()} {action}: blowup")


def final_checks(sim: Simulation) -> List[str]:
    """Replicas agree, each tree is valid, each payload set obeys its oracle."""
    label = sim.combo.label()
    problems = []
    dumps = sim.final_dumps()
    if len(set(dumps.values())) != 1:
        problems.append(f"{label}: replicas disagree after the final sync")
    histories: Dict[str, list] = {}
    for _, op in sim.local_ops:
        if sim.combo.repr_name == "word":
            histories.setdefault("paths", []).extend(op.node_ops)
            continue
        if sim.combo.repr_name == "graph":
            histories.setdefault("nodes", []).extend(op.node_ops)
        histories.setdefault("edges", []).extend(op.edge_ops)
    for rid in sim.rids:
        tree = sim.replicas[rid].tree
        problem = tree_validity(tree.lookup())
        if problem is not None:
            problems.append(f"{label} {rid}: invalid tree: {problem}")
        for name, history in sorted(histories.items()):
            shown = getattr(tree, name).lookup()
            by_element: Dict[object, list] = {}
            for op in history:
                by_element.setdefault(op.element, []).append(op)
            for element, ops in by_element.items():
                if oracle_membership(sim.combo.kind, ops, element) != (element in shown):
                    problems.append(f"{label} {rid}: {name} set disagrees with its oracle")
                    break
    return problems


class Replay(Scripted):
    """A closed loop: one client, 3 op-flavor replicas, partition then heal.

    Each phase cuts one replica off while the other two keep exchanging
    ops, then heals, alternately by a full sync and by pairwise deliveries.
    A phase holds a fixed mix, shuffled: 8 deliveries and 32 local actions,
    of which 8 remove a leaf, 6 re-add a removed name and 18 add a new one.
    Fixed counts keep the tree growth, and so the cost, alike across seeds.
    """

    name = "replay"
    unit = "action"
    combo_labels = REPLAY_COMBOS
    phases = 20
    smoke_phases = 2
    PHASE = ("deliver",) * 8 + ("rmv",) * 8 + ("readd",) * 6 + ("add",) * 18

    def script(self, combo, seed: str, smoke: bool) -> List[Action]:
        rng = random.Random(f"replay/{combo.label()}/{seed}")
        word = combo.repr_name == "word"
        rids = [f"r{i}" for i in range(1, REPLICAS + 1)]
        models = [ReplicaModel(word) for _ in rids]
        fresh = iter(range(10 ** 9))
        out: List[Action] = []

        def deliver(dst: int, src: int) -> None:
            out.append((rids[dst], "deliver", rids[src]))
            models[dst].receive(src, models[src])

        for phase in range(self.smoke_phases if smoke else self.phases):
            cut = rng.randrange(REPLICAS)
            side = [i for i in range(REPLICAS) if i != cut]
            kinds = list(self.PHASE)
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "deliver":
                    dst, src = rng.sample(side, 2)
                    deliver(dst, src)
                else:
                    i = rng.randrange(REPLICAS)
                    out.append(local_action(rids[i], models[i], rng, fresh, kind))
            if phase % 2:
                for other in side:
                    deliver(cut, other)
                    deliver(other, cut)
            else:
                out.append(("sync",))
                for dst in range(REPLICAS):
                    for src in range(REPLICAS):
                        if src != dst:
                            models[dst].receive(src, models[src])
        out.append(("sync",))
        return out


class Siblings(Scripted):
    """3 state-flavor replicas insert at random sibling indices and merge.

    After the parents exist everywhere, each block of 10 actions holds, in
    shuffled order, 2 pairwise merges, 1 removal and 7 inserts spread evenly
    over the parents, each at a uniform random index among the siblings the
    inserting replica knows of.  A pass runs 5 rounds of each combo.
    """

    name = "siblings"
    unit = "action"
    combo_labels = SIBLING_COMBOS
    parents = 3
    rounds = 5
    blocks = 8
    smoke_blocks = 2
    BLOCK = ("merge",) * 2 + ("rmv",) + ("insert",) * 7

    def script(self, combo, seed: str, smoke: bool) -> List[Action]:
        rng = random.Random(f"siblings/{combo.label()}/{seed}")
        word = combo.repr_name == "word"
        rids = [f"r{i}" for i in range(1, REPLICAS + 1)]
        models = [ReplicaModel(word) for _ in rids]
        root = "/" if word else "root"
        parents = []
        out: List[Action] = []
        for k in range(self.parents):
            name = f"p{k}"
            out.append((rids[0], "add", name, root))
            parents.append("/" + name if word else name)
            models[0].local("add", parents[-1], root)
        out.append(("sync",))
        for dst in range(1, REPLICAS):
            models[dst].receive(0, models[0])
        fresh = iter(range(10 ** 9))
        turn: List[str] = []
        for _ in range(self.smoke_blocks if smoke else self.blocks):
            kinds = list(self.BLOCK)
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "merge":
                    dst, src = rng.sample(range(REPLICAS), 2)
                    out.append((rids[dst], "merge", rids[src]))
                    models[dst].receive(src, models[src])
                    continue
                i = rng.randrange(REPLICAS)
                model = models[i]
                kids = [n for n, p in model.view.items() if p in parents]
                if kind == "rmv" and kids:
                    target = rng.choice(kids)
                    out.append((rids[i], "rmv", target))
                    model.local("rmv", target)
                    continue
                if not turn:
                    turn = list(parents)
                    rng.shuffle(turn)
                parent = turn.pop()
                atom = f"c{next(fresh)}"
                idx = rng.randint(0, model.children(parent))
                out.append((rids[i], "insert", atom, parent, str(idx)))
                model.local("add", f"{parent}/{atom}" if word else atom, parent)
        out.append(("sync",))
        return out


def local_action(rid: str, model: ReplicaModel, rng, fresh, kind: str) -> Action:
    """One local action in the mix of the convergence checker's generator.

    "rmv" removes a leaf of the replica's tree, so each removal takes one
    node and growth stays steady; "readd" adds back a removed name (a word
    tree: a removed path under a present parent); "add" adds a new name
    (a word tree: a letter not yet used under that parent).  Adds go under
    the root half of the time and otherwise under a present node.
    """
    root = "/" if model.word else "root"
    if kind == "rmv":
        parents = set(model.view.values())
        leaves = [n for n in model.view if n not in parents]
        if leaves:
            target = rng.choice(leaves)
            model.local("rmv", target)
            return (rid, "rmv", target)
        kind = "add"
    names = list(model.view)
    if kind == "readd":
        gone = [n for n, p in model.known.items()
                if n not in model.view and (p == root or p in model.view)]
        if gone:
            node = rng.choice(gone)
            parent = model.known[node]
            model.local("add", node, parent)
            return (rid, "add", node.rsplit("/", 1)[1] if model.word else node, parent)
    parent = root if not names or rng.random() < 0.5 else rng.choice(names)
    if not model.word:
        node = f"n{next(fresh)}"
        model.local("add", node, parent)
        return (rid, "add", node, parent)
    for candidate in [parent] + rng.sample(names, min(4, len(names))) + [root]:
        prefix = candidate.rstrip("/")
        free = [a for a in ATOMS if f"{prefix}/{a}" not in model.known]
        if free:
            atom = rng.choice(free)
            model.local("add", f"{prefix}/{atom}", candidate)
            return (rid, "add", atom, candidate)
    # every letter is taken under those parents: the add is a duplicate
    model.local("add", f"{parent.rstrip('/')}/a", parent)
    return (rid, "add", "a", parent)


WORKLOADS = {w.name: w for w in (Matrix, Replay, Siblings)}
