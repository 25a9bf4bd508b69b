"""Per-layer spans for the traced run, recorded from outside the program.

Only the traced pass runs inside ``instrumented``.  It replaces each layer
entry point with a wrapper in every ``treecrdt`` module that holds a
reference to it, so names brought in with ``from .x import f`` are traced
too, and puts the originals back when the pass ends.  A span
records its name, start, end, parent and one work count taken at the
boundary; self time is the span's duration minus its child spans.  The
recursive hot leaves (``render``, ``sort_key``) and the per-call counters
(``children``, ``deliverable``) keep aggregates instead of spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import math
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

TREE_MODULES = ("graph", "edges", "paths", "ordered")
TREE_METHODS = {
    "lookup": "lookup",
    "gen_add": "gen",
    "gen_rmv": "gen",
    "gen_insert": "gen",
    "apply_remote": "apply_remote",
    "merge": "merge",
}
SET_METHODS = ("lookup", "apply", "merge", "copy")
CONNECT_POLICIES = ("skip", "reappear", "root", "compact")
MAP_POLICIES = ("several", "newest", "highest", "shortest", "zero")
# layers whose per-call self time is fitted against their size at call time
GROWTH_LAYERS = (
    "lookup.dump",
    "policies.connect",
    "policies.map_to_tree",
    "paths.path_images",
    "graph.edge_infos",
    "wootr.wootr_order",
    "clocks.drain",
    "sets.lookup",
)
# the span name and the size stat recorded at each layer boundary
SIZE_STATS = {
    "lookup.dump": "instances",
    "policies.connect": "edges_out",
    "policies.map_to_tree": "instances_out",
    "paths.path_images": "paths",
    "graph.edge_infos": "edges",
    "wootr.wootr_order": "elements",
    "positions.upi_between": "digits",
    "sets.lookup": "elements",
    "harness.linear_extensions": "orders",
}
DRAIN_SPAN = "clocks.drain.next"


class Tracer:
    """Spans kept in parallel arrays in memory, plus per-name aggregates."""

    def __init__(self):
        self.names: List[str] = []
        self.ids: Dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_self = array("d")
        self.s_size = array("q")
        # open spans: [span index, name id, seconds spent in closed children]
        self.stack: List[list] = []
        self.leaves: List[list] = []  # open leaves: [name, child seconds]
        self.leaf_depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.sizes: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.patched: List[Tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def begin(self, nid: int) -> list:
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1][0] if self.stack else -1)
        self.s_size.append(0)
        self.s_self.append(0.0)
        self.s_end.append(0.0)
        frame = [idx, nid, 0.0]
        self.stack.append(frame)
        self.s_start.append(time.perf_counter())
        return frame

    def end(self, frame: list, size: int, variant: Optional[str] = None) -> None:
        now = time.perf_counter()
        idx, nid, child = frame
        self.stack.pop()
        dur = now - self.s_start[idx]
        own = dur - child
        self.s_end[idx] = now
        self.s_self[idx] = own
        self.s_size[idx] = size
        name = self.names[nid]
        self.calls[name] += 1
        self.self_s[name] += own
        self.sizes[name] += size
        if variant is not None:
            self.self_s[f"{name}.{variant}"] += own
        if self.stack:
            self.stack[-1][2] += dur

    def patch(self, obj, attr: str, value) -> None:
        self.patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self.patched:
            obj, attr, value = self.patched.pop()
            setattr(obj, attr, value)

    def current(self) -> int:
        return self.stack[-1][1] if self.stack else -1

    def write(self, path: Path) -> None:
        """Gzipped, one tab-separated line per span; times in seconds from the first."""
        origin = self.s_start[0] if self.s_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tname\tparent\tstart\tend\tself\tsize\n")
            for i in range(len(self.s_name)):
                f.write(
                    f"{i}\t{self.names[self.s_name[i]]}\t{self.s_parent[i]}"
                    f"\t{self.s_start[i] - origin:.9f}\t{self.s_end[i] - origin:.9f}"
                    f"\t{self.s_self[i]:.9f}\t{self.s_size[i]}\n"
                )

    def growth(self, name: str) -> float:
        """Log-log slope of mean self time per call against size at call.

        Calls are bucketed by the bit length of their size; buckets with at
        least 5 calls count, and fewer than 3 such buckets give 0.
        """
        nid = self.ids.get(name)
        if nid is None:
            return 0.0
        buckets: Dict[int, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(len(self.s_name)):
            if self.s_name[i] == nid and self.s_size[i] > 0:
                b = buckets[self.s_size[i].bit_length()]
                b[0] += 1
                b[1] += self.s_size[i]
                b[2] += self.s_self[i]
        pts = [
            (math.log(s / n), math.log(t / n))
            for n, s, t in buckets.values()
            if n >= 5 and t > 0
        ]
        if len(pts) < 3:
            return 0.0
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        sxy = sum((x - mx) * (y - my) for x, y in pts)
        return sxy / sxx


def _span(tracer: Tracer, name: str, fn: Callable, measure=None, variant=None):
    """Wrap fn in a span; a direct re-entry of the same layer folds into it."""
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.current() == nid:
            return fn(*args, **kwargs)
        frame = tracer.begin(nid)
        size = 0
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                size = measure(args, kwargs, result)
            return result
        finally:
            tracer.end(frame, size, variant(args, kwargs) if variant else None)

    return wrapper


def _leaf(tracer: Tracer, name: str, fn: Callable):
    """Aggregate time of non-recursive calls, charged to the open span."""
    depth = tracer.leaf_depth
    leaves = tracer.leaves

    @functools.wraps(fn)
    def wrapper(*args):
        if depth[name]:
            return fn(*args)
        depth[name] += 1
        frame = [name, 0.0]
        leaves.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dur = time.perf_counter() - start
            leaves.pop()
            depth[name] -= 1
            tracer.calls[name] += 1
            tracer.self_s[name] += dur - frame[1]
            if leaves:
                leaves[-1][1] += dur
            elif tracer.stack:
                tracer.stack[-1][2] += dur

    return wrapper


def _replace_everywhere(tracer: Tracer, orig, wrapped) -> None:
    """Point every treecrdt module attribute bound to orig at wrapped."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "treecrdt" or mod_name.startswith("treecrdt.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                tracer.patch(mod, attr, wrapped)


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Trace every layer entry point inside the block, then restore them."""
    _instrument(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()


def _instrument(tracer: Tracer) -> None:
    mods = {n: importlib.import_module(f"treecrdt.{n}") for n in (
        "render", "lookup", "policies", "paths", "graph", "edges", "ordered",
        "clocks", "wootr", "positions", "sets", "harness",
    )}

    for fname in ("render", "sort_key"):
        orig = getattr(mods["render"], fname)
        _replace_everywhere(tracer, orig, _leaf(tracer, f"render.{fname}", orig))

    lookup_tree = mods["lookup"].LookupTree
    tracer.patch(lookup_tree, "dump", _span(
        tracer, "lookup.dump", lookup_tree.dump, lambda a, k, r: len(a[0].instances)
    ))
    children = lookup_tree.children

    def counted_children(self, key):
        tracer.calls["lookup.children"] += 1
        tracer.counts["lookup.children.scanned"] += len(self.instances)
        return children(self, key)

    tracer.patch(lookup_tree, "children", counted_children)

    def wrap_function(mod: str, fname: str, measure=None, variant=None) -> None:
        orig = getattr(mods[mod], fname)
        _replace_everywhere(tracer, orig, _span(tracer, f"{mod}.{fname}", orig, measure, variant))

    wrap_function(
        "policies",
        "connect",
        lambda a, k, r: len(r.edges),
        lambda a, k: _arg(a, k, 3, "policy"),
    )
    wrap_function(
        "policies",
        "map_to_tree",
        lambda a, k, r: len(r.instances),
        lambda a, k: _arg(a, k, 1, "policy"),
    )
    wrap_function("paths", "path_images", lambda a, k, r: len(r))
    wrap_function("graph", "edge_infos", lambda a, k, r: len(r))
    wrap_function("wootr", "wootr_order", lambda a, k, r: len(r))
    wrap_function("positions", "upi_between", lambda a, k, r: len(r.triples))
    for fname, measure in (
        ("check_convergence", None),
        ("linear_extensions", lambda a, k, r: len(r)),
        ("oracle_mismatches", None),
        ("tree_validity", None),
    ):
        wrap_function("harness", fname, measure)
    sim = mods["harness"].Simulation
    tracer.patch(sim, "execute", _span(tracer, "harness.execute", sim.execute))

    for short in TREE_MODULES:
        mod = mods[short]
        for cls in vars(mod).values():
            if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                continue
            for meth, group in TREE_METHODS.items():
                if meth in vars(cls):
                    tracer.patch(cls, meth, _span(tracer, f"{short}.{group}", vars(cls)[meth]))
    sets = mods["sets"]
    for cls in vars(sets).values():
        if not isinstance(cls, type) or not issubclass(cls, sets.SetCrdt) or cls is sets.SetCrdt:
            continue
        for meth in SET_METHODS:
            if meth in vars(cls):
                measure = (lambda a, k, r: len(r)) if meth == "lookup" else None
                tracer.patch(cls, meth, _span(tracer, f"sets.{meth}", vars(cls)[meth], measure))

    _instrument_delivery(tracer, mods["clocks"])


def _instrument_delivery(tracer: Tracer, clocks) -> None:
    """Time drain per next() call, so the caller's apply between yields is excluded."""
    deliverable = clocks.deliverable

    def counted_deliverable(env, delivered):
        tracer.counts["clocks.drain.checks"] += 1
        return deliverable(env, delivered)

    _replace_everywhere(tracer, deliverable, counted_deliverable)
    drain = clocks.DeliveryBuffer.drain
    nid = tracer.name_id(DRAIN_SPAN)

    def traced_drain(self, delivered):
        tracer.calls["clocks.drain"] += 1
        inner = drain(self, delivered)
        while True:
            pending = len(self.pending)
            tracer.maxima["clocks.drain.pending_max"] = max(
                tracer.maxima["clocks.drain.pending_max"], pending
            )
            frame = tracer.begin(nid)
            try:
                env = next(inner)
            except StopIteration:
                tracer.end(frame, pending)
                return
            tracer.end(frame, pending)
            tracer.counts["clocks.drain.yielded"] += 1
            yield env

    tracer.patch(clocks.DeliveryBuffer, "drain", functools.wraps(drain)(traced_drain))


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric by name, as (value, unit)."""
    out: Dict[str, Tuple[float, str]] = {}

    def calls(name: str) -> None:
        out[f"{name}.calls"] = (tracer.calls[name], "count")

    def self_ms(name: str, span: Optional[str] = None) -> None:
        out[f"{name}.self_ms"] = (tracer.self_s[span or name] * 1e3, "ms")

    def timed(name: str) -> None:
        calls(name)
        self_ms(name)
        stat = SIZE_STATS.get(name)
        if stat:
            out[f"{name}.{stat}"] = (tracer.sizes[name], "count")

    for name in ("render.sort_key", "render.render", "lookup.dump"):
        timed(name)
    calls("lookup.children")
    out["lookup.children.scanned"] = (tracer.counts["lookup.children.scanned"], "count")
    timed("policies.connect")
    for policy in CONNECT_POLICIES:
        self_ms(f"policies.connect.{policy}")
    timed("policies.map_to_tree")
    for policy in MAP_POLICIES:
        self_ms(f"policies.map_to_tree.{policy}")
    for name in ("paths.path_images", "graph.edge_infos"):
        timed(name)
    for short in TREE_MODULES:
        for group in ("lookup", "gen", "apply_remote", "merge"):
            calls(f"{short}.{group}")
            self_ms(f"{short}.{group}")
    calls("clocks.drain")
    self_ms("clocks.drain", DRAIN_SPAN)
    yielded = tracer.counts["clocks.drain.yielded"]
    checks = tracer.counts["clocks.drain.checks"]
    out["clocks.drain.yielded"] = (yielded, "count")
    out["clocks.drain.pending_max"] = (tracer.maxima["clocks.drain.pending_max"], "count")
    out["clocks.drain.useful_ratio"] = (yielded / checks if checks else 0.0, "ratio")
    for name in ("wootr.wootr_order", "positions.upi_between"):
        timed(name)
    for meth in SET_METHODS:
        calls(f"sets.{meth}")
        self_ms(f"sets.{meth}")
    out["sets.lookup.elements"] = (tracer.sizes["sets.lookup"], "count")
    for fname in ("check_convergence", "linear_extensions", "oracle_mismatches", "tree_validity"):
        timed(f"harness.{fname}")
    self_ms("harness.execute")
    for name in GROWTH_LAYERS:
        span = DRAIN_SPAN if name == "clocks.drain" else name
        out[f"{name}.growth"] = (tracer.growth(span), "exponent")
    return out
