"""Run one benchmark workload against the treecrdt sources and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 20 --trace 0

The workload's inputs are built from the seed (set-up, repeated and timed),
then identical passes run over fresh replicas until ``--seconds`` have gone
by.  ``--trace 1`` adds one traced pass after the untraced ones and reports
the per-layer metrics from it.  The last line of standard output is one JSON
object; the lines before it are the full human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SETUP_REPEATS = 5
OUT_DIR = ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("matrix", "replay", "siblings"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run one pass at the workload's smallest size (for the benchmark's own test)",
    )
    return parser.parse_args(argv)


def quantile(values, q: int, n: int) -> float:
    """The q-th of the n-quantiles, as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=n)[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "treecrdt" / "__init__.py").is_file():
        print("perfbench: no treecrdt sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from speed import Stopwatch

    # Set-up is timed SETUP_REPEATS times and reported as a median: the
    # package import (dropped from sys.modules in between, so each import
    # runs its module code again), then the workload's inputs and replicas.
    watch = Stopwatch()
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "treecrdt" or m.startswith("treecrdt.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        treecrdt = importlib.import_module("treecrdt")
        watch.record(time.perf_counter() - t0, "import")
        watch.flush()
    if Path(treecrdt.__file__).resolve().parent != (src / "treecrdt").resolve():
        print(f"perfbench: imported treecrdt from {treecrdt.__file__}, not ./src",
              file=sys.stderr)
        return 2
    from spans import Tracer, instrumented, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workload(args.seed, args.smoke)
        watch.record(time.perf_counter() - t0, "setup")
        watch.flush()
    setup_s = statistics.median(watch.scaled("import")) + statistics.median(watch.scaled("setup"))

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(contextlib.nullcontext))
        if args.smoke or time.perf_counter() - start >= args.seconds:
            break
    runs = list(passes)
    tracer = None
    if args.trace:
        tracer = Tracer()
        runs.append(wl.run_pass(lambda: instrumented(tracer)))

    digests = {p.digest for p in runs}
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    problems = [msg for p in runs for msg in p.problems]
    if len(digests) > 1:
        problems.append(f"passes disagree: {len(digests)} distinct output digests")
    correct = failed == 0 and len(digests) == 1

    units = [s * 1e3 for p in passes for s in p.watch.scaled()]
    wall = statistics.median(p.wall_s for p in passes)
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "unit_ms_p50": (statistics.median(units), "ms"),
        "unit_ms_p90": (quantile(units, 9, 10), "ms"),
        "units_per_s": (len(units) / sum(p.wall_s for p in passes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {
        "setup_s": f"median of {SETUP_REPEATS} imports + median of {SETUP_REPEATS} set-ups",
        "wall_s": f"median of {len(passes)} passes",
        "unit_ms_p50": f"n={len(units)} {wl.unit}s",
        "unit_ms_p90": f"n={len(units)} {wl.unit}s",
        "units_per_s": f"n={len(units)} {wl.unit}s",
        "peak_rss_mb": "one process",
    }

    report = [
        f"workload {args.workload} seed {args.seed} passes {len(passes)}"
        f" traced {int(bool(tracer))} {wl.unit}s/pass {len(passes[0].watch.scaled())}",
        "times are scaled to the reference probe speed; raw wall seconds per pass: "
        + " ".join(f"{p.watch.raw_total():.3f}" for p in runs),
        f"digest {runs[0].digest}",
        f"correct {correct} attempted {attempted} failed {failed}",
    ]
    report += [f"problem {msg}" for msg in problems[:20]]
    report += [
        f"e2e {name} = {value:.6g} {unit} ({samples[name]})"
        for name, (value, unit) in e2e.items()
    ]
    report += workload_figures(args.workload, passes, attempted, failed)
    metrics = e2e
    if tracer is not None:
        layers = layer_metrics(tracer)
        overhead = (runs[-1].wall_s / wall - 1) * 100
        layers["trace.overhead_pct"] = (overhead, "%")
        report += [f"layer {name} = {value:.6g} {unit}" for name, (value, unit) in layers.items()]
        out_dir = Path.cwd() / OUT_DIR
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
        tracer.write(spans)
        report.append(f"spans {len(tracer.s_name)} written to {spans.relative_to(Path.cwd())}")
        metrics = layers
    print("\n".join(report))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def workload_figures(name, passes, attempted, failed):
    """The workload's own end-to-end figures, with units and sample counts."""
    total_s = sum(p.wall_s for p in passes)
    lines = [f"metric error_rate = {failed / attempted:.6g} (n={attempted} units)"]
    if name == "matrix":
        combos = [s * 1e3 for p in passes for s in p.watch.scaled("combo")]
        schedules = sum(p.schedules for p in passes)
        per_pass = len(combos) // len(passes)
        return lines + [
            "metric rejected_share = n/a (no scripted actions)",
            f"metric combo_ms_p50 = {statistics.median(combos):.6g} ms (n={len(combos)})",
            f"metric combo_ms_p98 = {quantile(combos, 49, 50):.6g} ms (n={len(combos)})",
            f"metric schedules_per_s = {schedules / total_s:.6g} 1/s"
            f" (n={schedules} schedules, {passes[0].schedules}/pass)",
            f"metric combos_passed = {per_pass - passes[0].failed}/{per_pass}",
        ]
    local = [s * 1e3 for p in passes for s in p.watch.scaled("local")]
    remote = [s * 1e3 for p in passes for s in p.watch.scaled("remote")]
    actions = len(local) + len(remote)
    per_pass = actions // len(passes)
    return lines + [
        f"metric rejected_share = {passes[0].rejected / per_pass:.6g}"
        f" ({passes[0].rejected}/{per_pass} actions per pass)",
        f"metric actions_per_s = {actions / total_s:.6g} 1/s (n={actions} actions)",
        f"metric local_ms_p50 = {statistics.median(local):.6g} ms (n={len(local)})",
        f"metric local_ms_p95 = {quantile(local, 19, 20):.6g} ms (n={len(local)})",
        f"metric remote_ms_p50 = {statistics.median(remote):.6g} ms (n={len(remote)})",
        f"metric remote_ms_p90 = {quantile(remote, 9, 10):.6g} ms (n={len(remote)})",
    ]


if __name__ == "__main__":
    sys.exit(main())
