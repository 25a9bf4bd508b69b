"""Command-line front end: scenario runner, convergence checker, demos."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .demos import DEMOS
from .errors import IllegalCombo, ScenarioError, WalkBlowup
from .harness import (
    PI_MODES,
    REPRS,
    check_convergence,
    check_sizes,
    legal_combos,
    parse_scenario,
    run_scenario,
)
from .policies import CONNECT_POLICIES, MAP_POLICIES
from .sets import FLAVORS, KINDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecrdt",
        description="Replicated tree simulator: run scenarios, check convergence,"
        " print policy demonstrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file and print its transcript")
    run_p.add_argument("scenario", help="path to a scenario file")
    run_p.add_argument("--out", help="write the transcript to this file instead of stdout")

    check_p = sub.add_parser(
        "check", help="run the convergence checker over every matching combo"
    )
    check_p.add_argument("--repr", dest="repr_name", choices=REPRS)
    check_p.add_argument("--set", dest="kind", choices=KINDS)
    check_p.add_argument("--flavor", choices=FLAVORS)
    check_p.add_argument("--connect", choices=CONNECT_POLICIES)
    check_p.add_argument("--map", dest="map_policy", choices=MAP_POLICIES + ("-",))
    check_p.add_argument("--pi", choices=tuple(pi or "plain" for pi in PI_MODES))
    check_p.add_argument("--seed", type=int, default=42)
    check_p.add_argument("--ops", type=int, default=5)
    check_p.add_argument("--replicas", type=int, default=3)
    check_p.add_argument("--out", help="write the report to this file instead of stdout")

    demo_p = sub.add_parser("demo", help="print a built-in demonstration")
    demo_p.add_argument("name", choices=sorted(DEMOS))
    demo_p.add_argument("--out", help="write the demo to this file instead of stdout")
    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.scenario)
    if not path.is_file():
        print(f"treecrdt run: no such scenario file: {path}", file=sys.stderr)
        return 2
    try:
        scenario = parse_scenario(path.read_text())
        transcript = run_scenario(scenario)
    except (ScenarioError, IllegalCombo) as exc:
        print(f"treecrdt run: {path}: {exc}", file=sys.stderr)
        return 2
    _emit(transcript, args.out)
    return 0


def _match(args: argparse.Namespace):
    # a combo's label spells its fields in flag order, "-" and "plain" included
    flags = (args.repr_name, args.kind, args.flavor, args.connect, args.map_policy, args.pi)
    return [
        c
        for c in legal_combos()
        if all(flag is None or flag == token for flag, token in zip(flags, c.label().split()))
    ]


def _cmd_check(args: argparse.Namespace) -> int:
    combos = _match(args)
    if not combos:
        print("treecrdt check: no legal combo matches those flags", file=sys.stderr)
        return 2
    try:
        check_sizes(args.ops, args.replicas)
    except ValueError as exc:
        print(f"treecrdt check: {exc}", file=sys.stderr)
        return 2
    try:
        reports = [
            check_convergence(c, n_ops=args.ops, n_replicas=args.replicas, seed=args.seed)
            for c in combos
        ]
    except WalkBlowup as exc:
        print(f"treecrdt check: {exc}", file=sys.stderr)
        return 2
    lines = [f"checking {len(combos)} combos seed={args.seed} ops={args.ops}"]
    lines += [report.summary() for report in reports]
    failures = [report for report in reports if not report.passed]
    for report in failures:
        for detail in report.findings:
            lines.append(f"--- {report.combo.label()}")
            lines.append(detail)
    verdict = (
        "all pass" if not failures else f"{len(failures)} of {len(combos)} combos FAIL"
    )
    lines.append(f"checked {len(combos)} combos: {verdict}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if not failures else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    _emit(DEMOS[args.name](), args.out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "check":
        return _cmd_check(args)
    return _cmd_demo(args)


if __name__ == "__main__":
    sys.exit(main())
