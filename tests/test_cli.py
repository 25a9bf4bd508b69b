"""Command-line behavior: exit codes, golden output, byte stability."""

import pytest

from treecrdt import cli, harness
from treecrdt.demos import DEMOS
from treecrdt.harness import ComboSpec, ConvergenceReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SCENARIO_TEXT = """combo graph or op skip shortest plain
replicas 2
seed 7
r1 add a root
r1 add b a
r2 deliver r1
sync
"""


def test_run_prints_transcript(capsys, tmp_path):
    path = tmp_path / "demo.scn"
    path.write_text(SCENARIO_TEXT)
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 0
    assert err == ""
    assert out.startswith("combo graph or op skip shortest plain\n")
    assert "step 4 sync" in out
    assert out.endswith("      b\n")


def test_run_writes_out_file(capsys, tmp_path):
    path = tmp_path / "demo.scn"
    path.write_text(SCENARIO_TEXT)
    target = tmp_path / "transcript.txt"
    code, out, _ = run_cli(capsys, "run", str(path), "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("combo graph or op skip shortest plain\n")


def test_run_missing_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "run", "missing.scn")
    assert code == 2
    assert out == ""
    assert "no such scenario file" in err


def test_run_malformed_scenario_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text("combo graph or op skip shortest plain\nr1 frobnicate a\n")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "combo, line, message",
    [
        ("graph or state skip shortest plain", "r1 merge r9", "unknown replica 'r9'"),
        ("graph or op skip shortest plain", "r1 deliver r9", "unknown replica 'r9'"),
        ("graph or op skip shortest plain", "r1 add a", "line 2"),
        ("word or op skip - edge", "r1 insert a / x", "line 2"),
        ("graph or op skip shortest plain", "r7 sync now please", "line 2"),
        ("word or op skip - plain", "r1 add a/b /", "'a/b'"),
        ("word 2p op skip - edge", "r1 insert a/b / 0", "'a/b'"),
    ],
)
def test_run_malformed_action_exits_2(capsys, tmp_path, combo, line, message):
    path = tmp_path / "bad.scn"
    path.write_text(f"combo {combo}\n{line}\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("line", ["replicas -2", "seed 1 2"])
def test_run_bad_replicas_or_seed_line_exits_2(capsys, tmp_path, line):
    path = tmp_path / "bad.scn"
    path.write_text(f"combo graph or op skip shortest plain\n{line}\nsync\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert out == ""
    assert "line 2" in err


def test_run_illegal_combo_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text("combo word g op skip several plain\nr1 add a /\n")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "mapping" in err


def test_check_single_combo_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--repr", "graph", "--set", "or", "--flavor", "op",
        "--connect", "skip", "--map", "zero", "--pi", "plain",
        "--ops", "4",
    )
    assert code == 0
    assert out.splitlines()[0] == "checking 1 combos seed=42 ops=4"
    assert "graph or op skip zero plain: pass" in out
    assert out.rstrip().endswith("checked 1 combos: all pass")


def test_check_word_combos_use_dash_map(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--repr", "word", "--set", "g", "--flavor", "state",
        "--map", "-", "--pi", "plain", "--ops", "3",
    )
    assert code == 0
    assert "checking 4 combos" in out


def test_check_no_matching_combo_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", "--repr", "word", "--map", "zero")
    assert code == 2
    assert "no legal combo matches" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--replicas", "0", "at least 1 replica"),
        ("--ops", "-1", "cannot be negative"),
    ],
)
def test_check_bad_sizes_exit_2(capsys, flag, value, message):
    code, out, err = run_cli(
        capsys, "check", "--repr", "word", "--set", "g", "--flavor", "state", flag, value
    )
    assert code == 2
    assert out == ""
    assert message in err


def test_check_refuses_the_retired_schedules_flag(capsys):
    code, out, err = run_cli(capsys, "check", "--repr", "word", "--schedules", "8")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --schedules 8" in err


def test_check_prints_the_walk_cap_and_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(harness, "WALK_CAP", 5)
    code, out, err = run_cli(
        capsys, "check", "--repr", "graph", "--set", "or", "--flavor", "op",
        "--connect", "skip", "--map", "shortest", "--pi", "plain",
    )
    assert code == 2
    assert out == ""
    assert err == "treecrdt check: the walk of delivered sets exceeded its cap of 5\n"


def test_check_reports_failures_with_exit_1(capsys, monkeypatch):
    combo = ComboSpec("graph", "g", "op", "skip", "zero", None)
    broken = ConvergenceReport(combo=combo, scenarios=1, schedules=2)
    broken.divergences.append("seed=42: schedules disagree")
    monkeypatch.setattr(cli, "check_convergence", lambda *a, **kw: broken)
    code, out, _ = run_cli(
        capsys, "check", "--repr", "graph", "--set", "g", "--flavor", "op",
        "--connect", "skip", "--map", "zero", "--pi", "plain",
    )
    assert code == 1
    assert "FAIL" in out
    assert "schedules disagree" in out


def test_usage_errors_exit_2(capsys):
    assert cli.main(["check", "--repr", "pond"]) == 2
    capsys.readouterr()
    assert cli.main(["demo", "no-such-demo"]) == 2
    capsys.readouterr()
    assert cli.main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demos_are_byte_stable(capsys, name):
    code1, out1, _ = run_cli(capsys, "demo", name)
    code2, out2, _ = run_cli(capsys, "demo", name)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("\n")


def test_demo_word_example_lists_the_four_policies(capsys):
    _, out, _ = run_cli(capsys, "demo", "word-example")
    assert "live paths {/, a, ab, ac, abcd, abcde, abcdefg}" in out
    for policy in ("skip", "reappear", "root", "compact"):
        assert any(ln.startswith(policy) for ln in out.splitlines())


def test_demo_cycle_shows_all_mapping_policies(capsys):
    _, out, _ = run_cli(capsys, "demo", "cycle")
    for policy in ("several", "newest", "highest", "shortest", "zero"):
        assert any(ln.startswith(policy) for ln in out.splitlines())
