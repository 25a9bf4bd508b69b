"""Every legal combo's transcript and payload encoding, pinned by digest.

One seeded scenario per combo is run twice: once for its transcript, and
once more so each final replica's ``canonical()`` payload text can be read.
Both are folded into one SHA-256 per (representation, positioning mode),
so a change to any tree class that alters a dump, a violation message or
the set encoding of any combo shows up here.  The reports the checker
gives on a known defect are pinned the same way.
"""

import dataclasses
import hashlib

from helpers import hiding_tree
from treecrdt.harness import (
    Simulation,
    check_convergence,
    legal_combos,
    parse_combo,
    random_scenario,
    run_scenario,
)
from treecrdt.demos import DEMOS

EXPECTED = {
    ("edge", "edge"): "2501f6dad3db1edfef2899bb1576470587453e74460b7a8930fde4c6f49753ea",
    ("edge", "plain"): "f5bc6f4f9e90f857dcffc609ec1507934de024e5cec0a91c3e9d5d156e0c073f",
    ("edge", "wootr"): "ebdfeee7246769de5e19bcbb5e8851a8ae3c93e4576846f0f86744ec1d51238f",
    ("graph", "edge"): "eb772f058673a46dcf2a4d19b2bcdd5a250d34f153413ad0fede8c5ed63f635f",
    ("graph", "node"): "044a4771cf3bbda8e685294c08355acf92d2a5ae8904df9f1cf378446258b8ed",
    ("graph", "plain"): "478220d51f7ce392bb163359f3d7f3f20088adb722a650fa9fa1f465d3ab96f1",
    ("graph", "wootr"): "a403835039eb30d9c30b916749909d6f0f4750c2abba4b87e6bd48100f6dd203",
    ("word", "edge"): "4072b52ae2d7cbdf542aa13418bb1a9672e2d9c361393fcfcfe006210670d107",
    ("word", "plain"): "a130340ed80cf664bc694fe90ac33424b3e3847986ef058bae61e5414e727854",
    ("word", "wootr"): "58f966182d4119d545ac3768d813eba27895dbc0db7989afada016e00e511687",
}


def combo_digests():
    groups = {}
    for combo in legal_combos():
        scn = random_scenario(combo, seed=5, n_ops=8)
        sim = Simulation(combo, scn.replicas, scn.seed)
        sim.run(scn.script)
        key = (combo.repr_name, combo.pi_mode or "plain")
        digest = groups.setdefault(key, hashlib.sha256())
        digest.update(run_scenario(scn).encode())
        for rid in sim.rids:
            digest.update(sim.replicas[rid].tree.canonical().encode())
    return {key: digest.hexdigest() for key, digest in groups.items()}


def test_every_combo_transcript_and_payload_is_unchanged():
    assert combo_digests() == EXPECTED


DEMO_DIGESTS = {
    "cycle": "f9736c9928a648381e302a6c8bf60cb8df867aefdc8b7a8d20b1b60287ab4ebf",
    "orphan-policies": "b26140bc07f15e798ca38cc62fdb517ccef72c7e1f95869ffcbe06d1e4e3247c",
    "wootr-abc": "e5a1c7c35c72b0124dc5e22aa641cea821c9776a3b21c5992880e02c455968b4",
    "word-example": "ed775fd2b48f993230ea870247f7b764896040381d4bca6288c12954c2c1b8be",
}


def test_demo_digests():
    """Pin the text of every demo, so a change to the simulator or a tree
    that alters what a demo prints shows up here."""
    found = {name: hashlib.sha256(demo().encode()).hexdigest() for name, demo in DEMOS.items()}
    assert found == DEMO_DIGESTS


# the three op-flavor combos of the replay benchmark, over ~360-action scripts
# (300 ops plus syncs) whose graph and edge trees reach ~80 nodes per replica
LONG_SCRIPT_DIGESTS = {
    "graph or op compact highest plain": "4f5d5082e59b19e25a62794b1a236df8ab01ecf2890cd25671f2558dc2de1937",
    "edge lww op root newest plain": "dacc3d7b390f334c9d4cada333c59dad98266278013b264d1de32567ac11c4c3",
    "word or op reappear - plain": "0b20d68dc769ded62269d837456e793ed7d32ba4f1eb6abd0e5f529590b30713",
}


def test_long_script_transcript_digests():
    """Pin the transcripts of long scripts, where sibling lists and edge
    buckets are large enough for an ordering change to show."""
    found = {}
    for label in LONG_SCRIPT_DIGESTS:
        combo = parse_combo(label.split())
        scn = random_scenario(combo, seed=7, n_ops=300)
        found[label] = hashlib.sha256(run_scenario(scn).encode()).hexdigest()
    assert found == LONG_SCRIPT_DIGESTS


# monotone zero-policy combos that report a survivor move, with their check seeds
KNOWN_ZERO_REPORTS = (
    ("edge 2p op reappear zero plain", (6, 7, 14, 15, 59)),
    ("edge or op reappear zero plain", (22, 23)),
    ("edge 2p op skip zero edge", (57, 58)),
)
KNOWN_ZERO_DIGEST = "ec4ea4747aa3eb18c2219857c1676b43ce6d6f299ddfbd859dfd4f54160c9b32"


def test_known_zero_policy_reports_digest():
    """Pin every field of the reports the checker gives on a known defect.

    These nine reports fail on purpose: the zero mapping policy moves a
    survivor on a few edge combos, for a cause not yet established.  Their
    messages carry both location forms, ``step=... replica=...`` for a
    replica and ``order=... delivery=...`` for a delivered set, so the
    digest pins the checker's full report text.  A later fix of the
    zero-policy defect changes these reports, and updates this digest on
    purpose.
    """
    digest = hashlib.sha256()
    for label, seeds in KNOWN_ZERO_REPORTS:
        combo = parse_combo(label.split())
        for seed in seeds:
            report = check_convergence(combo, seed=seed)
            assert not report.passed
            digest.update(repr(dataclasses.astuple(report)).encode())
    assert digest.hexdigest() == KNOWN_ZERO_DIGEST


PLANTED_HIDDEN_DIGEST = "c516cfa99f230863be486ec7c852ae1bf9c35e549cb1175ffded79907bf82972"


def test_planted_hidden_node_reports_digest():
    """Pin every field of the reports on a node set that hides one element.

    Node a is the first fresh name, so the oracle disagrees at every
    delivered set that holds its add, on every edge of the walk into it,
    and on every replica step after the add arrives.
    """
    combo = parse_combo("graph or op skip shortest plain".split())
    report = check_convergence(combo, factory=hiding_tree)
    assert report.oracle_mismatches and not report.divergences
    digest = hashlib.sha256(repr(dataclasses.astuple(report)).encode())
    assert digest.hexdigest() == PLANTED_HIDDEN_DIGEST
