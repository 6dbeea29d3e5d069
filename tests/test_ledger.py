"""The committed verify ledger covers every suite at every seed, its comparison keeps verdicts fixed, and this
tree replays its seed 0."""

import json

import pytest
from ledger import LEDGER, SEEDS, compare, fingerprint, run_reports

from matorder.suites import suite_names


def test_ledger_keys_are_every_suite_at_every_seed():
    reports = json.loads(LEDGER.read_text())["reports"]
    assert sorted(reports) == sorted(suite_names())
    for suite, seeds in reports.items():
        assert sorted(seeds, key=int) == [str(seed) for seed in SEEDS], suite
        assert all(sorted(entry) == ["failure_count", "passed", "sha256"] for entry in seeds.values()), suite


def test_a_moved_digest_fails_only_under_the_ledgers_fingerprint():
    entry = {"passed": True, "failure_count": 0, "sha256": "a"}
    recorded = {"s": {"0": entry}}
    moved = {"s": {"0": dict(entry, sha256="b")}}
    assert compare(recorded, moved, same_environment=True) == (["s seed 0: report digest moved"], [])
    assert compare(recorded, moved, same_environment=False) == ([], ["s seed 0: report digest moved"])


def test_a_changed_verdict_or_a_missing_pair_fails_in_any_environment():
    entry = {"passed": True, "failure_count": 0, "sha256": "a"}
    flipped = {"s": {"0": {"passed": False, "failure_count": 1, "sha256": "a"}}}
    for current, same in ((flipped, False), ({}, False), ({"s": {"0": entry, "1": entry}}, True)):
        errors, moved = compare({"s": {"0": entry}}, current, same)
        assert len(errors) == 1 and moved == []


def test_this_tree_replays_the_ledger_at_seed_0():
    # verify --seed 0 --no-timing over every suite: verdicts and failure counts must match anywhere, the report
    # digests only in the environment the ledger was written in
    ledger = json.loads(LEDGER.read_text())
    recorded = {suite: {"0": seeds["0"]} for suite, seeds in ledger["reports"].items()}
    same = ledger["fingerprint"] == fingerprint()
    errors, moved = compare(recorded, run_reports(seeds=[0]), same)
    assert errors == []
    if not same:
        pytest.skip(f"report digests not compared ({len(moved)} moved): the environment {fingerprint()} "
                    f"is not the ledger's {ledger['fingerprint']}")
