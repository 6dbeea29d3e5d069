"""Ledger of `matorder verify --no-timing` verdicts and report digests at seeds 0-39.

    PYTHONPATH=src python tests/ledger.py --write   # record this tree's reports
    PYTHONPATH=src python tests/ledger.py --check   # compare this tree with the record

Both run every suite at every seed in one process, through cli.main. The
ledger, tests/data/verify_ledger.json, holds per suite and seed the verdict,
the failure count and the sha256 of the suite's report line, under a header
fingerprinting the environment (Python, numpy, the BLAS numpy was
built with, the machine). Report lines carry LAPACK-level floats, so their
bytes may differ across BLAS builds while every verdict holds: --check
fails on any changed verdict or failure count, and on a changed digest only
when the fingerprint matches; under another fingerprint it prints the moved
(suite, seed) pairs and passes. A change that moves reports on purpose
rewrites the ledger with --write, and its diff names each moved pair.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import platform
import sys

import numpy as np

LEDGER = pathlib.Path(__file__).parent / "data" / "verify_ledger.json"
SEEDS = range(40)


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(key, "")) for key in ("name", "version", "openblas configuration")).strip(),
        "machine": platform.machine(),
    }


def run_reports(seeds=SEEDS) -> dict:
    """{suite: {seed: {"passed", "failure_count", "sha256"}}} of this tree's verify reports at the seeds."""
    from matorder.cli import main

    reports: dict = {}
    for seed in seeds:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["verify", "--seed", str(seed), "--no-timing"])
        for line in out.getvalue().splitlines()[:-1]:  # the last line is the summary
            report = json.loads(line)
            reports.setdefault(report["suite"], {})[str(seed)] = {
                "passed": report["passed"],
                "failure_count": report["failure_count"],
                "sha256": hashlib.sha256(line.encode("utf-8")).hexdigest(),
            }
    return reports


def compare(recorded: dict, current: dict, same_environment: bool) -> tuple:
    """(errors, moved): pairs whose verdict, failure count or presence differ, and pairs whose digest alone
    moved; a moved digest is an error only in the environment the ledger was written in."""
    errors, moved = [], []
    for suite in sorted(set(recorded) | set(current)):
        old, new = recorded.get(suite, {}), current.get(suite, {})
        for seed in sorted(set(old) | set(new), key=int):
            a, b = old.get(seed), new.get(seed)
            if a is None or b is None:
                errors.append(f"{suite} seed {seed}: {'not in the ledger' if a is None else 'not run'}")
            elif (a["passed"], a["failure_count"]) != (b["passed"], b["failure_count"]):
                errors.append(f"{suite} seed {seed}: passed={a['passed']} failures={a['failure_count']}"
                              f" became passed={b['passed']} failures={b['failure_count']}")
            elif a["sha256"] != b["sha256"]:
                (errors if same_environment else moved).append(f"{suite} seed {seed}: report digest moved")
    return errors, moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record this tree's reports in the ledger")
    mode.add_argument("--check", action="store_true", help="compare this tree's reports with the ledger")
    args = parser.parse_args(argv)
    env = fingerprint()
    current = run_reports()
    if args.write:
        LEDGER.parent.mkdir(parents=True, exist_ok=True)
        LEDGER.write_text(json.dumps({"fingerprint": env, "reports": current}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {sum(map(len, current.values()))} (suite, seed) pairs to {LEDGER}")
        return 0
    ledger = json.loads(LEDGER.read_text())
    same = ledger["fingerprint"] == env
    errors, moved = compare(ledger["reports"], current, same)
    for line in moved:
        print(f"moved under another environment: {line}")
    for line in errors:
        print(f"ledger mismatch: {line}")
    pairs = sum(map(len, current.values()))
    print(f"{pairs} (suite, seed) pairs; {len(errors)} mismatched, {len(moved)} digests moved;"
          f" fingerprint {'matches' if same else 'differs: digests are informational'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
