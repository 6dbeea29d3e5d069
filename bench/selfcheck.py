"""Self-check of the benchmark: every workload at minimal size, both modes.

Run from the repository root (takes about two minutes):

    python3 bench/selfcheck.py

For each workload and ``--trace`` 0 and 1 it runs ``bench/run.py --smoke``
and asserts that the result line names exactly the metrics BENCHMARK.json
lists for that mode, each with its unit and a finite value, that end-to-end
values are positive, and that every outcome was correct. It then runs the
benchmark in a directory holding only BENCHMARK.json and bench/ and asserts
that it fails without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = ["python3", "bench/run.py"]
TIMEOUT_S = 300


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_mode(spec: dict, workload: str, trace: int) -> None:
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    assert set(got) == set(want), f"{workload} trace={trace}: {sorted(set(got) ^ set(want))}"
    for name, metric in got.items():
        assert metric["unit"] == want[name], (name, metric["unit"], want[name])
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
        if not trace:
            assert value > 0, (name, value)
    print(f"ok  {workload:12s} trace={trace}  {len(got)} metrics", flush=True)


def check_bare(spec: dict) -> None:
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "benchmark succeeded without the library source"
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  fails without a checkout", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_mode(spec, workload, trace)
    check_bare(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
