"""cli-cold: sequential ``python -m matorder.cli`` processes over a fixed script.

Each call pays interpreter start, the library import and one command, which
is what a shell user of the CLI waits for. The script covers ``gen``,
``classify``, ``apply`` with every map token, small ``check-monotone`` runs
and ``verify class-count``, plus calls that must exit 1, 2 and 3. Input
files are written from the seed before the clock starts; exit codes are
judged on every call, and outputs are parsed after the timed loop.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable, List

import numpy as np

from common import BENCH, WORK, child_env
from matorder import fileio

CALL_TIMEOUT_S = 60
# The measured code runs in child processes, so the speed probe samples the
# (pinned) CPU right after each call instead of interrupting the parent.
SUBPROCESSES = True


def _cgauss(g, n):
    return (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2.0)


def _with_spectrum(g, values):
    Q, R = np.linalg.qr(_cgauss(g, len(values)))
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    M = (U * np.asarray(values, dtype=float)) @ U.conj().T
    return (M + M.conj().T) / 2.0


def _write_inputs(g, work: Path, seed: int) -> list:
    """Write the input files and return the script: (argv, exit code, output check)."""
    n = 3
    base = _with_spectrum(g, g.uniform(0.5, 2.0, n))  # positive definite: class (3, 3)
    H = _with_spectrum(g, g.uniform(-1.0, 1.0, n))
    block = _with_spectrum(g, g.uniform(-2.0, 2.0, 4))
    block[:2, :2] = _with_spectrum(g, [1.0, -1.5])  # well-conditioned corner of class (2, 1)
    files = {
        "base": base,
        "x": 0.3 * H / np.linalg.norm(base, 2),  # inside the zero component of base
        "outside": -2.0 * np.linalg.inv(base),  # X base + I = -I: outside the component
        "block": block,
        "effect": _with_spectrum(g, g.uniform(0.05, 0.95, n)),
        "frame": _with_spectrum(g, g.uniform(0.6, 1.5, n)) @ np.diag(np.exp(1j * g.uniform(0, 1, n))),
        "contraction": 0.8 * _with_spectrum(g, g.uniform(0.4, 1.0, n)),
        "shift": 0.5 * _with_spectrum(g, g.uniform(-1.0, 1.0, n)),
        "z": _with_spectrum(g, g.uniform(-1.0, 1.0, n)) + 1j * _with_spectrum(g, g.uniform(0.2, 1.5, n)),
        "xpick": _with_spectrum(g, g.uniform(-0.8, 0.8, n)),
    }
    for name, M in files.items():
        fileio.write_matrix_file(work / f"{name}.json", M)
    (work / "rep.json").write_text(json.dumps(
        {"c": 0.5, "d": 1.0, "atoms": [[-3.0, 1.0], [2.5, 0.5]], "interval": [-1.0, 1.0]}))
    (work / "malformed.json").write_text('{"rows": 2, "cols": 2, "data": [[[1, 0]]')
    s = str(seed)

    def matrix_out(path: str, rows: int):
        return lambda out: fileio.parse_matrix_file(work / path).shape == (rows, rows)

    def matrix_stdout(rows: int):
        return lambda out: fileio.parse_matrix_text(out).shape == (rows, rows)

    def json_field(key, value):
        return lambda out: json.loads(out)[key] == value

    def verify_summary(out: str) -> bool:
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) == {"failed": 0, "suites": 1} and json.loads(lines[0])["passed"]

    return [
        (["gen", "--kind", "hermitian", "--dim", "4", "--seed", s, "--out", "g_herm.json"], 0,
         matrix_out("g_herm.json", 4)),
        (["classify", "base.json"], 0, json_field("inertia", [3, 0, 0])),
        (["apply", "--map", "theta", "--base", "base.json", "x.json", "--out", "y_theta.json"], 0,
         matrix_out("y_theta.json", n)),
        (["apply", "--map", "phi", "--base", "base.json", "x.json", "--out", "y_phi.json"], 0,
         matrix_out("y_phi.json", n)),
        (["apply", "--map", "phi-mp", "--corner", "2", "block.json"], 0, matrix_stdout(4)),
        (["apply", "--map", "effect", "--frame", "frame.json", "effect.json", "--out", "y_eff.json"], 0,
         matrix_out("y_eff.json", n)),
        (["apply", "--map", "fpq", "--frame", "contraction.json", "--p", "0.4", "--q", "-0.7",
          "effect.json", "--out", "y_fpq.json"], 0, matrix_out("y_fpq.json", n)),
        (["apply", "--map", "mobius", "--frame", "frame.json", "--base", "shift.json", "--shift-out",
          "shift.json", "z.json", "--out", "y_mob.json"], 0, matrix_out("y_mob.json", n)),
        (["apply", "--map", "pick", "--rep", "rep.json", "xpick.json", "--out", "y_pick.json"], 0,
         matrix_out("y_pick.json", n)),
        (["check-monotone", "--fn", "sqrt", "--order", "2", "--trials", "40", "--seed", s], 0,
         json_field("verdict", "PASS")),
        (["check-monotone", "--fn", "square", "--order", "2", "--trials", "40", "--seed", s], 1,
         json_field("verdict", "FAIL")),
        (["verify", "class-count", "--seed", s, "--no-timing"], 0, verify_summary),
        (["classify", "malformed.json"], 2, None),
        (["apply", "--map", "phi", "--base", "base.json", "outside.json"], 3, None),
    ]


class Inputs:
    def __init__(self, work: Path, script: list) -> None:
        self.work = work
        self.script = script
        self.outputs = [None] * len(script)
        self.stats_files: List[Path] = []


def make_inputs(workload: str, seed: int, smoke: bool) -> Inputs:
    work = WORK / f"cli-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return Inputs(work, _write_inputs(np.random.default_rng(seed), work, seed))


def items(inputs: Inputs, traced: bool) -> List[Callable[[], bool]]:
    env = child_env()

    def make(i: int, argv: list, code: int) -> Callable[[], bool]:
        def item() -> bool:
            if traced:
                stats = inputs.work / f"trace-{len(inputs.stats_files)}.json"
                inputs.stats_files.append(stats)
                cmd = [sys.executable, str(BENCH / "child.py"), "trace-cli", str(stats), *argv]
            else:
                cmd = [sys.executable, "-m", "matorder.cli", *argv]
            proc = subprocess.run(cmd, cwd=inputs.work, env=env, capture_output=True, text=True,
                                  timeout=CALL_TIMEOUT_S)
            inputs.outputs[i] = proc.stdout
            return proc.returncode == code
        return item

    return [make(i, argv, code) for i, (argv, code, _) in enumerate(inputs.script)]


def check(inputs: Inputs):
    attempted = failed = 0
    for (argv, _, check_output), out in zip(inputs.script, inputs.outputs):
        if check_output is None:
            continue
        attempted += 1
        try:
            failed += not check_output(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            print(f"cli output check failed for {argv}: {exc}", file=sys.stderr)
            failed += 1
    return attempted, failed, {"cli_calls_per_pass": len(inputs.script)}


def cleanup(inputs: Inputs) -> None:
    shutil.rmtree(inputs.work, ignore_errors=True)
