"""Layer probes of a traced run: raw LAPACK floors and the CLI's cold-start split.

The floors time ``np.linalg.eigh``, ``solve`` and ``svd`` and the library's
``inertia`` and ``hermitian_eigen`` on the same Hermitian inputs at each n, so
the Python cost around the LAPACK call shows as a ratio. The CLI split times a
bare interpreter, then the import of ``matorder.cli`` and one ``gen`` command
inside a fresh interpreter.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

from common import BENCH, ROOT, child_env
from matorder import linalg

FLOOR_DIMS = (2, 4, 8)
FLOOR_INPUTS = 64
FLOOR_ROUNDS = 15
CLI_SPLIT_COMMAND = ("gen", "--kind", "hermitian", "--dim", "4", "--seed", "1")


def lapack_floors(seed: int, smoke: bool) -> dict:
    """Median per-call microseconds of each routine over rounds of the same inputs."""
    g = np.random.default_rng(seed)
    rounds = 3 if smoke else FLOOR_ROUNDS
    out = {}
    for n in FLOOR_DIMS:
        G = (g.standard_normal((FLOOR_INPUTS, n, n)) + 1j * g.standard_normal((FLOOR_INPUTS, n, n))) / np.sqrt(2)
        mats = list((G + G.conj().transpose(0, 2, 1)) / 2.0)
        routines = {
            "eigh": np.linalg.eigh,
            "solve": lambda H: np.linalg.solve(H, H),
            "svd": np.linalg.svd,
            "inertia": linalg.inertia,
            "hermitian_eigen": linalg.hermitian_eigen,
        }
        samples = {name: [] for name in routines}
        clock = time.perf_counter
        for _ in range(rounds):
            for name, fn in routines.items():
                t0 = clock()
                for H in mats:
                    fn(H)
                samples[name].append((clock() - t0) / FLOOR_INPUTS)
        for name, values in samples.items():
            out[f"floor.{name}_us.n{n}"] = statistics.median(values) * 1e6
    return out


def floor_ratios(floors: dict) -> dict:
    return {
        f"floor.{name}_over_eigh.n{n}": floors[f"floor.{name}_us.n{n}"] / floors[f"floor.eigh_us.n{n}"]
        for n in FLOOR_DIMS for name in ("inertia", "hermitian_eigen")
    }


def cli_split(repeats: int) -> dict:
    """Cold-start split of one CLI command, in milliseconds (medians over repeats).

    ``interp`` is the wall of a bare interpreter; ``import`` and ``main`` are
    timed inside a fresh interpreter around ``import matorder.cli`` and the
    first ``main`` call, so they do not carry process-start noise.
    """
    env = child_env()
    bare = [sys.executable, "-c", "pass"]
    split = [sys.executable, str(BENCH / "child.py"), "cli-split", *CLI_SPLIT_COMMAND]
    interp, imports, mains = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(bare, cwd=ROOT, env=env, check=True, timeout=60)
        interp.append(time.perf_counter() - t0)
        proc = subprocess.run(split, cwd=ROOT, env=env, check=True, capture_output=True, text=True,
                              timeout=60)
        import_s, main_s = map(float, proc.stdout.split()[-2:])
        imports.append(import_s)
        mains.append(main_s)
    return {
        "cli.interp_ms": statistics.median(interp) * 1e3,
        "cli.import_ms": statistics.median(imports) * 1e3,
        "cli.main_ms": statistics.median(mains) * 1e3,
    }
