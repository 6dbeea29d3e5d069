"""Shared pieces of the benchmark: thread pinning, the closed loop, the speed probe, statistics.

Importing this module pins BLAS/OpenMP to one thread and puts the checkout's
``src`` on ``sys.path``; it must therefore be imported before numpy.
"""

from __future__ import annotations

import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, List, NamedTuple, Sequence

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
# Scratch files (CLI inputs and outputs, traced-child statistics) live here,
# inside the checkout and ignored by git.
WORK = ROOT / ".bench_run"

# Workload name -> the benchmark module that implements it.
WORKLOAD_MODULES = {
    "verify-core": "verify",
    "verify-maps": "verify",
    "map-stream": "mapstream",
    "cli-cold": "clicold",
}


def require_checkout() -> None:
    """Fail unless run from the root of a checkout that holds the library source."""
    if not (SRC / "matorder" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'matorder'} not found; run from the repository root")


def child_env() -> dict:
    """Environment for subprocesses: pinned threads and the checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MATORDER_TOLERANCES", None)
    return env


if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


class LoopResult(NamedTuple):
    times: List[List[float]]  # per item, one wall time in seconds per repeat
    starts: List[List[float]]  # per item, the perf_counter reading at each start
    ops: int
    failed: int
    elapsed: float
    passes: int


def interleaved_loop(variants: Sequence[Sequence[Callable[[], bool]]], seconds: float,
                     after_item: Callable[[], None] = None,
                     switch: Callable[[int], None] = None) -> List[LoopResult]:
    """Run the items in order, one at a time, until ``seconds`` have passed; one result per variant.

    One caller, closed loop: the next call starts when the previous one has
    returned. The first pass always completes; after it the loop stops at the
    first item boundary past the deadline. Each item returns whether its
    outcome was the expected one; only the call itself is timed, not
    ``switch`` or ``after_item``.

    ``variants`` are versions of the same item list (untraced and traced).
    Item i runs once in each variant before item i + 1 starts; the variant
    that goes first rotates with i and with the pass, so that none always
    runs first. ``switch(v)`` is called before each call of variant v.
    """
    count, n = len(variants), len(variants[0])
    times = [[[] for _ in range(n)] for _ in range(count)]
    starts = [[[] for _ in range(n)] for _ in range(count)]
    ops = [0] * count
    failed = [0] * count
    passes = 0
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds

    def results() -> List[LoopResult]:
        elapsed = clock() - start
        return [LoopResult(times[v], starts[v], ops[v], failed[v], elapsed, passes) for v in range(count)]

    while True:
        for i in range(n):
            if passes and clock() >= deadline:
                return results()
            for k in range(count):
                v = (i + passes + k) % count
                if switch is not None:
                    switch(v)
                t0 = clock()
                ok = variants[v][i]()
                times[v][i].append(clock() - t0)
                starts[v][i].append(t0)
                ops[v] += 1
                failed[v] += not ok
                if after_item is not None:
                    after_item()
        passes += 1


def tail(values: Sequence[float]) -> float:
    """Highest value with at least ten samples beyond it; the maximum below 21 samples.

    With fewer than 21 samples the rule would land at or below the median, so
    the slowest sample stands in and the sample count says so.
    """
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 21 else ordered[-1]


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# The speed of one vCPU of a shared virtual machine drifts by up to 2x within
# seconds (most likely another tenant on the same core), which no affordable
# run length averages out. Timing metrics are therefore normalised to a
# reference speed.
# While a measurement runs, a fixed reference task is timed on the same CPU:
# from a timer signal that interrupts the measuring thread every
# PROBE_INTERVAL_S, or right after each child process when the measured code
# runs in children on this (pinned) CPU. Each measured call is scaled by
# REFERENCE_PROBE_S over the mean probe time within PROBE_WINDOW_S of the call,
# that is, to the speed at which one probe takes REFERENCE_PROBE_S. The raw
# figures are printed too.
PROBE_INTERVAL_S = 0.01
PROBE_WINDOW_S = 0.05
REFERENCE_PROBE_S = 100e-6
PROBES_AFTER_CHILD = 3


class SpeedProbe:
    """Samples the speed of the CPU the measurement runs on; a context manager."""

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        g = np.random.default_rng(0)
        self._inputs = []
        for n in (2, 4, 8):
            G = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
            self._inputs.append(((G + G.conj().T) / 2.0, G + 3.0 * np.eye(n)))
        self.at: List[float] = []  # perf_counter at each probe's start
        self.took: List[float] = []  # its duration in seconds

    def _reference(self) -> float:
        """Small dense linear algebra and Python arithmetic, like the library's own mix."""
        np = self._np
        acc = 0.0
        for H, G in self._inputs:
            w, _ = np.linalg.eigh(H)
            acc += float(np.linalg.norm(np.linalg.solve(G, H), "fro")) + float(w[0])
            acc += sum(i * 0.5 for i in range(40))
        return acc

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._reference()
            self.at.append(t0)
            self.took.append(time.perf_counter() - t0)

    def after_child(self) -> None:
        self.sample(PROBES_AFTER_CHILD)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factors(self, starts, durations):
        """Per call, REFERENCE_PROBE_S over the mean probe time around it."""
        np = self._np
        at = np.asarray(self.at)
        cum = np.concatenate([[0.0], np.cumsum(self.took)])
        starts = np.asarray(starts)
        lo = np.searchsorted(at, starts - PROBE_WINDOW_S)
        hi = np.searchsorted(at, starts + np.asarray(durations) + PROBE_WINDOW_S, side="right")
        count = hi - lo
        mean = np.where(count > 0, (cum[hi] - cum[lo]) / np.maximum(count, 1), cum[-1] / len(self.took))
        return REFERENCE_PROBE_S / mean

    def normalise(self, loop: LoopResult) -> LoopResult:
        times = []
        for durations, starts in zip(loop.times, loop.starts):
            durations = self._np.asarray(durations)
            times.append((durations * self.factors(starts, durations)).tolist())
        return loop._replace(times=times)

    def info(self) -> dict:
        return {"probes": len(self.took), "probe_median_us": statistics.median(self.took) * 1e6}


def loop_metrics(loop: LoopResult) -> dict:
    """End-to-end timing metrics of one closed loop, as numbers."""
    per_item = [statistics.median(t) for t in loop.times if t]
    per_item_mean = [statistics.fmean(t) for t in loop.times if t]
    return {
        "pass_wall_s": sum(per_item),
        # Every item weighs the same, so the count of repeats an item got
        # before the deadline does not change the figure.
        "ops_per_s": len(per_item_mean) / sum(per_item_mean),
        "op_p50_ms": statistics.median(per_item) * 1e3,
        "op_tail_ms": tail(per_item) * 1e3,
    }
