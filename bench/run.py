"""matorder benchmark: named workloads, end-to-end metrics, and a traced run for layers.

Run from the repository root:

    python3 bench/run.py --workload verify-core --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, with times
scaled to a reference CPU speed (common.SpeedProbe). ``--trace 1``
runs the workload once untraced and once traced, and reports per-layer
metrics, the raw LAPACK floors and the tracing overhead. Every line but the
last is information (versions, sample counts, suite digests, ratios); the
last line is the result object. Outputs are checked in both modes and a
wrong outcome makes ``correct`` false. See bench/README.md for the design.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

import common  # first: pins BLAS/OpenMP threads before numpy is imported

END_TO_END = {
    "setup_s": "s",
    "pass_wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 5
CLI_SPLIT_REPEATS = 5
SETUP_TIMEOUT_S = 120


def unit_of(name: str) -> str:
    """Unit of a metric, read off its name."""
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith((".calls", ".errors")):
        return "count"
    if name.endswith("_frac"):
        return "fraction"
    for suffix, unit in (("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    if "_us." in name:
        return "us"
    raise ValueError(f"no unit for metric {name}")


def setup_times(workload: str, seed: int, smoke: bool,
                probe: common.SpeedProbe) -> Tuple[List[float], List[float]]:
    """Import plus input generation, each time in a fresh interpreter: (at reference speed, raw)."""
    cmd = [sys.executable, str(common.BENCH / "child.py"), "setup", workload, str(seed), "1" if smoke else "0"]
    starts, walls, seconds = [], [], []
    for _ in range(1 if smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=common.ROOT, env=common.child_env(), capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, check=True)
        starts.append(t0)
        walls.append(time.perf_counter() - t0)
        seconds.append(float(proc.stdout.split()[-1]))
        probe.after_child()
    return list(seconds * probe.factors(starts, walls)), seconds


def environment(cpus: List[int]) -> dict:
    """Versions, the CPUs the process was given (``nproc``) and the one it pinned itself to."""
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(cpus),
        "pinned_cpu": cpus[0],
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ[var] for var in common.THREAD_VARS},
    }


def sample_info(loop: common.LoopResult) -> dict:
    items = sum(1 for t in loop.times if t)
    return {
        "items": items,
        "ops": loop.ops,
        "passes": loop.passes,
        "elapsed_s": loop.elapsed,
        "op_latency": "per-item median over repeats; p50 and tail over items",
        "tail_rule": "11th-largest item" if items >= 21 else "slowest item (fewer than 21 items)",
    }


def probed_loop(module, variants, seconds: float, probe: common.SpeedProbe, switch=None):
    """``common.interleaved_loop`` with the speed probe sampling the CPU the calls run on."""
    if getattr(module, "SUBPROCESSES", False):
        return common.interleaved_loop(variants, seconds, probe.after_child, switch)
    with probe:
        return common.interleaved_loop(variants, seconds, switch=switch)


def measure(args, module, inputs):
    probe = common.SpeedProbe()
    subprocesses = getattr(module, "SUBPROCESSES", False)
    (loop,) = probed_loop(module, [module.items(inputs, traced=False)], args.seconds, probe)
    # Read before the setup children run: for children the figure is the
    # largest of every child waited for so far, so only CLI calls count.
    peak_rss_mb = common.peak_rss_mb(children=subprocesses)
    setup_probe = common.SpeedProbe()
    setups, raw_setups = setup_times(args.workload, args.seed, args.smoke, setup_probe)
    raw = common.loop_metrics(loop)
    raw["setup_s"] = statistics.median(raw_setups)
    scaled = probe.normalise(loop)
    metrics = common.loop_metrics(scaled)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb
    info = {"samples": sample_info(loop), "raw": raw, "setup_samples_s": raw_setups,
            "speed": probe.info(), "setup_speed": setup_probe.info()}
    if hasattr(module, "breakdown"):
        info["breakdown"] = module.breakdown(inputs, scaled.times)
    return loop, metrics, info


def measure_traced(args, module, inputs):
    from matorder.suites import suite_names
    from probes import cli_split, floor_ratios, lapack_floors
    from tracing import Tracer, layer_metrics, merge

    # Every item runs untraced and traced in turn, in alternating order, and
    # both are scaled by the same speed probe, so that the overhead is not
    # the machine's speed drift between two halves of the run.
    tracer = Tracer()
    probe = common.SpeedProbe()
    variants = [module.items(inputs, traced=False), module.items(inputs, traced=True)]

    def switch(variant: int) -> None:
        tracer.uninstall()
        if variant:
            tracer.install()

    try:
        plain, traced = probed_loop(module, variants, args.seconds, probe, switch)
    finally:
        tracer.uninstall()
    parts = [tracer.stats()]
    parts += [json.loads(path.read_text()) for path in getattr(inputs, "stats_files", [])]
    metrics = layer_metrics(merge(parts), suite_names())
    floors = lapack_floors(args.seed, args.smoke)
    metrics.update(floors)
    metrics.update(cli_split(1 if args.smoke else CLI_SPLIT_REPEATS))
    plain_wall = common.loop_metrics(probe.normalise(plain))["pass_wall_s"]
    traced_wall = common.loop_metrics(probe.normalise(traced))["pass_wall_s"]
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    info = {
        "samples_untraced": sample_info(plain),
        "samples_traced": sample_info(traced),
        "trace_overhead_frac": traced_wall / plain_wall - 1.0,
        "floor_ratios": floor_ratios(floors),
        "spans": len(tracer.start),
        "speed": probe.info(),
    }
    loop = plain._replace(ops=plain.ops + traced.ops, failed=plain.failed + traced.failed)
    return loop, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes for bench/selfcheck.py; not a measurement")
    args = parser.parse_args(argv)
    common.require_checkout()
    cpus = sorted(os.sched_getaffinity(0))
    # One CPU for the benchmark and every process it starts, so that the speed
    # probe samples the CPU the measured code runs on.
    os.sched_setaffinity(0, {cpus[0]})

    module = importlib.import_module(common.WORKLOAD_MODULES[args.workload])
    inputs = module.make_inputs(args.workload, args.seed, args.smoke)
    try:
        loop, metrics, info = (measure_traced if args.trace else measure)(args, module, inputs)
        checked, check_failed, check_info = module.check(inputs)
    finally:
        if hasattr(module, "cleanup"):
            module.cleanup(inputs)
    attempted = loop.ops + checked
    failed = loop.failed + check_failed
    info.update(check_info)
    info.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "environment": environment(cpus), "failed_frac": failed / attempted})
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
