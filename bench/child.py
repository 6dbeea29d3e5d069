"""Subprocess entry points of the benchmark; run.py starts these, not users.

    child.py setup <workload> <seed> <smoke 0|1>
        time importing the workload's modules (the library with them) and
        generating its inputs in a fresh interpreter; prints the seconds.
    child.py cli-split <matorder CLI arguments...>
        time ``import matorder.cli`` and then one ``main`` call; prints both
        in seconds on the last line (the command's own output goes first).
    child.py trace-cli <stats.json> <matorder CLI arguments...>
        run one CLI command with every public function traced; writes the
        span statistics to stats.json and exits with the command's code.
"""

import time

START = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402  (pins threads and puts the library source on sys.path)


def setup(workload: str, seed: str, smoke: str) -> int:
    module = importlib.import_module(common.WORKLOAD_MODULES[workload])
    inputs = module.make_inputs(workload, int(seed), smoke == "1")
    print(time.perf_counter() - START)
    if hasattr(module, "cleanup"):
        module.cleanup(inputs)
    return 0


def cli_split(*argv: str) -> int:
    t0 = time.perf_counter()
    from matorder import cli

    t1 = time.perf_counter()
    code = cli.main(list(argv))
    t2 = time.perf_counter()
    print(t1 - t0, t2 - t1)
    return code


def trace_cli(stats_path: str, *argv: str) -> int:
    import json

    from matorder import cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(list(argv))
    finally:
        tracer.uninstall()
        Path(stats_path).write_text(json.dumps(tracer.stats()))
    return code


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    sys.exit({"setup": setup, "cli-split": cli_split, "trace-cli": trace_cli}[mode](*args))
