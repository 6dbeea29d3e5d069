"""verify-core and verify-maps: every suite of the group at its default trial count.

Together the two groups are the full ``matorder verify``. The split follows
the code each suite leans on: the core group is validation plus the linalg,
order, localiso and block-class kernels; the maps group is the half-plane,
effect-map, monotonicity and file-format code.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List

from matorder import suites

CORE = (
    "eigen-residual", "inertia-congruence", "order-antisymmetry", "spectral-composition",
    "rank-one-trace", "interval-iso", "projection-dominance", "theta-inversion",
    "order-embedding", "interval-criterion", "translation-identity", "conjugation-identity",
    "component-criterion", "block-involution", "bordered-identity", "block-monotonicity",
    "growth-ranks", "class-count",
)
MAPS = (
    "halfplane-roundtrip", "rational-inverse", "mobius-closure", "mobius-hermitian",
    "congruence-orbit", "parameter-recovery", "effect-fixpoints", "effect-order",
    "effect-embedding", "loewner-consistency", "pick-evaluation", "serialization-roundtrip",
    "report-determinism",
)
GROUPS = {"verify-core": CORE, "verify-maps": MAPS}
SMOKE_TRIALS = 2


class Inputs:
    def __init__(self, names, seed: int, smoke: bool) -> None:
        if sorted(CORE + MAPS) != sorted(suites.suite_names()):
            raise SystemExit("error: the verify groups must list each of the library's suites once")
        self.names = names
        self.seed = seed
        self.trials = SMOKE_TRIALS if smoke else None  # None: each suite's default
        self.reports = {}
        self.errors = {}  # suite -> exception text; a raising suite is a wrong outcome


def make_inputs(workload: str, seed: int, smoke: bool) -> Inputs:
    return Inputs(GROUPS[workload], seed, smoke)


def items(inputs: Inputs, traced: bool) -> List[Callable[[], bool]]:
    def make(name: str) -> Callable[[], bool]:
        def item() -> bool:
            try:
                report = suites.run_suite(name, seed=inputs.seed, trials=inputs.trials)
            except Exception as exc:  # a suite that raises is a wrong outcome, not a crash
                inputs.errors[name] = f"{type(exc).__name__}: {exc}"
                return False
            inputs.reports[name] = report
            return report.passed
        return item

    return [make(name) for name in inputs.names]


def check(inputs: Inputs):
    """Digest of each suite's --no-timing body, for information only; failing suites by name."""
    digests = {
        name: hashlib.sha256(report.to_json(include_timing=False).encode()).hexdigest()[:16]
        for name, report in inputs.reports.items()
    }
    failing = {name: report.to_dict(include_timing=False)["failure_count"]
               for name, report in inputs.reports.items() if not report.passed}
    return 0, 0, {"suite_digests": digests, "suite_failures": failing, "suite_errors": inputs.errors}
