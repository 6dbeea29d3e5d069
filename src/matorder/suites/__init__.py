"""Named randomized verification suites with deterministic reports.

Every library-level invariant is exercised by exactly one named suite.
run_suite(name, seed, trials) replays a suite deterministically; two runs
with the same arguments produce byte-identical reports up to the timing
field. Failures carry serialized matrix witnesses. This module holds the
runner, the registry and the shared checks; the suites live in the topic
modules of TOPICS, and draws holds their samplers and trial loops.

Writing a suite: put its body `_suite_<name>(rng, trials, tol, rec)` into
the topic module of what it checks (a claim of a new kind into a new topic
module, named in TOPICS), and decorate it with `@_suite(default_trials,
description, **details)`, which registers it as <name> (underscores read as
hyphens) and declares each report detail with its starting value;
suite_names() lists the suites in TOPICS order, and in definition order
within a module. Loop `for t, n in _trials(rng, trials, lo, hi)`, draw
gated samples with `_first(attempts, draw, accept)`, which returns None
once every attempt is rejected, and update the details through rec.count,
rec.keep and rec.set; the body returns nothing. Keep the rng draws in
order: generators stay lazy, so `any`/`next` short-circuit.

Where no draw depends on a check, draw in rng order and finish in a stack.
Draw each trial's raw values (normals, uniforms, the gated
random_invertible, whose gate reads only its own candidate) in the order
the per-trial samplers draw them; the draw functions in draws, such as
_psd_step_draws, _indefinite_step_draws and _block_draws, hold those orders,
next to the stacked bodies that finish them (_psd_steps, _indefinite_steps,
_block_points). _groups groups the trials' draws by dimension or block
class and stacks each group's draws field by field. Each group is
finished with one call of each stacked body (herm_part, _with_spectra,
_eigvalsh, _eigh, _block_map, _opnorms, _in_zero_component, _has_inertia)
and recorded trial by trial, so that failures keep the order
of the per-trial loop. A stack is drawn whole even when a member fails, so
a failure never shifts the draws of later trials. rec.check_residuals
records a stack of residuals whose trials have no other check that could
fail in between, formatting a message only for a failed member
(bordered-identity). Subjects that take one matrix at a time
(affine_interval_iso with its maps) stay one call per trial on the
finished draws (interval-iso); _spectral_apply takes a stack and guards
and maps its members in order (spectral-composition).

Where a gate decides how many candidates a trial draws (theta-inversion,
translation-identity, conjugation-identity), loop over draws._trial_rows,
which speculates that each gate takes its first candidate and rewinds to the
first trial refused; order-embedding, refused too often for that to pay,
draws each trial whole through _first and finishes through _groups. A
finish hands the shear kernels a stack of bases (_in_zero_components
compresses each member's own). A kernel that would
raise for a member is not called on it: its gate runs as a predicate
(_in_shear_domain, _in_zero_components), _where maps the members that
pass, and the record loop calls the raising kernel on the failing trial
alone, so that it raises after the trials before it are recorded. A trial
without a sample holds its base in the places of the draws it lacks, and
its record reads no further.
Suites whose draws depend on a check otherwise stay per trial:
component-criterion, whose path oracle searches one point at a time,
rank-one-trace, which draws a scale only when ||A w|| of a finished base A
is not negligible, and the maps suites, which the benchmark runs as
verify-maps.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import math
import time
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from ..config import DEFAULT_TOL, ToleranceConfig, _checked_int
from ..errors import MalformedInputError, MatOrderError
from ..fileio import matrix_to_payload
from ..linalg import _eigvalsh, _order_verdict, _spectra_norms, herm_part

__all__ = ["RunReport", "run_suite", "suite_names", "suite_description"]

MAX_STORED_FAILURES = 16


@dataclasses.dataclass
class RunReport:
    """Outcome of one suite run; serializes deterministically."""

    suite: str
    seed: int
    trials: int
    failures: List[dict]
    max_residual: float
    details: Dict[str, object]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return self.details["failure_count"] == 0

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "failure_count": self.details["failure_count"],
            "failures": self.failures,
            "max_residual": float(self.max_residual),
            "details": self.details,
        }
        if include_timing:
            out["elapsed_seconds"] = float(self.elapsed_seconds)
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True, separators=(",", ":"))


class _Recorder:
    """One run's failures, largest residual and details. The details start as a copy of the values the
    suite declared on @_suite, so no run shares one; a key it did not declare raises KeyError."""

    def __init__(self, details: Dict[str, object]) -> None:
        self.failures: List[dict] = []
        self.failure_count = 0
        self.max_residual = 0.0
        self.details = copy.deepcopy(details)

    def set(self, key: str, value):
        if key not in self.details:
            raise KeyError(f"detail '{key}' is not declared on @_suite")
        self.details[key] = value
        return value

    def count(self, key: str, k: int = 1) -> int:
        return self.set(key, self.details[key] + k)

    def keep(self, key: str, value, extreme: Callable):
        """Keep the running extreme (max or min) of key's values, a declared None meaning none yet; returns value."""
        held = self.details[key]
        self.set(key, value if held is None else extreme(held, value))
        return value

    def residual(self, value: float) -> float:
        v = float(value)
        if math.isfinite(v):
            self.max_residual = max(self.max_residual, v)
        else:
            self.max_residual = math.inf
        return v

    def fail(self, trial: int, description: str, **witnesses) -> None:
        self.failure_count += 1
        if len(self.failures) < MAX_STORED_FAILURES:
            self.failures.append({
                "trial": int(trial),
                "description": description,
                "witnesses": {k: matrix_to_payload(np.atleast_2d(v)) for k, v in witnesses.items()},
            })

    def check(self, ok: bool, trial: int, description: str, **witnesses) -> bool:
        if not ok:
            self.fail(trial, description, **witnesses)
        return bool(ok)

    def check_residual(self, value: float, bound: float, trial: int, description: str, **witnesses) -> bool:
        v = self.residual(value)
        if v <= bound:
            return True
        self.fail(trial, f"{description}: residual {v:.3e} > {bound:.3e}", **witnesses)
        return False

    def check_residuals(self, values: np.ndarray, bound: float, first: int, description: str, **witness_stacks):
        """check_residual of each member of a stack of residuals, member j as trial first + j with the witnesses
        stack[j]; the same failures, in member order, and the same max_residual as that loop. Returns the verdicts."""
        if values.size:
            self.residual(values.max() if np.isfinite(values).all() else math.inf)
        ok = values <= bound  # NaN fails
        for j in np.flatnonzero(~ok):
            self.fail(first + j, f"{description}: residual {float(values[j]):.3e} > {bound:.3e}",
                      **{k: v[j] for k, v in witness_stacks.items()})
        return ok


# ---------------------------------------------------------------------------
# registry


class _SuiteDef(NamedTuple):
    fn: Callable
    default_trials: int
    description: str
    details: Dict[str, object]


# filled by @_suite, in the order the suite bodies are defined
SUITES: Dict[str, _SuiteDef] = {}


def _suite(default_trials: int, description: str, **details) -> Callable:
    """Register the body _suite_<name> as the suite <name> (underscores read as hyphens) with its declared details."""
    def register(fn: Callable) -> Callable:
        SUITES[fn.__name__[len("_suite_"):].replace("_", "-")] = _SuiteDef(fn, default_trials, description, details)
        return fn
    return register


# ---------------------------------------------------------------------------
# shared checks


def _gap(P: np.ndarray, Q: np.ndarray) -> float:
    """Smallest eigenvalue of Q - P: nonnegative iff P <= Q."""
    return float(_eigvalsh(herm_part(Q - P))[0])


def _check_order(rec: _Recorder, t: int, P: np.ndarray, Q: np.ndarray, tol: ToleranceConfig,
                 what: str, /, strict: bool = False, **witnesses) -> float:
    """Check that the images P <= Q of an ordered pair stay ordered, and strictly so if `strict`.

    P and Q are exactly Hermitian (finished with herm_part), so Q - P is too,
    and one stacked spectrum of P, Q and Q - P gives the norms, the gap and
    the strict verdict. The cushion is 1e-8 * (1 + max(||P||, ||Q||));
    returns the scaled gap.
    """
    return _check_spectra(rec, t, _eigvalsh(np.stack([P, Q, Q - P])), tol, what, strict, **witnesses)


def _check_spectra(rec: _Recorder, t: int, values: np.ndarray, tol: ToleranceConfig, what: str, /,
                   strict: bool = False, **witnesses) -> float:
    """_check_order from the spectra (3, n) of P, Q and Q - P, which a stacked finish takes for all trials at once."""
    scale = 1.0 + float(_spectra_norms(values[:2]).max())
    gap = float(values[2, 0])
    rec.check(gap >= -1e-8 * scale, t, f"ordered {what} lost order (margin {gap:.3e})", **witnesses)
    if strict:
        rec.check(_order_verdict(values[2], tol).lt, t, f"strict {what} no longer strict", **witnesses)
    return gap / scale


def _in_interval(M: np.ndarray, lo: float, hi: float) -> bool:
    """Whether the spectrum of the exactly Hermitian M lies in [lo, hi]."""
    vals = _eigvalsh(M)
    return float(vals[0]) >= lo and float(vals[-1]) <= hi


# the invertibility cushion of Hermitian samples whose inverse is checked to 1e-10
INVOLUTION_MARGIN = ToleranceConfig(inv_margin=0.05)


def _all_classes(n: int):
    return [(m, p) for m in range(n + 1) for p in range(m + 1)]


def suite_names() -> List[str]:
    return list(SUITES)


def suite_description(name: str) -> str:
    if name not in SUITES:
        raise MalformedInputError(f"unknown suite '{name}'; known: {', '.join(SUITES)}")
    return SUITES[name].description


def run_suite(name: str, seed: int = 0, trials: Optional[int] = None,
              tol: ToleranceConfig = DEFAULT_TOL) -> RunReport:
    """Run one named suite deterministically and return its report. A MatOrderError that escapes the body
    stops that suite alone, as one failure at trial -1: "suite stopped by <ErrorClass>: <message>"."""
    if name not in SUITES:
        raise MalformedInputError(f"unknown suite '{name}'; known: {', '.join(SUITES)}")
    spec = SUITES[name]
    n_trials = spec.default_trials if trials is None else _checked_int(trials, "trials", 1)
    seed = _checked_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    rec = _Recorder(spec.details)
    start = time.perf_counter()
    try:
        spec.fn(rng, n_trials, tol, rec)
    except MatOrderError as exc:
        rec.fail(-1, f"suite stopped by {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    return RunReport(
        suite=name,
        seed=seed,
        trials=n_trials,
        failures=rec.failures,
        max_residual=rec.max_residual,
        details={**rec.details, "failure_count": rec.failure_count},
        elapsed_seconds=elapsed,
    )


# the topic modules, in the order suite_names() lists their suites: importing one registers its suites
TOPICS = ("spectra", "mobius", "shear", "blocks", "effects", "loewner", "reports")
for _topic in TOPICS:
    importlib.import_module(f"{__name__}.{_topic}")
