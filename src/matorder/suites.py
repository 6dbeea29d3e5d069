"""Named randomized verification suites with deterministic reports.

Every library-level invariant is exercised by exactly one named suite.
run_suite(name, seed, trials) replays a suite deterministically; two runs
with the same arguments produce byte-identical reports up to the timing
field. Failures carry serialized matrix witnesses.

Writing a suite: decorate its body `_suite_<name>(rng, trials, tol, rec)`
with `@_suite(default_trials, description, **details)`, which registers it
as <name> (underscores read as hyphens) and declares each report detail with
its starting value; suite_names() lists the suites in definition order.
Loop `for t, n in _trials(rng, trials, lo, hi)`, draw gated samples with
`_first(attempts, draw, accept)`, which returns None once every attempt is
rejected, and update the details through rec.count, rec.keep and rec.set;
the body returns nothing. Keep the rng draws in order: generators stay
lazy, so `any`/`next` short-circuit.

Where no draw depends on a check, draw in rng order and finish in a stack.
Draw each trial's raw values (normals, uniforms, the gated
random_invertible, whose gate reads only its own candidate) in the order
the per-trial samplers draw them; draw functions such as _psd_step_draws,
_indefinite_step_draws and _block_draws hold those orders, next to the
stacked bodies that finish them (_psd_steps, _indefinite_steps,
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
and maps its members in order (spectral-composition). Suites whose draws
depend on a check stay per trial: the gated suites draw candidates until
a domain gate on a finished matrix accepts one (order-embedding,
theta-inversion, translation-identity, conjugation-identity,
component-criterion), and rank-one-trace draws a scale only when ||A w||
of a finished base A is not negligible.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import time
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from .classify import (BlockMapSpec, EffectAutoSpec, EffectEmbeddingSpec, FpqSpec, _block_map, _bordered_arrangement,
                       _bordered_embedding, _effect_automorphism, _effect_embedding, _growth_direction,
                       _in_block_domain, _signature_class, block_map_apply, class_count, are_equivalent,
                       effect_embedding_map, endpoint_continuity, enumerate_signatures, rational_effect_factors,
                       signature_class)
from .config import DEFAULT_TOL, ToleranceConfig, _checked_int
from .errors import DomainViolationError, MalformedInputError, MatOrderError, ModelMismatchError, PathSearchError
from .fileio import matrix_to_payload, matrix_to_text, parse_matrix_text
from .halfplane import (MobiusAutomorphism, _apply_mobius, _fit_canonical, _in_half_plane, cayley, inverse_cayley,
                        mobius_fix01, mobius_fix01_matrix, neg_inverse, normalize_phase)
from .linalg import (EigenDecomposition, _eigh, _eigvalsh, _frob, _hermitian_opnorms, _is_invertible, _jacobi_eigen,
                     _loewner_compare, _opnorms, _order_verdict, _spectra_have_inertia, _spectra_invertible,
                     _spectra_norms, _spectral_apply, _spectrum_inertia, _sqrt_psd, as_hermitian, herm_part,
                     hermitian_eigen, inertia, invertibility_margin)
from .localiso import (REAL_EIG_MARGIN, _apply_local_iso, _congruence_orbit, _identify_parameters,
                       _in_zero_component, _interval_below_criterion, _order_iso_apply, _range_compression,
                       _segment_from, _shear_apply, conjugated_base, in_zero_component, path_to_zero, translated_base)
from .monotone import (PickRepresentation, ScalarFunction, _pick_matrix, builtin_function, is_matrix_monotone,
                       loewner_matrix, pick_eval)
from .order import OperatorInterval, affine_interval_iso, interval_contains, projection_dominance_radius, rank_one_leq
from .sampling import (EFFECT_SPECTRUM, _complex_from_normals, _half_plane_stack, _spectrum_draws, _with_spectra,
                       complex_gaussian, random_contraction, random_effect, random_half_plane, random_hermitian,
                       random_hermitian_with_spectrum, random_invertible, random_psd, random_unitary)

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
# shared samplers


def _rand_dim(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(rng.integers(lo, hi + 1))


def _trials(rng: np.random.Generator, trials: int, lo: int = 2, hi: int = 6):
    """Yield (t, n) per trial; n is drawn as trial t starts, before its other draws."""
    for t in range(trials):
        yield t, _rand_dim(rng, lo, hi)


def _groups(draws: dict):
    """Yield (key, trials, stacks) per key: `draws` maps each trial to its key (such as its dimension or block
    class) and its draws (numbers and arrays); a group's draws are stacked field by field, in trial order, and
    leave `draws`, so a suite holds each draw once."""
    trials = {}
    for t, (key, *_) in draws.items():
        trials.setdefault(key, []).append(t)
    for key, ts in trials.items():
        yield key, ts, [np.stack(field) for field in zip(*(draws.pop(t)[1:] for t in ts))]


def _one(draws: tuple) -> list:
    """One trial's draws as the stacks of a single member."""
    return [np.asarray(field)[None] for field in draws]


def _first(attempts: int, draw: Callable, accept: Callable):
    """The first of `attempts` draws that `accept` passes, or None."""
    for _ in range(attempts):
        cand = draw()
        if accept(cand):
            return cand
    return None


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    """Relative error ||got - want|| / (1 + ||want||) in the spectral norm; on stacks, the worst member's."""
    return float((_opnorms(got - want) / (1.0 + _opnorms(want))).max())


def _rel_hermitian(got: np.ndarray, want: np.ndarray):
    """_rel of exactly Hermitian got and want, member by member on stacks (..., n, n), both norms from one
    stacked spectrum."""
    norms = _hermitian_opnorms(np.stack([got - want, want], axis=-3))
    return norms[..., 0] / (1.0 + norms[..., 1])


def _hnorm(*Ms: np.ndarray) -> float:
    """Sum of the spectral norms of exactly Hermitian matrices of one shape, from one stacked spectrum."""
    return float(_hermitian_opnorms(np.stack(Ms)).sum())


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
    values = _eigvalsh(np.stack([P, Q, Q - P]))
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


def _with_spectrum(rng: np.random.Generator, vals: np.ndarray) -> np.ndarray:
    """V diag(vals) V* for a random unitary V, drawn after vals."""
    return _with_spectra(vals, complex_gaussian(rng, len(vals), len(vals)))


# the signs _mixed_rank_hermitian picks from: SIGNS[rng.integers(0, 2, size=n)] draws what rng.choice(SIGNS, size=n)
# draws, without choice's argument handling
SIGNS = np.array([-1.0, 1.0])


def _mixed_rank_hermitian(rng: np.random.Generator, n: int, zero_prob: float = 0.3,
                          lo: float = 0.3, hi: float = 2.5) -> np.ndarray:
    """Hermitian with well-separated eigenvalues, some forced to exactly zero."""
    vals = np.where(
        rng.random(n) < zero_prob,
        0.0,
        rng.uniform(lo, hi, size=n) * SIGNS[rng.integers(0, 2, size=n)],
    )
    return _with_spectrum(rng, vals)


# invertibility cushions: samples kept well inside a domain, Hermitian samples whose inverse is checked to 1e-10
WELL_MARGINED = ToleranceConfig(inv_margin=1e-3)
INVOLUTION_MARGIN = ToleranceConfig(inv_margin=0.05)


def _well_margined(M: np.ndarray) -> bool:
    return _is_invertible(M, WELL_MARGINED)


def _sample_shear_member(rng: np.random.Generator, A: np.ndarray) -> Optional[np.ndarray]:
    n = A.shape[0]
    return _first(200, lambda: random_hermitian(rng, n, scale=rng.uniform(0.3, 1.6)),
                  lambda X: _well_margined(X @ A + np.eye(n)))


def _sample_component_member(rng: np.random.Generator, A: np.ndarray, compression,
                             tol: ToleranceConfig) -> Optional[np.ndarray]:
    n = A.shape[0]
    eye = np.eye(n)
    for k in range(300):
        scale = rng.uniform(0.1, 1.2) if k % 2 else rng.uniform(0.05, 0.5)
        X = random_hermitian(rng, n, scale=scale)
        if _well_margined(X @ A + eye) and _in_zero_component(compression, X, tol):
            return X
    return None


def _psd_step_draws(rng: np.random.Generator, n: int) -> tuple:
    """The draws of _psd_step: its size factor, then random_psd's spectrum and Gaussians."""
    factor = rng.uniform(0.02, 0.4)
    values, G = _spectrum_draws(rng, n, 0.0, 1.0, 1)
    return factor, values[0], G[0]


def _psd_steps(norms: np.ndarray, strict: bool, factors: np.ndarray, values: np.ndarray, G: np.ndarray) -> np.ndarray:
    """_psd_step of each member j, from an X of spectral norm norms[j] and member j of the stacked draws."""
    D = _with_spectra(values, G)
    D = D * (factors * (1.0 + norms) / np.maximum(_hermitian_opnorms(D), 1e-12))[:, None, None]
    if strict:
        D = D + (0.05 * (1.0 + norms))[:, None, None] * np.eye(D.shape[-1])
    return herm_part(D)


def _psd_step(rng: np.random.Generator, X: np.ndarray, strict: bool = False) -> np.ndarray:
    """A PSD step from X, of size 0.02-0.4 (1 + ||X||), positive definite by 0.05 (1 + ||X||) if strict."""
    return _psd_steps(_hermitian_opnorms(X[None]), strict, *_one(_psd_step_draws(rng, X.shape[0])))[0]


def _indefinite_step_draws(rng: np.random.Generator, n: int) -> tuple:
    """The draws of _indefinite_step: n eigenvalue factors, then the Gaussians of its unitary."""
    return rng.uniform(0.05, 0.5, size=n), complex_gaussian(rng, n, n)


def _indefinite_steps(norms: np.ndarray, factors: np.ndarray, G: np.ndarray) -> np.ndarray:
    """_indefinite_step of each member j, from an X of spectral norm norms[j] and member j of the stacked draws:
    the first max(1, n // 2) eigenvalues positive, the others negative."""
    k = max(1, G.shape[-1] // 2)
    s = (1.0 + norms)[:, None]
    return _with_spectra(np.concatenate([factors[:, :k] * s, -factors[:, k:] * s], axis=-1), G)


def _indefinite_step(rng: np.random.Generator, X: np.ndarray) -> np.ndarray:
    """Direction with clearly positive and clearly negative eigenvalues, scaled by 1 + ||X||."""
    return _indefinite_steps(_hermitian_opnorms(X[None]), *_one(_indefinite_step_draws(rng, X.shape[0])))[0]


def _block_draws(rng: np.random.Generator, spec: BlockMapSpec, k: int) -> tuple:
    """The draws of k points of the (m, p) block domain: each draws a Gaussian pair for X, then the corner's p
    positive and m - p negative eigenvalues and the Gaussian pair of its unitary."""
    n, m, p = spec.n, spec.m, spec.p
    normals = np.empty((k, 2, n, n))
    vals = np.empty((k, m))
    corner_normals = np.empty((k, 2, m, m))
    for i in range(k):
        rng.standard_normal(out=normals[i])
        if m > 0:
            vals[i, :p] = rng.uniform(0.3, 2.0, size=p)
            vals[i, p:] = -rng.uniform(0.3, 2.0, size=m - p)
            rng.standard_normal(out=corner_normals[i])
    return normals, vals, corner_normals


def _block_points(spec: BlockMapSpec, normals: np.ndarray, vals: np.ndarray, corner_normals: np.ndarray) -> np.ndarray:
    """The stack of block-domain points with a well-margined corner from stacked _block_draws, finished with one QR
    and one V diag V*."""
    m = spec.m
    X = herm_part(_complex_from_normals(normals)) * 0.8
    if m > 0:
        X[:, :m, :m] = _with_spectra(vals, _complex_from_normals(corner_normals))
    return herm_part(X)


def _block_samples(rng: np.random.Generator, spec: BlockMapSpec, k: int) -> np.ndarray:
    """k random points of the (m, p) block domain with a well-margined corner, as a stack."""
    return _block_points(spec, *_block_draws(rng, spec, k))


def _effect_pair(rng: np.random.Generator, n: int, tol: ToleranceConfig, strict: bool = False):
    X = random_effect(rng, n)
    G = _sqrt_psd(_eigh(np.eye(n) - X), tol)
    if strict:
        R = herm_part(random_hermitian_with_spectrum(rng, n, 0.2, 0.9))
    else:
        R = random_effect(rng, n)
    c = rng.uniform(0.2, 0.9)
    Y = herm_part(X + c * G @ R @ G)
    return X, Y


def _all_classes(n: int):
    return [(m, p) for m in range(n + 1) for p in range(m + 1)]


# ---------------------------------------------------------------------------
# core linear algebra suites


@_suite(120, "eigendecomposition residual and unitarity, LAPACK at dims up to 16, Jacobi up to 8")
def _suite_eigen_residual(rng, trials, tol, rec):
    sizes = [2, 3, 4, 5, 6, 8, 12, 16]
    draws = [random_hermitian(rng, sizes[t % len(sizes)], scale=10.0 ** rng.uniform(-1.0, 1.0)) for t in range(trials)]
    # jacobi (O(n^4)) on the matrices up to n = 8, the sizes the other suites hand it, in one call per dimension
    jacobi = {}
    for _, ts, (X,) in _groups({t: (X.shape[0], X) for t, X in enumerate(draws) if X.shape[0] <= 8}):
        jacobi.update(zip(ts, map(EigenDecomposition, *_jacobi_eigen(X, tol))))
    for t, X in enumerate(draws):
        n = X.shape[0]
        engines = [("numpy", hermitian_eigen(X, tol))] + ([("jacobi", jacobi[t])] if t in jacobi else [])
        for engine, decomp in engines:
            V, vals = decomp.vectors, decomp.values
            res = _frob(X @ V - V * vals) / (1.0 + _frob(X))
            rec.check_residual(res, tol.eig_tol, t, f"{engine} eigen residual", X=X)
            unit = _frob(V.conj().T @ V - np.eye(n))
            rec.check_residual(unit, tol.eig_tol * n, t, f"{engine} eigenvector unitarity", X=X)
            rec.check(bool(np.all(np.diff(vals) >= 0)), t, f"{engine} eigenvalues not ascending", X=X)
        if t == 0:
            D = np.diag([3.0, -1.0, 0.0, 7.5]).astype(complex)
            got = hermitian_eigen(D, tol).values
            rec.check_residual(float(np.max(np.abs(got - np.sort(np.diag(D).real)))), tol.eig_tol,
                               t, "diagonal eigenvalues", X=D)


@_suite(300, "inertia invariance under congruence and scaling")
def _suite_inertia_congruence(rng, trials, tol, rec):
    scales = (1e-3, 1.0, 1e3)
    wants, draws = [], {}
    for t, n in _trials(rng, trials):
        n_pos = int(rng.integers(0, n + 1))
        n_zero = int(rng.integers(0, n - n_pos + 1))
        n_neg = n - n_pos - n_zero
        vals = np.concatenate([
            rng.uniform(0.5, 3.0, size=n_pos),
            np.zeros(n_zero),
            -rng.uniform(0.5, 3.0, size=n_neg),
        ])
        wants.append((n_pos, n_zero, n_neg))
        draws[t] = n, vals, random_invertible(rng, n, max_cond=30.0)
    rows = {}
    for n, ts, (vals, S) in _groups(draws):
        X = herm_part(S @ (vals[:, :, None] * np.eye(n)) @ S.conj().swapaxes(-1, -2))
        # the spectrum of X (as 1 X), then those of the multiples c X that inertia(c * X) reads
        spectra = _eigvalsh(herm_part(np.array((1.0, *scales))[:, None, None] * X[:, None]))
        rows.update(zip(ts, zip(S, X, spectra)))
    for t, want in enumerate(wants):
        S, X, spectra = rows[t]
        got = tuple(_spectrum_inertia(spectra[0], tol))
        rec.check(got == want, t, f"congruence changed inertia {want} -> {got}", X=X, S=S)
        for c, values in zip(scales, spectra[1:]):
            rec.check(tuple(_spectrum_inertia(values, tol)) == got, t, f"inertia not scale invariant at c={c}", X=X)


@_suite(300, "semidefinite order: reflexivity, antisymmetry, negation flip, strictness")
def _suite_order_antisymmetry(rng, trials, tol, rec):
    # per trial: X, a PSD step P from X (strict at even trials), a second point Y and an indefinite step D
    draws = {}
    for t, n in _trials(rng, trials):
        draws[t] = ((n, t % 2 == 0), rng.uniform(0.5, 2.0), complex_gaussian(rng, n, n), *_psd_step_draws(rng, n),
                    complex_gaussian(rng, n, n), *_indefinite_step_draws(rng, n))
    rows = {}
    for (n, strict), ts, (scale, GX, factor, values, GP, GY, *indefinite) in _groups(draws):
        X = herm_part(GX) * scale[:, None, None]
        normX = _hermitian_opnorms(X)
        P = _psd_steps(normX, strict, factor, values, GP)
        Y = herm_part(GY)
        D = _indefinite_steps(normX, *indefinite)
        XP = X + P
        # the spectra of Y - X that each comparison below reads, and those of P and X + P
        spectra = _eigvalsh(np.stack([XP - X, P, XP, X - XP, X - X, Y - X, -X - -Y, (X + D) - X], axis=1))
        rows.update(zip(ts, zip(X, P, Y, D, normX, spectra)))
    for t, (X, P, Y, D, normX, spectra) in sorted(rows.items()):
        step, min_p, normXP = _order_verdict(spectra[0], tol), float(spectra[1, 0]), _spectra_norms(spectra[2])
        rec.check(step.leq, t, "X <= X + PSD failed", X=X, P=P)
        if min_p > 1e-4 * (1.0 + float(normX + normXP)):
            rec.check(step.lt, t, "strict step not detected as strict", X=X, P=P)
            rec.check(not _order_verdict(spectra[3], tol).leq, t, "antisymmetry violated", X=X, P=P)
        rec.check(_order_verdict(spectra[4], tol).equal, t, "X == X failed", X=X)
        rec.check(_order_verdict(spectra[5], tol).leq == _order_verdict(spectra[6], tol).leq, t,
                  "negation flip mismatch", X=X, Y=Y)
        rec.check(_order_verdict(spectra[7], tol).incomparable, t, "indefinite step not incomparable", X=X, D=D)


@_suite(200, "functional calculus composes and matches across engines")
def _suite_spectral_composition(rng, trials, tol, rec):
    bound = 1e-9
    hyperbola = lambda x: math.sqrt(x * x + 1.0)
    # per trial: X = random_hermitian(rng, n, scale=...) and P = herm_part(random_psd(rng, n) + 0.3 I)
    draws = {}
    for t, n in _trials(rng, trials):
        draws[t] = n, rng.uniform(0.5, 2.0), complex_gaussian(rng, n, n), *_spectrum_draws(rng, n, 0.0, 1.0, 1)
    rows = {}
    for n, ts, (scale, G, values, GP) in _groups(draws):
        X = herm_part(G) * scale[:, None, None]
        P = herm_part(_with_spectra(values[:, 0], GP[:, 0]) + 0.3 * np.eye(n))
        # one eigh of the group for each image decomposed again; the guard of sqrt(x + 1) runs before log's,
        # so a tolerance that breaks both raises the error trial 0 raised first in a per-trial loop
        vals, vecs = _eigh(np.stack([X, P], axis=1))
        X_eigen = EigenDecomposition(vals[:, 0], vecs[:, 0])
        one_step = _spectral_apply(X_eigen, hyperbola, None, (), tol)
        inner = _spectral_apply(X_eigen, lambda x: x * x, None, (), tol)
        two_step = _spectral_apply(_eigh(inner), lambda x: math.sqrt(x + 1.0), (-0.5, math.inf), (), tol)
        log_p = _spectral_apply(EigenDecomposition(vals[:, 1], vecs[:, 1]), math.log, (0.0, math.inf), (), tol)
        back = _spectral_apply(_eigh(log_p), math.exp, None, (), tol)
        alt = _spectral_apply(_jacobi_eigen(X, tol), hyperbola, None, (), tol)
        rows.update(zip(ts, zip(X, P, _rel_hermitian(two_step, one_step), _rel_hermitian(back, P),
                                _rel_hermitian(alt, one_step))))
    for t, (X, P, composition, identity, engines) in sorted(rows.items()):
        rec.check_residual(composition, bound, t, "sqrt(x^2+1) composition", X=X)
        rec.check_residual(identity, bound, t, "exp(log(P)) identity", P=P)
        rec.check_residual(engines, bound, t, "engine cross-check", X=X)


@_suite(500, "rank-one domination criterion against the direct eigenvalue oracle", skipped_borderline=0)
def _suite_rank_one_trace(rng, trials, tol, rec):
    for t, n in _trials(rng, trials):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nv2 = float(np.vdot(v, v).real)
        c = rng.uniform(0.1, 1.4) / nv2
        R = herm_part(c * np.outer(v, v.conj()))
        kind = t % 3
        if kind == 0:
            A = herm_part(np.outer(v, v.conj()) / nv2)
            if abs(c * nv2 - 1.0) < 1e-3:
                rec.count("skipped_borderline")
                continue
            rec.check(rank_one_leq(R, A, tol) == (c * nv2 <= 1.0), t,
                      "projection trace rule mismatch", R=R, A=A)
            continue
        if kind == 1:
            A = herm_part(random_psd(rng, n) + 0.1 * np.eye(n))
        else:
            vals = np.concatenate([rng.uniform(0.2, 2.0, size=n - 1), [0.0]])
            A = _with_spectrum(rng, vals)
            if t % 2 == 0:
                w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                u = A @ w
                nu = float(np.linalg.norm(u))
                if nu > 1e-8:
                    u = u / nu
                    cc = rng.uniform(0.1, 1.4)
                    R = herm_part(cc * np.outer(u, u.conj()))
        gap = _gap(R, A)
        scale = 1.0 + _hnorm(A, R)
        if abs(gap) <= 1e-6 * scale:
            rec.count("skipped_borderline")
            continue
        rec.check(rank_one_leq(R, A, tol) == (gap >= 0.0), t,
                  f"rank-one domination mismatch (gap {gap:.3e})", R=R, A=A)


@_suite(200, "affine interval isomorphism: endpoints, inverse, order both ways")
def _suite_interval_iso(rng, trials, tol, rec):
    # per trial: L, the gap D = U - L (positive definite at even trials, of rank r < n at odd ones), a random
    # effect E1, and the weight and effect of the step E2 = E1 + c G2 R G2, G2 = (I - E1)^(1/2)
    draws = {}
    for t, n in _trials(rng, trials, 2, 5):
        L = complex_gaussian(rng, n, n)
        if t % 2 == 0:
            gap = [x[0] for x in _spectrum_draws(rng, n, 0.0, 1.0, 1)]
        else:
            r = int(rng.integers(1, n))
            gap = np.concatenate([rng.uniform(0.3, 2.0, size=r), np.zeros(n - r)]), complex_gaussian(rng, n, n)
        e1, g1 = _spectrum_draws(rng, n, *EFFECT_SPECTRUM, 1)
        c = rng.uniform(0.2, 0.8)
        r, g2 = _spectrum_draws(rng, n, *EFFECT_SPECTRUM, 1)
        draws[t] = (n, t % 2 == 0), L, *gap, e1[0], g1[0], c, r[0], g2[0]
    rows = {}
    for (n, definite), ts, (L, values, G, e1, g1, c, r, g2) in _groups(draws):
        L = herm_part(L)
        D, E1, R = _with_spectra(np.stack([values, e1, r]), np.stack([G, g1, g2]))
        if definite:
            D = herm_part(D + 0.2 * np.eye(n))
        U = herm_part(L + D)
        vals, vecs = _eigh(np.stack([D, np.eye(n) - E1], axis=1))
        Dh, G2 = (np.stack([_sqrt_psd(EigenDecomposition(vals[j, i], vecs[j, i]), tol) for j in range(len(ts))])
                  for i in (0, 1))
        X1 = herm_part(L + Dh @ E1 @ Dh)
        E2 = herm_part(E1 + c[:, None, None] * G2 @ R @ G2)
        X2 = herm_part(L + Dh @ E2 @ Dh)
        beyond = herm_part(U + (0.1 * (1.0 + _hermitian_opnorms(U)))[:, None, None] * np.eye(n))
        rows.update(zip(ts, zip(L, U, X1, X2, beyond)))
    for t, (L, U, X1, X2, beyond) in sorted(rows.items()):
        iso = affine_interval_iso(L, U, tol)
        eye_r = np.eye(iso.rank)
        rec.check_residual(_hnorm(iso.forward(L, tol)), 1e-10, t, "forward(lower) != 0", L=L, U=U)
        rec.check_residual(_hnorm(iso.forward(U, tol) - eye_r), 1e-10, t, "forward(upper) != I", L=L, U=U)
        F1 = iso.forward(X1, tol)
        rec.check(_in_interval(F1, -1e-8, 1.0 + 1e-8), t,
                  "forward image leaves the effect interval", X=X1)
        rec.check_residual(_rel_hermitian(iso.backward(F1, tol), X1), 1e-9, t, "backward(forward) identity", X=X1)
        _check_order(rec, t, F1, iso.forward(X2, tol), tol, "forward pair", X1=X1, X2=X2)
        J = OperatorInterval(L, U)
        rec.check(interval_contains(J, X1, tol), t, "sampled point not contained", X=X1)
        rec.check(not interval_contains(J, beyond, tol), t, "point beyond upper reported contained", U=U)


@_suite(200, "closed-form dominance radius against eigenvalue checks in dim 2", skipped_borderline=0)
def _suite_projection_dominance(rng, trials, tol, rec):
    # per trial: weights c < d, a unit vector v (normalized alone: a norm along an axis has other bits) and the
    # coefficients of u = cos(alpha) v + sin(alpha) phase w, w the unit vector orthogonal to v
    draws = []
    for t in range(trials):
        c = rng.uniform(0.0, 0.9)
        d = rng.uniform(c + 0.02, 1.0)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alpha = rng.uniform(0.0, math.pi / 2.0)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        draws.append((c, d, v / np.linalg.norm(v), math.cos(alpha), math.sin(alpha) * phase, abs(math.sin(alpha))))
    cs, ds, v, cosines, rotations, _ = (np.array(field) for field in zip(*draws))
    w = np.stack([-np.conj(v[:, 1]), np.conj(v[:, 0])], axis=1)
    u = cosines[:, None] * v + rotations[:, None] * w
    P, Q, E = (x[:, :, None] * x.conj()[:, None, :] for x in (v, w, u))
    # outer products are Hermitian only up to rounding: finish them as a draw
    spectra = _eigvalsh(herm_part(P + cs[:, None, None] * Q) - herm_part(ds[:, None, None] * E))
    for t, (c, d, *_, dist) in enumerate(draws):
        radius = projection_dominance_radius(c, d)
        if abs(dist - radius) < 1e-4:
            rec.count("skipped_borderline")
            continue
        if _order_verdict(spectra[t], tol).leq != (dist <= radius):
            rec.fail(t, f"dominance mismatch at distance {dist:.6f}, radius {radius:.6f}", E=E[t], P=P[t])


# ---------------------------------------------------------------------------
# half-plane suites


@_suite(300, "cayley transform round trips; negated inverse is an involution")
def _suite_halfplane_roundtrip(rng, trials, tol, rec):
    for t, n in _trials(rng, trials, 2, 5):
        Z = random_half_plane(rng, n)
        M = inverse_cayley(Z, tol)
        rec.check(_opnorms(M) < 1.0, t, "ball image is not a strict contraction", Z=Z)
        rec.check_residual(_rel(cayley(M, tol), Z), 1e-10, t, "half-plane round trip", Z=Z)
        W = random_contraction(rng, n)
        Z2 = cayley(W, tol)
        rec.check(_in_half_plane(Z2, tol), t, "cayley left the half-plane", W=W)
        rec.check_residual(_rel(inverse_cayley(Z2, tol), W), 1e-10, t, "contraction round trip", W=W)
        N = neg_inverse(Z, tol)
        rec.check(_in_half_plane(N, tol), t, "negated inverse left the half-plane", Z=Z)
        rec.check_residual(_rel(neg_inverse(N, tol), Z), 1e-10, t, "negated inverse involution", Z=Z)
        X = random_hermitian(rng, n)
        if _is_invertible(X, INVOLUTION_MARGIN):
            rec.check_residual(_rel(neg_inverse(neg_inverse(X, tol), tol), X),
                               1e-10, t, "Hermitian involution", X=X)


_FIX01_WINDOWS = {
    -2.0: (-0.4, 1.2),
    -0.5: (-1.5, 2.0),
    0.3: (-1.5, 2.5),
    0.9: (0.05, 2.0),
}


@_suite(200, "the 0,1-fixing rational family: inverse law, order, half-plane stability")
def _suite_rational_inverse(rng, trials, tol, rec):
    params = sorted(_FIX01_WINDOWS)
    for t in range(trials):
        r = params[t % len(params)]
        lo, hi = _FIX01_WINDOWS[r]
        r_inv = r / (r - 1.0)
        rec.check_residual(abs(mobius_fix01(r, 0.0)), 1e-12, t, f"f_{r} does not fix 0")
        rec.check_residual(abs(mobius_fix01(r, 1.0) - 1.0), 1e-12, t, f"f_{r} does not fix 1")
        xs = np.sort(rng.uniform(lo, hi, size=3))
        ys = [mobius_fix01(r, float(x)) for x in xs]
        for x, y in zip(xs, ys):
            rec.check_residual(abs(mobius_fix01(r_inv, y) - x) / (1.0 + abs(x)), 1e-9,
                               t, f"scalar inverse law at r={r}")
        rec.check(ys[0] < ys[1] < ys[2], t, f"f_{r} not increasing on its window")
        n = _rand_dim(rng, 2, 5)
        X = random_hermitian_with_spectrum(rng, n, lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
        Y = mobius_fix01_matrix(r, X, tol)
        rec.check_residual(_rel_hermitian(mobius_fix01_matrix(r_inv, Y, tol), X), 1e-9,
                           t, f"matrix inverse law at r={r}", X=X)
        Z = random_half_plane(rng, n)
        rec.check(_in_half_plane(mobius_fix01_matrix(r, Z, tol), tol), t, f"f_{r} left the half-plane", Z=Z)


def _random_mobius(rng: np.random.Generator, n: int) -> MobiusAutomorphism:
    return MobiusAutomorphism(
        frame=random_invertible(rng, n, max_cond=8.0),
        A=random_hermitian(rng, n, scale=0.7),
        B=random_hermitian(rng, n, scale=0.7),
        C=random_hermitian(rng, n, scale=0.7),
        transpose=bool(rng.integers(2)),
    )


def _anchored_fit(rng: np.random.Generator, h: Callable, n: int, tol: ToleranceConfig) -> tuple:
    """(fit, refused): _fit_canonical of h anchored at (X0, h(X0)) for the first of 60 Hermitian draws X0
    that h accepts and whose fit is not refused (ModelMismatchError), or None; refused counts the refusals."""
    refused = 0
    for _ in range(60):
        X0 = random_hermitian(rng, n, scale=0.6)
        try:
            anchor = X0, herm_part(h(X0))
        except DomainViolationError:
            continue
        try:
            return _fit_canonical(h, n, anchor, tol), refused
        except ModelMismatchError:
            refused += 1
    return None, refused


@_suite(12, "compositions of upper-half-plane automorphisms refit in the same family", anchors_refused=0)
def _suite_mobius_closure(rng, trials, tol, rec):
    for t, n in _trials(rng, trials, 2, 4):
        g1 = _random_mobius(rng, n)
        g2 = _random_mobius(rng, n)
        h = lambda Z: _apply_mobius(g2, _apply_mobius(g1, Z, tol), tol)
        try:
            fitted, refused = _anchored_fit(rng, h, n, tol)
        except DomainViolationError as exc:
            rec.fail(t, f"composition did not refit: {exc}", frame1=g1.frame, frame2=g2.frame)
            continue
        rec.count("anchors_refused", refused)
        if fitted is None:
            rec.fail(t, f"no anchor refit the composition ({refused} refused)", frame1=g1.frame, frame2=g2.frame)
            continue
        points = _half_plane_stack(rng, n, 15)
        wants = h(points)
        got = _apply_mobius(fitted, points, tol)
        for Z, want in zip(points, wants):
            rec.check(_in_half_plane(want, tol), t, "composition left the half-plane", Z=Z)
        rec.check_residual(_rel(got, wants), 1e-6, t, "refit composition mismatch",
                           frame1=g1.frame, frame2=g2.frame)


@_suite(200, "automorphisms send Hermitian points to Hermitian points", skipped_outside_domain=0)
def _suite_mobius_hermitian(rng, trials, tol, rec):
    for t, n in _trials(rng, trials, 2, 5):
        m = _random_mobius(rng, n)
        X = random_hermitian(rng, n, scale=rng.uniform(0.5, 2.0))
        try:
            Y = _apply_mobius(m, X, tol)
        except DomainViolationError:
            rec.count("skipped_outside_domain")
            continue
        rec.check_residual(_opnorms(Y - Y.conj().T) / (1.0 + _opnorms(Y)), 1e-9,
                           t, "Hermitian input produced non-Hermitian output", X=X)
        Z = random_half_plane(rng, n)
        out = _apply_mobius(m, Z, tol)
        rec.check(_in_half_plane(out, tol), t, "half-plane point left the half-plane", Z=Z)


# ---------------------------------------------------------------------------
# local order isomorphism suites


@_suite(500, "shear map: mirrored base inverts it; left and right formulas agree",
        singular_bases=0, max_inversion_residual=0.0, max_two_sided_residual=0.0)
def _suite_theta_inversion(rng, trials, tol, rec):
    for t, n in _trials(rng, trials):
        A = _mixed_rank_hermitian(rng, n) if t % 20 else np.zeros((n, n), dtype=complex)
        if not _spectra_invertible(_eigvalsh(A), tol):
            rec.count("singular_bases")
        X = _sample_shear_member(rng, A)
        if X is None:
            rec.fail(t, "no shear-domain sample found", A=A)
            continue
        Y = _shear_apply(A, X, tol)
        try:
            back = _shear_apply(-A, Y, tol)
        except DomainViolationError:
            rec.fail(t, "image not in the mirrored domain", A=A, X=X)
            continue
        scale = 1.0 + _hnorm(X)
        r1 = rec.keep("max_inversion_residual", _opnorms(back - X) / scale, max)
        rec.check_residual(r1, 1e-9, t, "inversion identity", A=A, X=X)
        # Y is the left formula (X A + I)^{-1} X; the right one is X (A X + I)^{-1}
        right = np.linalg.solve((A @ X + np.eye(n)).T, X.T).T
        r2 = rec.keep("max_two_sided_residual", _opnorms(Y - right) / scale, max)
        rec.check_residual(r2, 1e-10, t, "two-sided formula", A=A, X=X)


@_suite(500, "gated pairs stay ordered both ways; strict stays strict; incomparable stays so",
        skipped=0, strict_checked=0, min_strict_margin=None)
def _suite_order_embedding(rng, trials, tol, rec):
    # a gate at the larger margin is both _well_margined and the shear gate at tol
    gate = max(WELL_MARGINED, tol, key=lambda c: c.inv_margin)
    for t, n in _trials(rng, trials, 2, 4):
        A = _mixed_rank_hermitian(rng, n, zero_prob=0.2)
        base = A if t % 4 != 2 else -A
        compression = _range_compression(base, tol)
        X = _sample_component_member(rng, base, compression, tol)
        if X is None:
            rec.count("skipped")
            continue
        strict = t % 4 == 1
        indefinite = t % 4 == 3
        # X passed _well_margined when it was sampled, so its shifted end is gated once, not per candidate Y
        shifted = X @ base + np.eye(n)
        x_gated = _is_invertible(shifted, gate)
        Y = _first(60, lambda: herm_part(X + (_indefinite_step(rng, X) if indefinite
                                               else _psd_step(rng, X, strict=strict))),
                   lambda Y: x_gated and _segment_from(base, X, shifted, Y, gate))
        if Y is None:
            rec.count("skipped")
            continue
        P, Q = _order_iso_apply(base, compression, np.stack([X, Y]), tol)
        if indefinite:
            rec.check(_loewner_compare(P, Q, tol).incomparable, t,
                      "incomparable pair became comparable", A=base, X=X, Y=Y)
            continue
        margin = _check_order(rec, t, P, Q, tol, "pair", strict, A=base, X=X, Y=Y)
        if strict:
            rec.count("strict_checked")
            rec.keep("min_strict_margin", margin, min)
        _check_order(rec, t, *_order_iso_apply(-base, _range_compression(-base, tol), np.stack([P, Q]), tol), tol,
                     "pulled-back pair", A=base, X=X, Y=Y)


@_suite(200, "spectral criterion for whole-interval membership vs dense sampling",
        skipped_borderline=0, criterion_true=0)
def _suite_interval_criterion(rng, trials, tol, rec):
    samples_per_instance = 50
    ramp = 8
    for t, n in _trials(rng, trials, 2, 5):
        A = _mixed_rank_hermitian(rng, n, zero_prob=0.2, lo=0.4, hi=2.0)
        compression = _range_compression(A, tol)
        X = herm_part(random_psd(rng, n) * rng.uniform(0.3, 1.4))
        Xh = _sqrt_psd(_eigh(X), tol)
        lam = float(_eigvalsh(herm_part(Xh @ A @ Xh))[0])
        if abs(lam + 1.0) < 1e-4:
            rec.count("skipped_borderline")
            continue
        crit = _interval_below_criterion(A, X, tol)
        rec.check(crit == (lam > -1.0), t, "criterion disagrees with its spectral form", A=A, X=X)
        rec.check(crit == bool(_in_zero_component(compression, X, tol)), t, "criterion and membership differ", A=A, X=X)
        if crit:
            rec.count("criterion_true")
            # samples below `ramp` are multiples of X, each later one draws a
            # random effect; all are tested as one stack
            E = _with_spectra(*_spectrum_draws(rng, n, *EFFECT_SPECTRUM, samples_per_instance - ramp))
            steps = (np.arange(ramp) + 1.0) / ramp
            S = np.concatenate([herm_part(steps[:, None, None] * X), herm_part(Xh @ E @ Xh)])
            inside = _in_zero_component(compression, S, tol)
            if not inside.all():
                j = int(np.argmin(inside))
                rec.fail(t, "interval point escaped although criterion holds", A=A, X=X, S=S[j])
        else:
            t_star = -1.0 / lam
            t_w = min(1.0, t_star + 0.5 * (1.0 - t_star))
            W = herm_part(t_w * X)
            rec.check(not _in_zero_component(compression, W, tol), t,
                      "criterion refuted but witness still inside", A=A, X=X, W=W)


@_suite(200, "shifting the argument equals the translated-base map up to congruence")
def _suite_translation_identity(rng, trials, tol, rec):
    for t, n in _trials(rng, trials):
        A = _mixed_rank_hermitian(rng, n)
        eye = np.eye(n)
        X0 = _sample_shear_member(rng, A)
        if X0 is None:
            rec.fail(t, "no shear-domain anchor found", A=A)
            continue
        A2 = translated_base(A, X0, tol)
        X = _first(200, lambda: random_hermitian(rng, n, scale=rng.uniform(0.2, 1.0)),
                   lambda X: _well_margined((X0 + X) @ A + eye) and _well_margined(X @ A2 + eye))
        if X is None:
            rec.fail(t, "no translated sample found", A=A, X0=X0)
            continue
        shifted, anchor = _shear_apply(A, np.stack([herm_part(X0 + X), X0]), tol)
        lhs = shifted - anchor
        Mi = np.linalg.inv(X0 @ A + eye)
        rhs = Mi @ _shear_apply(A2, X, tol) @ Mi.conj().T
        rec.check_residual(_opnorms(lhs - rhs) / (1.0 + _opnorms(lhs)), 1e-9,
                           t, "translation identity", A=A, X0=X0, X=X)


@_suite(200, "frame congruence commutes with the shear map via the conjugated base")
def _suite_conjugation_identity(rng, trials, tol, rec):
    for t, n in _trials(rng, trials):
        A = _mixed_rank_hermitian(rng, n)
        T = random_invertible(rng, n, max_cond=15.0)
        A2 = conjugated_base(A, T, tol)
        X = _sample_shear_member(rng, A)
        if X is None:
            rec.fail(t, "no shear-domain sample found", A=A)
            continue
        S = np.linalg.inv(T).conj().T
        lhs = _shear_apply(A2, herm_part(S @ X @ S.conj().T), tol)
        rhs = S @ _shear_apply(A, X, tol) @ S.conj().T
        rec.check_residual(_rel(lhs, rhs), 1e-9, t, "conjugation identity", A=A, T=T, X=X)


def _shrink_in_component(A: np.ndarray, compression, X: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """0.6 X, or 0.6 t* X when 0.6 X has left the zero component.

    A member X whose straight path from 0 crosses the singular set twice
    (two real eigenvalues of X A below -1) lies in the component while 0.6 X
    may lie between the crossings. t* = -1/mu for the most negative real
    eigenvalue mu of X A is the first crossing, so 0.6 t* X is on the
    crossing-free part of the path.
    """
    shrunk = herm_part(0.6 * X)
    if _in_zero_component(compression, shrunk, tol):
        return shrunk
    mu = np.linalg.eigvals(X @ A)
    real = mu.real[np.abs(mu.imag) <= REAL_EIG_MARGIN * (1.0 + np.abs(mu.real))]
    t_star = -1.0 / float(real.min())
    return herm_part(0.6 * t_star * X)


@_suite(200, "the shear image of the base is congruent to it; inertia is preserved", rescaled=0)
def _suite_congruence_orbit(rng, trials, tol, rec):
    for t, n in _trials(rng, trials, 2, 4):
        A = _mixed_rank_hermitian(rng, n)
        compression = _range_compression(A, tol)
        X = _first(200, lambda: random_hermitian(rng, n, scale=rng.uniform(0.2, 0.8)),
                   lambda X: _in_zero_component(compression, X, tol))
        if X is None:
            rec.fail(t, "no component sample found", A=A)
            continue
        for _ in range(6):
            try:
                G = _congruence_orbit(A, X, tol)
                break
            except PathSearchError:
                X = _shrink_in_component(A, compression, X, tol)
                rec.count("rescaled")
        else:
            rec.fail(t, "orbit factor failed even after shrinking", A=A, X=X)
            continue
        target = _shear_apply(X, A, tol)
        got = herm_part(G @ A @ G.conj().T)
        rec.check_residual(_opnorms(got - target) / (1.0 + _hnorm(A)), 1e-8,
                           t, "orbit congruence residual", A=A, X=X)
        rec.check(tuple(inertia(target, tol)) == _spectrum_inertia(_eigvalsh(A), tol), t,
                  "orbit image changed inertia", A=A, X=X)
        rec.check(_is_invertible(G, tol), t, "orbit factor is singular", A=A, X=X)


@_suite(300, "inertia-based component membership against randomized path search", members=0, max_nodes_used=0)
def _suite_component_criterion(rng, trials, tol, rec):
    for t, n in _trials(rng, trials, 2, 4):
        A = _mixed_rank_hermitian(rng, n, zero_prob=0.25)
        if _hnorm(A) <= tol.psd_tol:
            A = herm_part(A + np.eye(n))
        scale = (0.3, 1.0, 2.5)[t % 3]
        X = random_hermitian(rng, n, scale=scale)
        crit = in_zero_component(A, X, tol)
        res = path_to_zero(A, X, tol, seed=1000 + t, max_nodes=3000 if crit else 96)
        rec.keep("max_nodes_used", res.nodes_used, max)
        if crit:
            rec.count("members")
            rec.check(res.found, t, "criterion says member but no path was found", A=A, X=X)
        else:
            rec.check(not res.found, t, "path found into a point the criterion rejects", A=A, X=X)


@_suite(100, "black-box recovery of base, frame and transpose flag by both routes",
        mismatch_checked=0, anchors_refused=0)
def _suite_parameter_recovery(rng, trials, tol, rec):
    for t, n in _trials(rng, trials, 2, 4):
        A = _mixed_rank_hermitian(rng, n) if t % 10 else np.zeros((n, n), dtype=complex)
        T = normalize_phase(random_invertible(rng, n, max_cond=8.0))
        transpose = bool(rng.integers(2))
        scaleA = 1.0 + _hnorm(A)
        mob = MobiusAutomorphism(frame=T, A=A, transpose=transpose)

        got = _identify_parameters(lambda H: _apply_local_iso(mob, H, tol), n, tol)
        rec.check_residual(_hnorm(got.A - A) / scaleA, 1e-5, t, "derivative-probe base recovery", A=A, T=T)
        rec.check_residual(_rel(got.frame, T), 1e-5, t, "derivative-probe frame recovery", A=A, T=T)
        rec.check(got.transpose == transpose, t, "derivative-probe transpose flag wrong", A=A, T=T)

        fitted = _fit_canonical(lambda Z: _apply_mobius(mob, Z, tol), n, None, tol)
        rec.check_residual(_hnorm(fitted.A - A) / scaleA, 1e-7, t, "half-plane base recovery", A=A, T=T)
        rec.check_residual(_rel(fitted.frame, T), 1e-7, t, "half-plane frame recovery", A=A, T=T)
        rec.check(fitted.transpose == transpose, t, "half-plane transpose flag wrong", A=A, T=T)

        if t % 3 == 0:
            full = _random_mobius(rng, n)
            g = lambda Z: _apply_mobius(full, Z, tol)
            refit, refused = _anchored_fit(rng, g, n, tol)
            rec.count("anchors_refused", refused)
            rec.check(refit is not None or not refused, t, "every anchored refit was refused", frame=full.frame)
            if refit is not None:
                points = _half_plane_stack(rng, n, 5)
                rec.check_residual(_rel(_apply_mobius(refit, points, tol), g(points)), 1e-7, t,
                                   "anchored refit mismatch", frame=full.frame)

        if t % 10 == 5:
            rec.count("mismatch_checked")

            def crooked(H, _s=1.0 + 0.2 * float(rng.random())):
                M = np.asarray(H, dtype=complex)
                return herm_part(M + 0.05 * _s * M @ M)

            try:
                _identify_parameters(crooked, n, tol)
                rec.fail(t, "non-model evaluator was not rejected")
            except ModelMismatchError:
                pass


# ---------------------------------------------------------------------------
# block / classification suites


@_suite(240, "corner-inverting block map is an involution between dual classes")
def _suite_block_involution(rng, trials, tol, rec):
    draws = {}
    for t, n in _trials(rng, trials, 2, 5):
        m = int(rng.integers(0, n + 1))
        spec = BlockMapSpec(n, m, int(rng.integers(0, m + 1)))
        draws[t] = spec, *(field[0] for field in _block_draws(rng, spec, 1))
    rows = {}
    for spec, ts, stacks in _groups(draws):
        X = _block_points(spec, *stacks)
        Y = _block_map(spec, X, tol)
        checks = _in_block_domain(spec, X, tol), _in_block_domain(spec.dual, Y, tol)
        res = _rel_hermitian(_block_map(spec.dual, Y, tol), X)
        rows.update(zip(ts, zip([spec] * len(ts), X, Y, *checks, res)))
    for t, (spec, X, Y, inside, image_inside, res) in sorted(rows.items()):
        m, p = spec.m, spec.p
        rec.check(inside, t, "constructed sample missed the domain", X=X)
        rec.check(image_inside, t, f"image corner inertia is not ({m - p}, 0, {p})", X=X, Y=Y)
        rec.check_residual(res, 1e-9, t, f"involution on class (m={m}, p={p})", X=X)
        if t == 0:
            W = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
            want = np.array([[-0.5, 0.5j], [-0.5j, 2.5]], dtype=complex)
            gotW = block_map_apply(BlockMapSpec(2, 1, 1), W, tol)
            rec.check_residual(_hnorm(gotW - want), 1e-12, t, "worked 2x2 example", W=W)


@_suite(200, "bordered embedding: negated inverse reproduces the block map; fixed inertia "
             "(trials per class, 52 classes for n = 2..5: 10,400 instances by default)", instances=0)
def _suite_bordered_identity(rng, trials, tol, rec):
    for n in range(2, 6):
        for (m, p) in _all_classes(n):
            spec = BlockMapSpec(n, m, p)
            X = _block_samples(rng, spec, trials)
            E = _bordered_embedding(m, X)
            R = _bordered_arrangement(m, _block_map(spec, X, tol))
            # E and R are exactly Hermitian: one spectrum of E gives its norm and its
            # inertia; only E R + I, which is not Hermitian, needs an SVD
            spectra = _eigvalsh(E)
            scale = 1.0 + _spectra_norms(spectra) * _hermitian_opnorms(R)
            res = _opnorms(E @ R + np.eye(2 * n - m)) / scale
            fixed = _spectra_have_inertia(spectra, n + p - m, tol)
            first = rec.count("instances", trials) - trials + 1
            description = f"bordered identity (n={n}, m={m}, p={p})"
            if fixed.all():
                rec.check_residuals(res, 1e-9, first, description, X=X)
                continue
            for j in range(trials):  # each instance's two failures stay together
                rec.check_residual(res[j], 1e-9, first + j, description, X=X[j])
                if not fixed[j]:
                    got = tuple(_spectrum_inertia(spectra[j], tol))
                    rec.fail(first + j, f"bordered inertia {got} != {(n + p - m, 0, n - p)}", X=X[j])


@_suite(200, "block map preserves order both ways on inertia-stable segments", skipped=0)
def _suite_block_monotonicity(rng, trials, tol, rec):
    # the segment [X, X + D] is gated at these nine points, one stack
    taus = np.linspace(0.0, 1.0, 9)[:, None, None]
    for t, n in _trials(rng, trials, 2, 4):
        m = int(rng.integers(1, n + 1))
        p = int(rng.integers(0, m + 1))
        spec = BlockMapSpec(n, m, p)
        X = _block_samples(rng, spec, 1)[0]
        strict = t % 3 == 1
        indefinite = t % 3 == 2
        D = _first(60, lambda: _indefinite_step(rng, X) if indefinite else _psd_step(rng, X, strict=strict),
                   lambda D: all(_in_block_domain(spec, herm_part(X + taus * D), tol)))
        if D is None:
            rec.count("skipped")
            continue
        Y = herm_part(X + D)
        FX, FY = _block_map(spec, np.stack([X, Y]), tol)
        if indefinite:
            rec.check(_loewner_compare(FX, FY, tol).incomparable, t,
                      "incomparable pair became comparable", X=X, Y=Y)
            continue
        _check_order(rec, t, FX, FY, tol, "pair under the block map", strict, X=X, Y=Y)
        _check_order(rec, t, *_block_map(spec.dual, np.stack([FX, FY]), tol), tol,
                     "pulled-back pair", X=X, Y=Y)


@_suite(40, "extremal stable-direction ranks hold, higher ranks exit, ranks separate classes", classes_tested=0)
def _suite_growth_ranks(rng, trials, tol, rec):
    grid_stay = np.array([0.5, 1.0, 10.0, 100.0, 1e4])
    grid_exit = np.array([0.5, 1.0, 10.0, 100.0, 1e4, 1e6])
    rank_pairs: Dict[tuple, tuple] = {}
    for n in range(2, 5):
        for (m, p) in _all_classes(n):
            spec = BlockMapSpec(n, m, p)
            rank_pairs[(n, m, p)] = (n + p - m, n - p)
            for X in _block_samples(rng, spec, max(1, trials // 4)):
                for positive in (True, False):
                    Y = _growth_direction(spec, X, positive, tol)
                    sig = _spectrum_inertia(_eigvalsh(Y), tol)
                    want_rank = n + p - m if positive else n - p
                    got_rank = sig.n_pos if positive else sig.n_neg
                    semidef_ok = (sig.n_neg == 0) if positive else (sig.n_pos == 0)
                    rec.check(semidef_ok and got_rank == want_rank, 0,
                              f"direction rank {got_rank} != {want_rank} on (n={n}, m={m}, p={p})", X=X, Y=Y)
                    exits = grid_stay[~_in_block_domain(spec, herm_part(X + grid_stay[:, None, None] * Y), tol)]
                    if exits.size:
                        rec.fail(0, f"stable direction exited at c={exits[0]} on (n={n}, m={m}, p={p})", X=X, Y=Y)
            if n <= 3:
                X = _block_samples(rng, spec, 1)[0]
                for positive in (True, False):
                    k = (n + p - m) if positive else (n - p)
                    if k >= n:
                        continue
                    for _ in range(5):
                        V = random_unitary(rng, n)[:, : k + 1]
                        D = herm_part(V @ np.diag(rng.uniform(0.3, 1.0, size=k + 1)).astype(complex) @ V.conj().T)
                        if not positive:
                            D = -D
                        exited = not all(_in_block_domain(spec, herm_part(X + grid_exit[:, None, None] * D), tol))
                        rec.check(exited, 0,
                                  f"rank-{k + 1} {'PSD' if positive else 'NSD'} direction never exited "
                                  f"(n={n}, m={m}, p={p})", X=X, D=D)
    for n in range(2, 5):
        pairs = [rank_pairs[(n, m, p)] for (m, p) in _all_classes(n)]
        rec.check(len(set(pairs)) == class_count(n), 0,
                  f"stable-rank invariants fail to separate the {class_count(n)} classes at n={n}")
    rec.set("classes_tested", len(rank_pairs))


@_suite(1, "class census: closed form, enumeration, congruence invariance", counts=None)
def _suite_class_count(rng, trials, tol, rec):
    for n in range(2, 7):
        want = (n + 2) * (n + 1) // 2
        rec.check(class_count(n) == want, n, f"closed-form count wrong at n={n}")
        reps = enumerate_signatures(n)
        rec.check(len(reps) == want, n, f"representative enumeration wrong at n={n}")
        seen = {signature_class(R, tol)[:2] for R in reps}
        rec.check(len(seen) == want, n, f"representatives collapse into {len(seen)} classes at n={n}")
        for i, R in enumerate(reps):
            for Q in reps[i + 1:]:
                if are_equivalent(R, Q, tol):
                    rec.fail(n, "distinct representatives reported equivalent", R=R, Q=Q)
        for R in reps[:: max(1, len(reps) // 4)]:
            S = random_invertible(rng, n, max_cond=20.0)
            rec.check(_signature_class(R, tol)[:2] == _signature_class(herm_part(S @ R @ S.conj().T), tol)[:2], n,
                      "congruence changed the signature class", R=R, S=S)
    rec.set("counts", {str(n): class_count(n) for n in range(2, 7)})


# ---------------------------------------------------------------------------
# effect-algebra suites


def _random_effect_map(rng: np.random.Generator, n: int, frame_form: bool):
    """(map, fpq) of a random effect automorphism: the frame form with fpq None, or
    the fpq family's FpqSpec and its frame form."""
    if frame_form:
        return EffectAutoSpec(frame=random_invertible(rng, n, max_cond=10.0), transpose=bool(rng.integers(2))), None
    T = _first(100, lambda: random_contraction(rng, n),
               lambda T: invertibility_margin(T) > 0.05)
    if T is None:
        raise RuntimeError("failed to draw a bijective contraction")
    fpq = FpqSpec(p=float(rng.uniform(0.15, 0.85)), q=float(-rng.uniform(0.3, 3.0)),
                  frame=T, transpose=bool(rng.integers(2)))
    return fpq.automorphism, fpq


@_suite(500, "effect automorphisms fix 0 and I and stay inside the interval")
def _suite_effect_fixpoints(rng, trials, tol, rec):
    for t, n in _trials(rng, trials, 2, 5):
        eye = np.eye(n)
        m, _ = _random_effect_map(rng, n, t % 2 == 0)
        X = random_effect(rng, n)
        F0, FI, FX = _effect_automorphism(m, np.stack([np.zeros((n, n)), eye, X]), tol)
        rec.check_residual(_hnorm(F0), 1e-10, t, "zero endpoint moved", frame=m.frame)
        rec.check_residual(_hnorm(FI - eye), 1e-10, t, "identity endpoint moved", frame=m.frame)
        rec.check(_in_interval(FX, -1e-8, 1.0 + 1e-8), t,
                  "image left the effect interval", X=X, frame=m.frame)


@_suite(200, "effect automorphisms preserve order both ways; four-factor route agrees")
def _suite_effect_order(rng, trials, tol, rec):
    for t, n in _trials(rng, trials, 2, 5):
        m, fpq = _random_effect_map(rng, n, t % 2 == 0)
        strict = t % 4 == 1
        X, Y = _effect_pair(rng, n, tol, strict=strict)
        D = _first(60, lambda: herm_part(X + _indefinite_step(rng, X) * 0.3),
                   lambda D: _in_interval(D, 1e-3, 1.0 - 1e-3))
        incomparable = D is not None and _loewner_compare(X, D, tol).incomparable
        FX, FY, *FD = _effect_automorphism(m, np.stack([X, Y, D] if incomparable else [X, Y]), tol)
        _check_order(rec, t, FX, FY, tol, "effect pair", strict, X=X, Y=Y)
        inverse = EffectAutoSpec(np.linalg.inv(m.frame.conj() if m.transpose else m.frame), m.transpose)
        back = _effect_automorphism(inverse, FX, tol)
        rec.check_residual(_rel_hermitian(back, X), 1e-9, t, "inverse frame does not undo the map", X=X, frame=m.frame)
        if fpq is not None:
            f1, f2, f3, f4 = rational_effect_factors(fpq, tol)
            chained = f4(f3(f2(f1(X))))
            rec.check_residual(_rel_hermitian(chained, FX), 1e-9,
                               t, "four-factor route disagrees with direct route", X=X, frame=fpq.frame)
            sx, sy = X, Y
            for stage, f in enumerate((f1, f2, f3, f4)):
                sx, sy = f(sx), f(sy)
                _check_order(rec, t, sx, sy, tol, f"effect pair after factor {stage + 1}", X=X, Y=Y)
        if incomparable:
            rec.check(_loewner_compare(FX, FD[0], tol).incomparable, t,
                      "incomparable effects became comparable", X=X, D=D)


@_suite(200, "endpoint-overridable embeddings keep order; continuity flags are right",
        fixture_flags={"zero": True, "one": False})
def _suite_effect_embedding(rng, trials, tol, rec):
    n_fix = 2
    eye2 = np.eye(n_fix)
    fixture = EffectEmbeddingSpec(frame=eye2, base=np.zeros((n_fix, n_fix)),
                                  offset=np.zeros((n_fix, n_fix)), value_at_one=2.0 * eye2)
    flags = endpoint_continuity(fixture, tol)
    rec.check(flags == {"zero": True, "one": False}, 0,
              f"fixture continuity flags {flags} != {{zero: True, one: False}}")
    rec.check_residual(_hnorm(effect_embedding_map(fixture, np.zeros((n_fix, n_fix)), tol)), 1e-12,
                       0, "fixture does not fix the zero endpoint")
    rec.check_residual(_hnorm(effect_embedding_map(fixture, 0.5 * eye2, tol) - 0.5 * eye2), 1e-12,
                       0, "fixture interior is not the identity")
    rec.check_residual(_hnorm(effect_embedding_map(fixture, eye2, tol) - 2.0 * eye2), 1e-12,
                       0, "fixture override at the identity not honored")

    for t, n in _trials(rng, trials, 2, 4):
        eye = np.eye(n)
        frame = random_invertible(rng, n, max_cond=10.0)
        base = random_hermitian_with_spectrum(rng, n, -0.8, 2.0)
        offset = random_hermitian(rng, n, scale=0.5)
        v0 = herm_part(offset - random_psd(rng, n)) if rng.random() < 0.5 else None
        spec_plain = EffectEmbeddingSpec(frame=frame, base=base, offset=offset)
        interior_top = _effect_automorphism(spec_plain.interior, eye, tol)
        v1 = herm_part(interior_top + random_psd(rng, n)) if rng.random() < 0.5 else None
        spec = EffectEmbeddingSpec(frame=frame, base=base, offset=offset,
                                   value_at_zero=v0, value_at_one=v1)
        pick = rng.random()
        X, Y = _effect_pair(rng, n, tol)
        if pick < 0.25:
            X = np.zeros((n, n))
        elif pick < 0.5:
            Y = eye
        A, B = _effect_pair(rng, n, tol)
        C = _first(60, lambda: herm_part(A + 0.3 * _indefinite_step(rng, A)),
                   lambda C: _in_interval(C, 1e-3, 1.0 - 1e-3) and _loewner_compare(A, C, tol).incomparable)
        FX, FY, *FAC = _effect_embedding(spec, np.stack([X, Y] if C is None else [X, Y, A, C]), tol)
        _check_order(rec, t, FX, FY, tol, "effect pair under the embedding", X=X, Y=Y)
        flags = endpoint_continuity(spec, tol)
        want_zero = v0 is None or _hnorm(v0 - offset) <= 1e-8 * (1.0 + _hnorm(offset))
        want_one = v1 is None or _hnorm(v1 - interior_top) <= 1e-8 * (1.0 + _hnorm(interior_top))
        rec.check(flags["zero"] == want_zero and flags["one"] == want_one, t,
                  f"continuity flags {flags} disagree with construction", frame=frame)
        if C is not None:
            rec.check(_loewner_compare(*FAC, tol).incomparable, t,
                      "incomparable effects embedded comparably", A=A, C=C)


# ---------------------------------------------------------------------------
# scalar monotonicity suites


@_suite(1000, "divided-difference matrices and direct pairs agree on monotonicity",
        min_sqrt_loewner_eigenvalue=math.inf)
def _suite_loewner_consistency(rng, trials, tol, rec):
    per_order = max(trials // 5, 20)

    def monotone(f, order, k):
        return is_matrix_monotone(f, order, trials=k, seed=int(rng.integers(0, 2**31)), tol=tol)

    for order in range(2, 7):
        report = monotone(builtin_function("sqrt"), order, per_order)
        rec.keep("min_sqrt_loewner_eigenvalue", report.min_loewner_eigenvalue, min)
        rec.check(report.passed and report.conclusive, order,
                  f"sqrt failed the monotonicity test at order {order}")

    for name in ("log", "fp:0.25", "fp:0.5", "fp:0.75", "rational:0.5"):
        rep = monotone(builtin_function(name), 3, max(trials // 10, 20))
        rec.check(rep.passed, 0, f"{name} failed the monotonicity test")

    square = builtin_function("square")
    sq_report = monotone(square, 2, max(trials // 5, 50))
    rec.check(not sq_report.passed and sq_report.conclusive, 0, "square slipped through at order 2")
    if sq_report.witness_nodes is not None:
        lm = loewner_matrix(square, sq_report.witness_nodes)
        rec.check(lm.min_eigenvalue < 0.0, 0, "square witness nodes are not a refutation")
    rec.check(sq_report.witness_nodes is not None, 0, "square refutation carries no witness")

    sub = np.random.default_rng(int(rng.integers(0, 2**31)))
    nodes = _first(400, lambda: np.sort(sub.uniform(0.05, 4.0, size=2)),
                   lambda x: x[1] - x[0] > 1e-6 and loewner_matrix(square, x).min_eigenvalue < -1e-10)

    def ordered_pair():
        X = random_hermitian_with_spectrum(sub, 2, 0.05, 4.0)
        return X, herm_part(X + random_psd(sub, 2))

    pair = _first(400, ordered_pair, lambda XY: _gap(XY[0] @ XY[0], XY[1] @ XY[1]) < -1e-10)
    rec.check(nodes is not None and pair is not None, 0,
              "the two refutation routes disagree about the square function")

    fuzzy = ScalarFunction(math.sqrt, (0.0, math.inf), name="sqrt-table", approximate=True)
    rep = monotone(fuzzy, 2, 40)
    rec.check(not rep.conclusive, 0, "approximate function produced a conclusive verdict")


def _random_pick(rng: np.random.Generator) -> PickRepresentation:
    a = float(rng.uniform(-3.0, 1.0))
    b = a + float(rng.uniform(0.5, 3.0))
    atoms = []
    for _ in range(int(rng.integers(0, 4))):
        side = rng.random() < 0.5
        y = a - float(rng.uniform(0.05, 2.0)) if side else b + float(rng.uniform(0.05, 2.0))
        atoms.append((y, float(rng.uniform(0.1, 2.0))))
    return PickRepresentation(
        c=float(rng.normal()),
        d=float(rng.uniform(0.0, 1.5)),
        atoms=tuple(atoms),
        interval=(a, b),
    )


@_suite(200, "integral-representation evaluation: half-plane margin, spectral agreement",
        min_half_plane_margin=math.inf)
def _suite_pick_evaluation(rng, trials, tol, rec):
    for t in range(trials):
        rep = _random_pick(rng)
        if rep.d == 0.0 and not rep.atoms:
            continue
        n = _rand_dim(rng, 2, 4)
        Z = random_half_plane(rng, n)
        out = pick_eval(rep, Z, tol)
        margin = rec.keep("min_half_plane_margin", _in_half_plane(out, tol).margin, min)
        rec.check(margin > 0.0, t, f"half-plane image margin {margin:.3e} <= 0", Z=Z)
        a, b = rep.interval
        pad = 0.05 * (b - a)
        X = random_hermitian_with_spectrum(rng, n, a + pad, b - pad)
        direct = pick_eval(rep, X, tol)
        f = rep.scalar_function()
        via_spectrum = _spectral_apply(_eigh(X), f, f.domain, (), tol)
        rec.check_residual(_opnorms(direct - via_spectrum) / (1.0 + _opnorms(direct)), 1e-9,
                           t, "matrix value disagrees with the spectral route", X=X)
        x = float(rng.uniform(a + pad, b - pad))
        scalar = pick_eval(rep, x, tol)
        rec.check_residual(abs(scalar - _pick_matrix(rep, np.array([[x]]), tol)[0, 0]) / (1.0 + abs(scalar)), 1e-12,
                           t, "scalar evaluation mismatch")
        if t % 20 == 0:
            mono = is_matrix_monotone(f, 2, trials=30, seed=int(rng.integers(0, 2**31)), tol=tol)
            rec.check(mono.passed, t, "a positive representation failed the monotonicity test")
    atom = PickRepresentation(c=0.0, d=0.0, atoms=((0.0, 1.0),), interval=(0.4, 2.5))
    for t in range(20):
        X = random_hermitian_with_spectrum(rng, 3, 0.5, 2.4)
        rec.check_residual(_opnorms(pick_eval(atom, X, tol) + np.linalg.inv(X)) / (1.0 + _opnorms(X)),
                           1e-10, t, "atom at the origin is not the negated inverse", X=X)


# ---------------------------------------------------------------------------
# serialization / reporting suites


@_suite(300, "matrix files round-trip bit-exactly; malformed inputs are rejected")
def _suite_serialization_roundtrip(rng, trials, tol, rec):
    for t in range(trials):
        rows = int(rng.integers(1, 9))
        cols = rows if t % 2 else int(rng.integers(1, 9))
        M = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
        M = M * 10.0 ** rng.uniform(-9.0, 6.0)
        if t % 7 == 0:
            M[0, 0] = 0.0
        back = parse_matrix_text(matrix_to_text(M))
        rec.check(back.shape == M.shape and bool(np.array_equal(back, M)), t,
                  "serialization is not bit-exact", M=M)
        if rows == cols:
            H = random_hermitian(rng, rows)
            back_h = as_hermitian(parse_matrix_text(matrix_to_text(H)), tol)
            rec.check(bool(np.array_equal(back_h, H)), t, "Hermitian round trip not exact", H=H)
    for bad, label in [
        ('{"rows": 1, "cols": 1', "truncated JSON"),
        ('{"rows": 2, "cols": 2, "data": [[[1, 0]], [[1, 0], [2, 0]]]}', "ragged rows"),
        ('{"rows": 1, "cols": 1, "data": [[[Infinity, 0]]]}', "non-finite entry"),
        ('{"rows": 1, "cols": 1, "data": [[[1, 0, 0]]]}', "triple entry"),
        ('{"rows": 1, "cols": 1}', "missing data"),
    ]:
        try:
            parse_matrix_text(bad)
            rec.fail(0, f"malformed input accepted: {label}")
        except MalformedInputError:
            pass


@_suite(4, "replayed suite runs serialize identically apart from timing")
def _suite_report_determinism(rng, trials, tol, rec):
    names = ["halfplane-roundtrip", "rank-one-trace", "inertia-congruence", "class-count"]
    for t in range(trials):
        name = names[t % len(names)]
        seed = int(rng.integers(0, 2**31))
        small = 1 if name == "class-count" else 20
        replay = lambda: run_suite(name, seed=seed, trials=small, tol=tol).to_json(include_timing=False)
        rec.check(replay() == replay(), t, f"replayed report for '{name}' differs")


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
