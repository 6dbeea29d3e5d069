"""Desk-scale matrix monotonicity: divided differences, Loewner matrices,
fixed-order verdicts with witnesses, and discrete Pick-form evaluation.

A real function is matrix monotone of order n on its interval exactly when
every n-point Loewner matrix of first divided differences is PSD. The
tester here runs that criterion over random node tuples and cross-checks it
against direct functional-calculus pair comparisons; failures come with a
concrete witness. Discrete Pick representations c + dx + sum of atom terms
are evaluated on scalars, Hermitian matrices, and half-plane points.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
from functools import partial
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig, _checked_int
from .errors import DomainViolationError, MalformedInputError
from .fileio import decoding, read_text_file
from .halfplane import _fix01_pole, _in_half_plane, mobius_fix01
from .linalg import (
    _check_guard,
    _eigh,
    _eigvalsh,
    _finite_values,
    _is_hermitian,
    _is_invertible,
    _order_verdict,
    _spectra_norms,
    _spectral_apply,
    as_square,
    herm_part,
)
from .sampling import _complex_from_normals, _with_spectra

__all__ = [
    "ScalarFunction",
    "PickRepresentation",
    "LoewnerMatrixReport",
    "MonotoneReport",
    "builtin_function",
    "loewner_matrix",
    "is_matrix_monotone",
    "pick_eval",
]

# Unbounded interval ends are truncated to a window of this width for sampling.
UNBOUNDED_WINDOW = 10.0

# Step of the central difference (f(x + h) - f(x - h)) / 2h that stands in for
# a missing derivative; about the cube root of eps, where the truncation and
# rounding errors of the difference balance.
SLOPE_STEP = 1e-5

# is_matrix_monotone refutes monotonicity when a Loewner matrix has an
# eigenvalue below -LOEWNER_MATRIX_CUT * (1 + ||L||_2); the cushion absorbs
# rounding in the divided differences of a monotone function.
LOEWNER_MATRIX_CUT = 1e-10

# is_matrix_monotone decides its trials in stacked blocks of at most this many matrix entries (a pair
# holds two matrices); at an order whose trial holds more, a block is one trial. Larger blocks save no
# time at the suites' orders (<= 6) and raise the peak memory of a verify pass.
BLOCK_ENTRIES = 2 ** 12


@dataclasses.dataclass(frozen=True)
class ScalarFunction:
    """A real function on an open interval, with an optional derivative.

    When no derivative is supplied, a central finite difference with step
    SLOPE_STEP stands in. `approximate` marks interpolated (tabulated) functions
    whose monotonicity verdicts are not conclusive.
    """

    value: Callable[[float], float]
    domain: Tuple[float, float]
    derivative: Optional[Callable[[float], float]] = None
    name: str = "anonymous"
    approximate: bool = False

    def __post_init__(self) -> None:
        a, b = self.domain
        if not a < b:
            raise MalformedInputError("domain must be a nonempty open interval (a, b)")

    def __call__(self, x: float) -> float:
        a, b = self.domain
        if not a < x < b:
            raise DomainViolationError(f"{x} is outside the domain ({a}, {b}) of {self.name}")
        return float(self.value(x))

    def slope(self, x: float) -> float:
        if self.derivative is not None:
            return float(self.derivative(x))
        h = SLOPE_STEP
        return (self(x + h) - self(x - h)) / (2.0 * h)


def _sample_window(domain: Tuple[float, float]) -> Tuple[float, float]:
    """Compact sampling window inside an open interval.

    Finite ends are pulled in by 1e-3 of the length; unbounded ends are
    truncated to a window of width UNBOUNDED_WINDOW.
    """
    a, b = domain
    if math.isinf(a) and math.isinf(b):
        return -UNBOUNDED_WINDOW / 2.0, UNBOUNDED_WINDOW / 2.0
    if math.isinf(b):
        return a + 1e-3 * UNBOUNDED_WINDOW, a + UNBOUNDED_WINDOW
    if math.isinf(a):
        return b - UNBOUNDED_WINDOW, b - 1e-3 * UNBOUNDED_WINDOW
    delta = 1e-3 * (b - a)
    return a + delta, b - delta


def _loewner_matrices(f: ScalarFunction, pts: np.ndarray) -> np.ndarray:
    """Loewner matrices (m, k, k) over node rows pts (m, k).

    The entry of x = pts[i] and y = pts[j], i <= j, is (f(y) - f(x))/(y - x) where
    |y - x| > 1e-6 (1 + |x|), and f.slope((x + y)/2) within that switch. f is evaluated
    once at each node of such a far pair, and nowhere else. A value or slope that is not
    finite raises DomainViolationError naming its point: the node values first, in row order.
    """
    rows, cols = np.triu_indices(pts.shape[-1])
    x, y = pts[:, rows], pts[:, cols]
    far = np.abs(y - x) > 1e-6 * (1.0 + np.abs(x))
    L = np.zeros(pts.shape + pts.shape[-1:])
    L[:, rows, cols] = far  # marks the far pairs first: a node is needed where its row or column holds one
    needed = L.any(axis=-1) | L.any(axis=-2)
    fx = np.zeros(pts.shape)
    fx[needed] = _finite_values(f, pts[needed], "f")
    entries = np.empty(x.shape)
    entries[~far] = _finite_values(f.slope, ((x + y) / 2.0)[~far], "f.slope")
    with np.errstate(all="ignore"):  # as the Python float arithmetic it repeats: an overflow is inf, not a warning
        np.divide(fx[:, cols] - fx[:, rows], y - x, out=entries, where=far)
    L[:, rows, cols] = L[:, cols, rows] = entries
    return L


@dataclasses.dataclass(frozen=True)
class LoewnerMatrixReport:
    nodes: Tuple[float, ...]
    matrix: np.ndarray
    min_eigenvalue: float


def loewner_matrix(f: ScalarFunction, nodes: Sequence[float]) -> LoewnerMatrixReport:
    """Symmetric matrix of first divided differences over ascending nodes."""
    pts = [float(t) for t in nodes]
    if any(y <= x for x, y in zip(pts, pts[1:])):
        raise MalformedInputError("nodes must be strictly increasing")
    L = _loewner_matrices(f, np.array([pts]))[0]
    lowest = float(_eigvalsh(L)[0]) if pts else 0.0
    return LoewnerMatrixReport(tuple(pts), L, lowest)


@dataclasses.dataclass(frozen=True)
class MonotoneReport:
    """Verdict of the fixed-order monotonicity test, with witness on failure."""

    function: str
    order: int
    passed: bool
    conclusive: bool
    node_trials: int
    pair_trials: int
    min_loewner_eigenvalue: float
    witness_nodes: Optional[Tuple[float, ...]]
    witness_pair: Optional[Tuple[np.ndarray, np.ndarray]]
    seed: int


def _draw_nodes(rng: np.random.Generator, order: int, lo: float, hi: float) -> np.ndarray:
    for _ in range(100):
        pts = np.sort(rng.uniform(lo, hi, size=order))
        if (pts[1:] > pts[:-1]).all():  # distinct; a single node always is
            return pts
    # an interval end so large that the sampling window holds only a few doubles
    raise MalformedInputError(f"cannot draw {order} distinct nodes in the sampling window [{lo}, {hi}]")


def _draw_pairs(rng: np.random.Generator, order: int, lo: float, hi: float, count: int) -> np.ndarray:
    """count pairs (X, Y = X + D), D PSD, as a stack (count, 2, order, order), drawn in rng order.

    Each pair draws X's uniform spectrum in [lo, hi) and its normals, D's spectrum in [0, 1) and its normals,
    and then a scale s in [0.1, 1): D is rescaled to ||D||_2 = 0.9 s (hi - top), top the largest eigenvalue
    of X, so that Y's spectrum stays below hi.
    """
    spectra = np.empty((count, 2, order))
    normals = np.empty((count, 2, 2, order, order))
    scales = np.empty(count)
    for j in range(count):
        spectra[j, 0] = rng.uniform(lo, hi, size=order)
        rng.standard_normal(out=normals[j, 0])
        spectra[j, 1] = rng.uniform(0.0, 1.0, size=order)
        rng.standard_normal(out=normals[j, 1])
        scales[j] = rng.uniform(0.1, 1.0)
    XD = _with_spectra(spectra, _complex_from_normals(normals))
    values = _eigvalsh(XD)
    room = np.maximum(hi - values[:, 0, -1], 0.0)
    D = XD[:, 1] * (0.9 * room * scales / np.maximum(_spectra_norms(values[:, 1]), 1e-12))[:, None, None]
    return np.stack([XD[:, 0], herm_part(XD[:, 0] + D)], axis=1)


def _first_witness(rng: np.random.Generator, trials: int, entries: int, decide: Callable[[int], object]):
    """The first witness decide(count) returns over trials in blocks of at most BLOCK_ENTRIES matrix entries,
    `entries` a trial, or None. A block that raises is replayed one trial at a time from the rng state it began
    at, so an error at trial j surfaces only if no trial before j refutes."""
    size = max(BLOCK_ENTRIES // entries, 1)
    for start in range(0, trials, size):
        count = min(size, trials - start)
        state = rng.bit_generator.state
        try:
            witness = decide(count)
        except Exception:  # the trial that raised raises again, once every trial before it is decided
            rng.bit_generator.state = state
            for _ in range(count):
                witness = decide(1)
                if witness is not None:
                    break
            else:
                raise
        if witness is not None:
            return witness
    return None


def is_matrix_monotone(
    f: ScalarFunction,
    order: int,
    trials: int = 500,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> MonotoneReport:
    """Two-phase test: Loewner matrices over random node tuples, then direct
    functional-calculus pair checks. PASS requires both phases clean.

    Each phase draws its trials in rng order and decides them in stacked blocks; the witness is the first
    refuting trial, and the minimum Loewner eigenvalue is taken over the trials up to it."""
    order, trials = _checked_int(order, "order", 1), _checked_int(trials, "trials", 1)
    seed = _checked_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    lo, hi = _sample_window(f.domain)
    worst = math.inf
    pair_trials = max(trials // 2, 1)

    def refute_nodes(count: int) -> Optional[Tuple[float, ...]]:
        nonlocal worst
        pts = np.array([_draw_nodes(rng, order, lo, hi) for _ in range(count)])
        spectra = _eigvalsh(_loewner_matrices(f, pts))
        lowest = spectra[:, 0]
        refuted = np.flatnonzero(lowest < -LOEWNER_MATRIX_CUT * (1.0 + _spectra_norms(spectra)))
        stop = int(refuted[0]) + 1 if refuted.size else count
        worst = min(worst, *lowest[:stop].tolist())
        return tuple(pts[stop - 1].tolist()) if refuted.size else None

    def refute_pairs(count: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        XY = _draw_pairs(rng, order, lo, hi, count)
        fXY = _spectral_apply(_eigh(XY), f, f.domain, (), tol)
        gaps = _eigvalsh(fXY[:, 1] - fXY[:, 0])
        j = next((j for j, values in enumerate(gaps) if not _order_verdict(values, tol).leq), None)
        return None if j is None else (XY[j, 0], XY[j, 1])

    nodes = _first_witness(rng, trials, order * order, refute_nodes)
    if nodes is not None:
        return MonotoneReport(f.name, order, False, not f.approximate, trials, 0, worst, nodes, None, seed)
    pair = _first_witness(rng, pair_trials, 2 * order * order, refute_pairs)
    return MonotoneReport(f.name, order, pair is None, not f.approximate, trials, pair_trials, worst, None, pair, seed)


@dataclasses.dataclass(frozen=True)
class PickRepresentation:
    """Discrete representation c + dx + sum_j w_j (1 + x y_j)/(y_j - x).

    Every function of this shape with d >= 0, weights w_j > 0, and poles
    y_j outside the interval is matrix monotone of every order there.
    """

    c: float
    d: float
    atoms: Tuple[Tuple[float, float], ...]
    interval: Tuple[float, float]

    def __post_init__(self) -> None:
        a, b = self.interval
        if not a < b:
            raise MalformedInputError("interval must be nonempty")
        if not (math.isfinite(self.c) and 0.0 <= self.d < math.inf):
            raise MalformedInputError("need a finite c and a finite linear coefficient d >= 0")
        atoms = tuple((float(y), float(w)) for y, w in self.atoms)
        for y, w in atoms:
            if not 0.0 < w < math.inf:
                raise MalformedInputError("atom weights must be positive and finite")
            if not math.isfinite(y) or a < y < b:
                raise MalformedInputError(f"atom location {y} must be finite and outside the interval")
        object.__setattr__(self, "atoms", atoms)

    def scalar_function(self) -> ScalarFunction:
        def value(x: float) -> float:
            out = self.c + self.d * x
            for y, w in self.atoms:
                out += w * (1.0 + x * y) / (y - x)
            return out

        def derivative(x: float) -> float:
            out = self.d
            for y, w in self.atoms:
                out += w * (1.0 + y * y) / (y - x) ** 2
            return out

        return ScalarFunction(value, self.interval, derivative, name="pick")


def _pick_matrix(rep: PickRepresentation, X: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    n = X.shape[0]
    eye = np.eye(n)
    out = rep.c * eye + rep.d * X.astype(complex)
    for y, w in rep.atoms:
        M = y * eye - X
        if not _is_invertible(M, tol):
            raise DomainViolationError(f"argument spectrum touches the atom at {y}")
        out = out + w * ((y * y + 1.0) * np.linalg.inv(M) - y * eye)
    return out


def pick_eval(
    rep: PickRepresentation,
    argument: Union[float, Iterable],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Union[float, np.ndarray]:
    """Evaluate on a scalar, a Hermitian matrix, or a half-plane point.

    A real scalar must lie inside the interval, as for rep.scalar_function();
    any other scalar is the 1x1 point it is, and its value comes back as a
    scalar. A Hermitian argument's spectrum must stay inv_margin inside the
    interval, as in spectral_apply; half-plane arguments need no interval
    guard (real atoms cannot collide with a matrix whose imaginary part is
    definite) and, when d > 0 or atoms are present, the value lands back in
    the half-plane.
    """
    if np.isscalar(argument):
        if np.imag(argument) == 0:
            return rep.scalar_function()(float(np.real(argument)))
        return complex(pick_eval(rep, [[argument]], tol)[0, 0])
    Z = as_square(argument, "argument")
    if _is_hermitian(Z, tol):
        H = herm_part(Z)
        _check_guard(_eigvalsh(H), rep.interval, (), tol.inv_margin)
        return herm_part(_pick_matrix(rep, H, tol))
    if _in_half_plane(Z, tol):
        return _pick_matrix(rep, Z, tol)
    raise DomainViolationError("argument must be scalar, Hermitian, or a half-plane point")


def _tabulated(path: str) -> ScalarFunction:
    """PCHIP through tabulated samples, flagged approximate. The table rule: x and y are one-dimensional, of one
    length >= 2 and finite; x increases strictly over a finite span; every secant slope (so every coefficient)
    is finite."""
    text = read_text_file(path)
    with decoding(f"table file {path}"):
        try:
            payload = json.loads(text)
            xs = np.asarray(payload["x"], dtype=float)
            ys = np.asarray(payload["y"], dtype=float)
        except json.JSONDecodeError:
            data = np.asarray([line.split(",") for line in text.strip().splitlines() if line.strip()], dtype=float)
            xs, ys = data[:, 0], data[:, 1]
        if xs.ndim != 1 or ys.shape != xs.shape or xs.size < 2:
            raise MalformedInputError(f"table needs x and y of one length >= 2, got shapes {xs.shape} and {ys.shape}")
        with np.errstate(over="ignore"):  # an overflowing span is refused here, not warned about
            if not (np.isfinite(ys).all() and np.all(np.diff(xs) > 0) and np.isfinite(xs[-1] - xs[0])):
                raise MalformedInputError("table needs finite values, x strictly increasing over a finite span")
        value, derivative = _pchip(xs, ys)
    return ScalarFunction(value, (float(xs[0]), float(xs[-1])), derivative, name=f"table:{path}", approximate=True)


def _pchip(xs: np.ndarray, ys: np.ndarray) -> Tuple[Callable[[float], float], Callable[[float], float]]:
    """Value and derivative of scipy's PchipInterpolator through (xs, ys), bit for bit.

    Interior slopes are Fritsch and Carlson's (SIAM J. Numer. Anal. 17, 1980): the weighted harmonic mean of
    the neighbouring secants, or 0 where they change sign or one is flat. The ends take scipy's one-sided
    three-point slope with its two shape clamps; two samples give a line. The end pieces extrapolate.
    MalformedInputError if a coefficient is not finite.
    """
    with np.errstate(all="ignore"):  # np.where discards a flat secant's 1/0; an overflow is refused below
        h = np.diff(xs)
        m = np.diff(ys) / h
        if xs.size == 2:
            d = np.array([m[0], m[0]])
        else:
            w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
            agree = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
            inner = np.where(agree, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            ends = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(ends) > 3.0 * np.abs(m0))
            ends = np.where(np.sign(ends) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, ends))
            d = np.concatenate([ends[:1], inner, ends[1:]])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        coefficients = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], ys[:-1]])
    if not np.isfinite(coefficients).all():  # an infinite secant slope m makes c0 and c1 non-finite
        raise MalformedInputError("table's secant slopes or interpolant are not finite")
    knots = xs.tolist()

    def piecewise(*powers: list) -> Callable[[float], float]:
        """The polynomial pieces with these coefficients, highest power first, summed as scipy's PPoly sums."""
        def at(x: float) -> float:
            k = min(max(bisect.bisect_right(knots, x) - 1, 0), len(knots) - 2)
            s, total, z = x - knots[k], 0.0, 1.0
            for c in reversed(powers):
                total, z = total + c[k] * z, z * s
            return total
        return at

    c0, c1, c2, _ = coefficients
    return piecewise(*coefficients.tolist()), piecewise(*np.stack([3.0 * c0, 2.0 * c1, c2]).tolist())


def _fix01_function(r: float, domain: Tuple[float, float], name: str) -> ScalarFunction:
    """halfplane.mobius_fix01 at parameter r, x/(rx + 1 - r), with its derivative, on domain."""
    def derivative(x: float) -> float:
        denom = r * x + 1.0 - r  # past 1e154 its square would overflow where the quotient need not
        return (1.0 - r) / denom ** 2 if abs(denom) < 1e154 else (1.0 - r) / denom / denom

    return ScalarFunction(partial(mobius_fix01, r), domain, derivative, name=name)


def builtin_function(name: str) -> ScalarFunction:
    """Named scalar functions for the CLI and the suites.

    sqrt, log, square, fp:<p> (weight p in (0,1), domain (0,1)), and
    rational:<r> (x/(rx+1-r) for r < 1, on the pole-free side containing 0);
    table:<path> loads tabulated samples.
    """
    if name == "sqrt":
        return ScalarFunction(math.sqrt, (0.0, math.inf), lambda x: 0.5 / math.sqrt(x), name="sqrt")
    if name == "log":
        return ScalarFunction(math.log, (0.0, math.inf), lambda x: 1.0 / x, name="log")
    if name == "square":
        return ScalarFunction(lambda x: x * x, (0.0, math.inf), lambda x: 2.0 * x, name="square")
    if name.startswith("table:"):
        return _tabulated(name.split(":", 1)[1])
    family, colon, text = name.partition(":")
    if not colon or family not in ("fp", "rational"):
        raise MalformedInputError(f"unknown function name: {name!r}")
    with decoding(f"{family} parameter {text!r}"):  # the one rule for outside text
        r = float(text)
    if family == "fp":
        if not 0.0 < r < 1.0:
            raise MalformedInputError("fp parameter must lie in (0, 1)")
        return _fix01_function(r, (0.0, 1.0), name)
    if not (r < 1.0 and r != 0.0):
        raise MalformedInputError("rational parameter must satisfy r < 1, r != 0")
    pole = _fix01_pole(r)
    return _fix01_function(r, (pole, math.inf) if r > 0 else (-math.inf, pole), name)
