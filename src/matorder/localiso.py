"""Local order isomorphisms driven by a Hermitian base matrix.

The central object is the Mobius action of the unit lower-triangular block
shear [[I, 0], [base, I]]:

    shear_apply(base, X) = (X base + I)^{-1} X = X (base X + I)^{-1}

defined on the shear domain {X : X base + I invertible}. Restricted to the
connected component of 0 inside the Hermitian part of that domain it is an
order isomorphism onto the corresponding component for -base; composing with
congruences, transposition, and offsets yields the general local order
isomorphism, a MobiusAutomorphism evaluated by apply_local_iso. This module
provides the membership tests (including the inertia-based zero-component
criterion and a randomized path-search oracle for cross-validation), the
map itself, translation and conjugation identities, congruence orbits, and
black-box parameter identification from derivatives at 0.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig, _checked_int
from .errors import DomainViolationError, ModelMismatchError, PathSearchError
from .halfplane import (MobiusAutomorphism, _checked_evaluator, _congruence_from_probes, _mobius_eval,
                        _shifted, normalize_phase)
from .linalg import (
    _eigh,
    _eigvalsh,
    _gate,
    _has_inertia,
    _hermitian_opnorms,
    _is_invertible,
    _opnorms,
    _principal_sqrt,
    _rank_cut,
    _same_dim,
    _sqrt_psd,
    as_hermitian,
    as_square,
    herm_part,
)
from .sampling import _seeded_draws, random_hermitian

__all__ = [
    "PathSearchResult",
    "in_shear_domain",
    "shear_apply",
    "in_zero_component",
    "segment_in_shear_domain",
    "segment_in_zero_component",
    "interval_below_criterion",
    "order_iso_apply",
    "translated_base",
    "conjugated_base",
    "congruence_orbit",
    "apply_local_iso",
    "identify_parameters",
    "path_to_zero",
]

# Residual gates used by identify_parameters (derivative congruence form and
# agreement of the base recovered at two distinct samples).
DERIVATIVE_RESIDUAL_TOL = 1e-6
BASE_CONSISTENCY_TOL = 1e-6

# Seed of the Hermitian direction of identify_parameters' second sample.
DIRECTION_SEED = 3

# Waypoints drawn in path_to_zero's first pool; each later pool doubles it.
PATH_POOL_SIZE = 48

# Scales of a random-Hermitian waypoint. Indexed by rng.integers(0, 3), they give
# rng.choice's value and generator state at a quarter of its cost.
WAYPOINT_SCALES = np.array([0.5, 1.0, 2.0])

# Cushion of the exact segment test, so that rounding cannot hide a crossing:
# an eigenvalue mu with |Im mu| <= REAL_EIG_MARGIN (1 + |Re mu|) counts as
# real, and a real one with Re mu <= -1 + REAL_EIG_MARGIN as a crossing.
REAL_EIG_MARGIN = 1e-7


def _base_and_square(base: Iterable, X: Iterable, tol: ToleranceConfig):
    """Validated (Hermitian base, square X) of one dimension."""
    return _same_dim(as_hermitian(base, tol, "base"), as_square(X, "X"))


def _base_and_hermitian(base: Iterable, X: Iterable, tol: ToleranceConfig):
    """Validated (Hermitian base, Hermitian X) of one dimension."""
    return _same_dim(as_hermitian(base, tol, "base"), as_hermitian(X, tol, "X"))


def in_shear_domain(base: Iterable, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff X base + I is invertible (relative inv_margin on sigma_min)."""
    return bool(_in_shear_domain(*_base_and_square(base, X, tol), tol))


def _in_shear_domain(A: np.ndarray, M: np.ndarray, tol: ToleranceConfig):
    """Kernel of in_shear_domain; one verdict per member of a stack M (..., n, n)."""
    return _is_invertible(M @ A + np.eye(A.shape[0]), tol)


def shear_apply(base: Iterable, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """(X base + I)^{-1} X on the shear domain; Hermitian in, Hermitian out."""
    return _shear_apply(*_base_and_square(base, X, tol), tol)


def _shear_apply(A: np.ndarray, M: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Kernel of shear_apply; M may be a stack (..., n, n), mapped member by member.

    Raises, with shear_apply's message, when any member is outside the shear domain.
    """
    shifted = M @ A + np.eye(A.shape[0])
    _gate(_is_invertible(shifted, tol), "X is outside the shear domain of this base")
    return np.linalg.solve(shifted, M)


def _range_compression(base: np.ndarray, tol: ToleranceConfig):
    """Eigenvectors and eigenvalues of the base above the rank cutoff."""
    decomp = _eigh(base)
    cut = _rank_cut(decomp.values, tol)
    mask = np.abs(decomp.values) > cut
    return decomp.vectors[:, mask], decomp.values[mask]


def in_zero_component(base: Iterable, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Membership of Hermitian X in the connected component of 0.

    The component is cut out of the Hermitian slice of the shear domain by an
    inertia invariant: compress X to the range of the base against the
    invertible compression A_K, then X belongs to the component of 0 iff

        inertia(|A_K|^{1/2} X_K |A_K|^{1/2} + S) == inertia(S),

    where S is the diagonal sign matrix of A_K. The left side is an affine
    bijection of Hermitian matrices in the compressed coordinates, components
    of invertible Hermitian matrices are exactly the inertia classes, and
    X base + I is invertible iff the compressed matrix is, which makes the
    criterion exact. It is nevertheless cross-validated against the
    randomized path oracle in the verification suites.
    """
    A, H = _base_and_hermitian(base, X, tol)
    return bool(_in_zero_component(_range_compression(A, tol), H, tol))


def _in_zero_component(compression: Tuple[np.ndarray, np.ndarray], H: np.ndarray, tol: ToleranceConfig):
    """Kernel of in_zero_component on the base's _range_compression, which a caller asking about many
    points of one base computes once; H may be a stack (..., n, n), answered member by member."""
    V, lam = compression
    if lam.size == 0:
        return np.ones(H.shape[:-2], dtype=bool)
    p = int(np.count_nonzero(lam > 0))
    signs = np.sign(lam)
    w = np.sqrt(np.abs(lam))
    Xk = V.conj().T @ H @ V
    M = herm_part((w[:, None] * Xk) * w[None, :] + np.diag(signs))
    return _has_inertia(M, p, tol)


def _segment_crossings(base: np.ndarray, P: np.ndarray, Qs: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Vectorized exact test: does the segment P -> Q leave the shear domain?

    Parameterizing (P + tD) base + I = (P base + I)(I + t G) with
    G = (P base + I)^{-1} D base shows the segment hits a singular point at
    t = -1/mu for each real eigenvalue mu <= -1 of G. Returns a boolean array
    (True = crossing) over the broadcast stack shape of the starts P and the
    ends Qs; every start must be inside the domain, and M is P base + I, which
    the caller built for the shear gate. path_to_zero, _bfs_over_pool and
    _segment_from call it, on the segments between ends of one determinant sign.
    """
    G = np.linalg.solve(M, (Qs - P) @ base)
    eigs = np.linalg.eigvals(G)
    real_like = np.abs(eigs.imag) <= REAL_EIG_MARGIN * (1.0 + np.abs(eigs.real))
    bad = real_like & (eigs.real <= -1.0 + REAL_EIG_MARGIN)
    return np.any(bad, axis=-1)


def segment_in_shear_domain(base: Iterable, X: Iterable, Y: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Exact membership of the whole segment [X, Y] of Hermitian ends in the shear domain."""
    A, P, Q = _same_dim(as_hermitian(base, tol, "base"), as_hermitian(X, tol, "X"), as_hermitian(Y, tol, "Y"))
    return _segment_in_shear_domain(A, P, Q, tol)


def _segment_in_shear_domain(A: np.ndarray, P: np.ndarray, Q: np.ndarray, tol: ToleranceConfig) -> bool:
    """Kernel of segment_in_shear_domain: P's shifted end P A + I passes the shear gate, then _segment_from decides."""
    shifted = P @ A + np.eye(A.shape[0])
    return bool(_is_invertible(shifted, tol)) and _segment_from(A, P, shifted, Q, tol)


def _segment_from(A: np.ndarray, P: np.ndarray, shifted: np.ndarray, Q: np.ndarray, tol: ToleranceConfig) -> bool:
    """Whether P -> Q stays in the shear domain, given P's shifted end `shifted` that passed the shear gate.

    Q's shifted end is built once, for the gate and for _det_signs' sign: ends
    of opposite sign are a crossing (t -> det((P + tD) A + I) is real and
    changes sign on [0, 1], so it vanishes inside), and _segment_crossings
    decides the rest.
    """
    shifted_q = Q @ A + np.eye(A.shape[0])
    if not _is_invertible(shifted_q, tol):
        return False
    sign_p, sign_q = _det_signs(np.stack([shifted, shifted_q]))
    return bool(sign_p == sign_q) and not bool(_segment_crossings(A, P, Q, shifted))


def segment_in_zero_component(base: Iterable, X: Iterable, Y: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Exact test of the segment condition used to gate monotonicity checks.

    Both endpoints must lie in the zero component (DomainViolationError
    otherwise); the segment passes iff it stays inside the shear domain,
    decided exactly as in segment_in_shear_domain.
    """
    A, P, Q = _same_dim(as_hermitian(base, tol, "base"), as_hermitian(X, tol, "X"), as_hermitian(Y, tol, "Y"))
    _gate(_in_zero_component(_range_compression(A, tol), np.stack([P, Q]), tol),
          "segment endpoints must lie in the zero component")
    return _segment_in_shear_domain(A, P, Q, tol)


def interval_below_criterion(base: Iterable, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Criterion for the whole interval [0, X] (X PSD) to lie in the zero component.

    Holds iff the smallest eigenvalue of X^{1/2} base X^{1/2} stays above
    -1 + inv_margin, that is iff X itself lies in the component: along t -> tX
    in_zero_component's matrix S + t W X_K W only grows (Weyl's monotonicity), so
    a PSD X outside gives False. A non-PSD X raises _sqrt_psd's DomainViolationError.
    """
    return _interval_below_criterion(*_base_and_hermitian(base, X, tol), tol)


def _interval_below_criterion(A: np.ndarray, H: np.ndarray, tol: ToleranceConfig) -> bool:
    """Kernel of interval_below_criterion."""
    R = _sqrt_psd(_eigh(H), tol)
    lowest = float(_eigvalsh(herm_part(R @ A @ R))[0])
    return lowest > -1.0 + tol.inv_margin


def order_iso_apply(base: Iterable, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The canonical local order isomorphism on the zero component.

    Same formula as shear_apply but gated on component membership and
    symmetrized; the image lies in the zero component of -base.
    """
    A, H = _base_and_hermitian(base, X, tol)
    return _order_iso_apply(A, _range_compression(A, tol), H, tol)


def _order_iso_apply(A: np.ndarray, compression: Tuple[np.ndarray, np.ndarray], H: np.ndarray,
                     tol: ToleranceConfig) -> np.ndarray:
    """Kernel of order_iso_apply given A's _range_compression; H may be a stack, mapped member by member.

    Raises, with order_iso_apply's message, when any member is outside the zero component.
    """
    _gate(_in_zero_component(compression, H, tol), "X is outside the zero component of this base")
    return herm_part(np.linalg.solve(H @ A + np.eye(A.shape[0]), H))


def translated_base(base: Iterable, X0: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Base parameter seen from a shifted origin: base (X0 base + I)^{-1}.

    Shifting the map's argument by a Hermitian X0 inside the shear domain is
    equivalent, up to fixed congruence and offset, to the map with this
    translated base.
    """
    A, H = _same_dim(as_hermitian(base, tol, "base"), as_hermitian(X0, tol, "X0"))
    if not _in_shear_domain(A, H, tol):
        raise DomainViolationError("X0 is outside the shear domain of this base")
    M = H @ A + np.eye(A.shape[0])
    return herm_part(np.linalg.solve(M.T, A.T).T)


def conjugated_base(base: Iterable, frame: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Base parameter for the congruence-conjugated map: frame base frame*."""
    A, T = _same_dim(as_hermitian(base, tol, "base"), as_square(frame, "frame"))
    if not _is_invertible(T, tol):
        raise DomainViolationError("frame must be invertible")
    return herm_part(T @ A @ T.conj().T)


def congruence_orbit(base: Iterable, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Invertible T with shear_apply(X, base) = T base T*, for X in the zero component (DomainViolationError otherwise).

    T = ((base X + I)^{-1})^{1/2}, the principal root: A f(XA) = f(AX) A for
    every matrix function f, so T A T* = (AX + I)^{-1} A. The root exists iff
    no eigenvalue of AX is real and <= -1, that is iff the straight segment
    from 0 to X stays inside the shear domain; PathSearchError otherwise, or
    when linalg._principal_sqrt's iteration misses its residual gate.
    The root is taken of the inverse, not inverted after: near-singular
    AX + I loses an order of magnitude in the congruence residual that way.
    """
    A, H = _base_and_hermitian(base, X, tol)
    _gate(_in_zero_component(_range_compression(A, tol), H, tol), "X must lie in the zero component")
    return _congruence_orbit(A, H, tol)


def _congruence_orbit(A: np.ndarray, H: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Kernel of congruence_orbit; its caller decides membership, and a non-member raises PathSearchError."""
    if not _segment_from(A, np.zeros_like(H), np.eye(A.shape[0]), H, tol):  # 0's shifted end 0 A + I is exactly I
        raise PathSearchError("the straight path from 0 to X leaves the shear domain")
    return _principal_sqrt(np.linalg.inv(A @ H + np.eye(A.shape[0])))


def apply_local_iso(m: MobiusAutomorphism, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The map as a local order isomorphism: C + frame Phi_A(X' - B) frame*.

    Requires X' - B in the zero component of A, where Phi_A is
    order_iso_apply; Hermitian in, Hermitian out.
    """
    return _apply_local_iso(m, _same_dim(as_hermitian(X, tol, "X"), m.frame)[0], tol)


def _apply_local_iso(m: MobiusAutomorphism, X: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Kernel of apply_local_iso on an exactly Hermitian stack (..., n, n) of points of the map's dimension.

    Raises, with apply_local_iso's message, when any member is outside the zero component.
    """
    W = _shifted(m, X)
    _gate(_in_zero_component(_range_compression(m.A, tol), W, tol), "X' - B is outside the zero component of A")
    return herm_part(_mobius_eval(m, W, W @ m.A + np.eye(m.dim)))


def _five_point_derivatives(values: Callable[[np.ndarray], np.ndarray], E: np.ndarray, h: float) -> np.ndarray:
    """O(h^4) central differences of t -> values(tE) at t = 0 for a stack E (k, n, n), from one call of 4k points."""
    plus, minus, wide_plus, wide_minus = np.split(values(np.concatenate([h * E, -h * E, 2.0 * h * E, -2.0 * h * E])), 4)
    return herm_part((8.0 * (plus - minus) - (wide_plus - wide_minus)) / (12.0 * h))


def identify_parameters(
    evaluator: Callable[[np.ndarray], np.ndarray],
    dim: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> MobiusAutomorphism:
    """Recover (A, frame, transpose flag) from a black-box map fixing 0.

    The derivative at 0 of the model map is Y -> frame Y' frame*; its
    five-point differences along the congruence probes give the frame and
    the flag (halfplane._congruence_from_probes), and A is then read off
    algebraically at a small invertible sample. Two independent samples must
    agree on A, otherwise the evaluator is not of the model form. The
    difference step is 1e-4 (1 + the evaluator's gain at 0).

    The shell calls the evaluator once per point, 2 + 4 (2 dim - 1) + 2 times,
    and checks that each value is a finite dim x dim matrix (MalformedInputError
    otherwise); the body, _identify_parameters, evaluates the gain and zero
    samples, the differences of all probes and the two base samples as one stack each.
    """
    dim = _checked_int(dim, "dim", 1)
    return _identify_parameters(_checked_evaluator(evaluator, dim), dim, tol)


def _identify_parameters(values: Callable[[np.ndarray], np.ndarray], dim: int, tol: ToleranceConfig) -> MobiusAutomorphism:
    """Body of identify_parameters for a stacked evaluator: values maps a stack (k, dim, dim) to its stack of values."""
    eye = np.eye(dim, dtype=complex)
    gain_value, zero_value = values(np.stack([1e-6 * eye, np.zeros((dim, dim))]))
    probe_gain = float(np.linalg.norm(gain_value)) / 1e-6
    h = 1e-4 * (1.0 + probe_gain)

    at_zero = float(np.linalg.norm(zero_value))
    if at_zero > 1e-8 * (1.0 + probe_gain):
        raise ModelMismatchError(f"evaluator(0) = {at_zero:.3e}, expected 0")

    T, transpose, residual, scale = _congruence_from_probes(
        lambda E: _five_point_derivatives(values, E, h), dim, tol
    )
    if residual > DERIVATIVE_RESIDUAL_TOL * scale:
        raise ModelMismatchError("derivative at 0 is not of congruence form")
    if not _is_invertible(T, tol):
        raise ModelMismatchError("recovered frame is singular")

    c = 5.0 * h
    direction = _seeded_draws(random_hermitian, DIRECTION_SEED, dim, 1)[0]
    direction = direction / max(_opnorms(direction), 1e-12)
    samples = np.stack([c * np.eye(dim), c * (np.eye(dim) + 0.6 * direction)])
    Tinv = np.linalg.inv(T)
    inner = Tinv @ values(samples) @ Tinv.conj().T
    try:
        A1, A2 = herm_part(np.linalg.inv(inner) - np.linalg.inv(samples.swapaxes(-1, -2) if transpose else samples))
    except np.linalg.LinAlgError:
        raise ModelMismatchError("evaluator value at a base sample is singular") from None
    gap, norm = _hermitian_opnorms(np.stack([A1 - A2, A1]))
    if gap > BASE_CONSISTENCY_TOL * (1.0 + norm):
        raise ModelMismatchError("base parameter is inconsistent across samples; evaluator is not of the model form")

    return MobiusAutomorphism(frame=normalize_phase(T), A=A1, transpose=transpose)


class PathSearchResult(NamedTuple):
    found: bool
    path: Optional[List[np.ndarray]]
    nodes_used: int


def _det_signs(shifts: np.ndarray) -> np.ndarray:
    """Whether det(M) > 0, for each shift M = node base + I of a stack of nodes that passed the shear gate.

    For Hermitian X and base the determinant is real: its conjugate is
    det(base X + I) = det(X base + I) (Sylvester). LU with partial pivoting
    returns the determinant of M + E with ||E|| of order n eps ||M||, while
    the gate keeps sigma_min(M) > inv_margin (1 + sigma_max(M)); so
    ||M^{-1} E|| is of order n eps / inv_margin, about n 2e-8 at the
    default inv_margin of 1e-8, the ratio
    det(M + E) / det(M) = det(I + M^{-1} E) stays near 1, and the real part
    of the computed determinant has the sign of det(M). The gate and this
    sign read the same computed shifts M = node base + I.
    """
    return np.linalg.det(shifts).real > 0


def _bfs_over_pool(base: np.ndarray, nodes: np.ndarray, shifts: np.ndarray) -> Optional[List[int]]:
    """Breadth-first search from nodes[0] to nodes[1] over exact-segment edges, on a stack nodes (k, n, n).

    shifts[k] is nodes[k] base + I; every node passed the shear gate, and
    path_to_zero hands over the nodes of one determinant sign only.
    Frontier nodes are expanded in order: each tests its segments to the
    nodes still unvisited with one _segment_crossings row and claims, in
    index order, every node it reaches.
    """
    unvisited = np.ones(len(nodes), dtype=bool)
    unvisited[0] = False
    paths = {0: [0]}
    frontier = [0]
    while frontier:
        next_frontier: List[int] = []
        for v in frontier:
            others = np.flatnonzero(unvisited)  # never empty: node 1 stays unvisited until the return
            for idx in others[~_segment_crossings(base, nodes[v], nodes[others], shifts[v])].tolist():
                unvisited[idx] = False
                paths[idx] = paths[v] + [idx]
                if idx == 1:
                    return paths[1]
                next_frontier.append(idx)
        frontier = next_frontier
    return None


def _waypoints(rng: np.random.Generator, H: np.ndarray, spread: float, pool: int) -> np.ndarray:
    """A pool of path_to_zero's random waypoints (pool, n, n), each drawn and finished in turn.

    Each waypoint draws its kind, then its parts: a random Hermitian of
    scale spread times a choice of {0.5, 1, 2}; a point u H, u in (0.1, 0.9),
    plus a random Hermitian of scale 0.7 spread; or a multiple u v H,
    u in (-0.5, 1.5), v in (0.2, 0.8).
    """
    draws = np.empty((pool,) + H.shape, dtype=complex)
    for i in range(pool):
        kind = rng.integers(0, 3)
        if kind == 0:
            draws[i] = random_hermitian(rng, len(H), scale=spread * WAYPOINT_SCALES[rng.integers(0, 3)])
        elif kind == 1:
            draws[i] = rng.uniform(0.1, 0.9) * H + random_hermitian(rng, len(H), scale=0.7 * spread)
        else:
            draws[i] = rng.uniform(-0.5, 1.5) * H * rng.uniform(0.2, 0.8)
    return draws


def path_to_zero(
    base: Iterable,
    X: Iterable,
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
    max_nodes: int = 10_000,
) -> PathSearchResult:
    """Randomized piecewise-linear path search from 0 to X inside the domain.

    Independent oracle for in_zero_component: uses only segment tests and
    determinant signs, no inertia theory. det(X base + I) is real for
    Hermitian X, nonzero along a path inside the domain and 1 at 0, so an X
    of negative sign (exact, since X passed the shear gate: _det_signs) is
    unreachable: the search returns (False, None, 2) before drawing anything,
    a certificate of non-membership. Otherwise it tries the straight segment,
    then breadth-first search over pools of random Hermitian waypoints,
    PATH_POOL_SIZE at first and doubling, until a path is found or the node
    budget is exhausted. A found path certifies membership; exhaustion is
    (only) evidence of non-membership. nodes_used counts 0, X and the
    waypoints drawn. A pool keeps the waypoints that pass the shear gate with
    0's positive sign, since no path reaches the others (_bfs_over_pool).
    seed and max_nodes must be integers, seed non-negative.
    """
    A, H = _base_and_hermitian(base, X, tol)
    seed, max_nodes = _checked_int(seed, "seed", 0), _checked_int(max_nodes, "max_nodes")
    ends = np.stack([np.zeros_like(H), H])
    eye = np.eye(A.shape[0])
    end_shifts = ends @ A + eye
    if not _is_invertible(end_shifts[1], tol):
        return PathSearchResult(False, None, 0)
    if not _det_signs(end_shifts[1]):
        return PathSearchResult(False, None, 2)
    if not _segment_crossings(A, ends[0], H, end_shifts[0]):
        return PathSearchResult(True, list(ends), 2)
    rng = np.random.default_rng(seed)
    spread = max(1.0, float(_hermitian_opnorms(H)))
    used = 2
    pool = PATH_POOL_SIZE
    while used < max_nodes:
        pool = min(pool, max_nodes - used)
        draws = _waypoints(rng, H, spread, pool)
        shifts = draws @ A + eye
        keep = _is_invertible(shifts, tol)
        keep[keep] = _det_signs(shifts[keep])
        used += pool
        if keep.any():
            nodes = np.concatenate([ends, draws[keep]])
            order = _bfs_over_pool(A, nodes, np.concatenate([end_shifts, shifts[keep]]))
            if order is not None:
                return PathSearchResult(True, [nodes[i] for i in order], used)
        pool *= 2
    return PathSearchResult(False, None, used)
