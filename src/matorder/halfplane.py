"""Generalized upper half-plane and its Mobius automorphisms.

Points are complex square matrices whose imaginary part (Z - Z*)/(2i) is
positive definite. Primitives: Cayley transform from the open unit ball,
negated inversion, Hermitian translations, congruences, the rational family
fixing 0 and 1, and the canonical four-parameter automorphism form
(MobiusAutomorphism, the one map type, which localiso and classify evaluate
on their own domains through one kernel) with black-box recovery of its
parameters.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, NamedTuple, Optional, Tuple

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig, _checked_int
from .errors import DomainViolationError, MalformedInputError, ModelMismatchError
from .linalg import (
    _eigh,
    _eigvalsh,
    _gate,
    _is_hermitian,
    _is_invertible,
    _opnorms,
    _same_dim,
    as_hermitian,
    as_square,
    herm_part,
    hermitian_eigen,
)
from .sampling import _seeded_draws, random_half_plane

__all__ = [
    "HalfPlaneMembership",
    "MobiusAutomorphism",
    "in_half_plane",
    "cayley",
    "inverse_cayley",
    "neg_inverse",
    "mobius_fix01",
    "mobius_fix01_matrix",
    "apply_mobius",
    "fit_canonical",
    "normalize_phase",
]

# Relative residual allowed when validating a fitted automorphism at samples.
FIT_RESIDUAL_TOL = 1e-7

# Seed and count of the half-plane samples that fit_canonical validates its fit at.
FIT_VALIDATION_SEED = 7
FIT_VALIDATION_POINTS = 20


def _imag_part(M: np.ndarray) -> np.ndarray:
    """Hermitian imaginary part (M - M*)/(2i)."""
    return herm_part((M - M.conj().T) / 2j)


class HalfPlaneMembership(NamedTuple):
    inside: bool
    margin: float

    def __bool__(self) -> bool:
        return self.inside


def in_half_plane(Z: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> HalfPlaneMembership:
    """Membership with margin = min eigenvalue of the imaginary part."""
    return _in_half_plane(as_square(Z), tol)


def _in_half_plane(M: np.ndarray, tol: ToleranceConfig) -> HalfPlaneMembership:
    margin = float(_eigvalsh(_imag_part(M))[0])
    return HalfPlaneMembership(margin > tol.inv_margin, margin)


def cayley(Y: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Map a strict contraction into the half-plane: Y -> i(Y+I)(I-Y)^{-1}."""
    M = as_square(Y)
    n = M.shape[0]
    if _opnorms(M) >= 1.0 - tol.inv_margin:
        raise DomainViolationError("operand must be a strict contraction (||Y|| < 1)")
    eye = np.eye(n)
    return 1j * np.linalg.solve((eye - M).T, (M + eye).T).T


def inverse_cayley(Z: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Inverse Cayley transform (Z - iI)(Z + iI)^{-1}, defined on the half-plane."""
    M = as_square(Z)
    if not _in_half_plane(M, tol):
        raise DomainViolationError("operand is not in the half-plane")
    eye = np.eye(M.shape[0])
    return np.linalg.solve((M + 1j * eye).T, (M - 1j * eye).T).T


def neg_inverse(Z: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The involution Z -> -Z^{-1}; preserves the half-plane.

    Raises DomainViolationError where sigma_min <= inv_margin*(1 + sigma_max).
    """
    M = as_square(Z)
    if not _is_invertible(M, tol):
        raise DomainViolationError("operand is numerically singular")
    return -np.linalg.inv(M)


def _fix01_pole(r: float) -> float:
    """The pole -(1 - r)/r of x/(rx + 1 - r); DomainViolationError unless r < 1, r != 0."""
    if not (r < 1.0) or r == 0.0:
        raise DomainViolationError(f"parameter must satisfy r < 1, r != 0, got {r}")
    return -(1.0 - r) / r


def mobius_fix01(r: float, x: float) -> float:
    """The rational order automorphism family fixing 0 and 1: x/(r x + 1 - r).

    Defined for parameter r < 1, r != 0; the inverse law is the same family
    at parameter r/(r-1).
    """
    _fix01_pole(r)
    denom = r * x + 1.0 - r
    if denom == 0.0:
        raise DomainViolationError(f"argument {x} is the pole of the map")
    return x / denom


def mobius_fix01_matrix(r: float, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Matrix version via the resolvent form (1/r)I - ((1-r)/r^2)(X - pole*I)^{-1}.

    Accepts Hermitian matrices and half-plane points; one gate serves every
    argument: X - pole*I must be invertible by linalg._is_invertible, else
    DomainViolationError. A Hermitian argument gives a Hermitian value; the
    map sends the half-plane into itself for every admissible r.
    """
    pole = _fix01_pole(r)
    M = as_square(X)
    n = M.shape[0]
    shifted = M - pole * np.eye(n)
    if not _is_invertible(shifted, tol):
        raise DomainViolationError("resolvent of the map is numerically singular")
    out = (1.0 / r) * np.eye(n) - ((1.0 - r) / r**2) * np.linalg.inv(shifted)
    return herm_part(out) if _is_hermitian(M, tol) else out


@dataclasses.dataclass(frozen=True)
class MobiusAutomorphism:
    """Congruence after shear after shift, the library's one map type.

    Z -> C + frame (W A + I)^{-1} W frame* with W = Z' - B, where Z' is
    Z or, when the flag is set, its transpose; A, B, C Hermitian (B, C zero
    when omitted), frame invertible. Where W is invertible the shear equals
    (W^{-1} + A)^{-1}, the canonical half-plane automorphism form. The
    evaluators apply_mobius, localiso.apply_local_iso and
    classify.effect_automorphism differ only in the domain they gate on.
    """

    frame: np.ndarray
    A: np.ndarray
    B: Optional[np.ndarray] = None
    C: Optional[np.ndarray] = None
    transpose: bool = False

    def __post_init__(self) -> None:
        frame = as_square(self.frame, "frame")
        params = _same_dim(frame, as_hermitian(self.A, name="A"),
                           *(np.zeros(frame.shape, dtype=complex) if M is None else as_hermitian(M, name=name)
                             for M, name in ((self.B, "B"), (self.C, "C"))))
        if not _is_invertible(frame, DEFAULT_TOL):
            raise MalformedInputError("frame must be invertible")
        for key, value in zip(("frame", "A", "B", "C"), params):
            object.__setattr__(self, key, value)

    @property
    def dim(self) -> int:
        return self.frame.shape[0]


def _shifted(m: MobiusAutomorphism, Z: np.ndarray) -> np.ndarray:
    """W = Z' - B member by member, for a validated stack (..., n, n) of points of the map's dimension."""
    # the difference is a new C-contiguous array; matmul may round a transposed view differently
    return (Z.swapaxes(-1, -2) if m.transpose else Z) - m.B


def _mobius_eval(m: MobiusAutomorphism, W: np.ndarray, M: np.ndarray) -> np.ndarray:
    """C + frame (W A + I)^{-1} W frame*, given W = Z' - B and M = W A + I from the caller's gate."""
    return m.C + m.frame @ np.linalg.solve(M, W) @ m.frame.conj().T


def apply_mobius(m: MobiusAutomorphism, Z: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Evaluate the automorphism at a half-plane or Hermitian point.

    Raises DomainViolationError where W = Z' - B or W A + I is numerically
    singular (sigma_min <= inv_margin*(1 + sigma_max), linalg._is_invertible),
    so where ((Z' - B)^{-1} + A)^{-1} fails.
    """
    return _apply_mobius(m, _same_dim(as_square(Z), m.frame)[0], tol)


def _apply_mobius(m: MobiusAutomorphism, Z: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Kernel of apply_mobius on a validated stack (..., n, n) of points of the map's dimension.

    Raises, with apply_mobius's message, when either gate fails on any member.
    """
    W = _shifted(m, Z)
    _gate(_is_invertible(W, tol), "Z' - B is numerically singular")
    M = W @ m.A + np.eye(m.dim)
    _gate(_is_invertible(M, tol), "(Z' - B) A + I is numerically singular")
    return _mobius_eval(m, W, M)


def normalize_phase(T: Iterable) -> np.ndarray:
    """Rescale by a unimodular scalar so the largest-magnitude entry of the
    first column is real positive."""
    return _normalize_phase(as_square(T, "T"))


def _normalize_phase(T: np.ndarray) -> np.ndarray:
    col = T[:, 0]
    i0 = int(np.argmax(np.abs(col)))
    pivot = col[i0]
    if abs(pivot) == 0.0:
        return T.copy()
    return T * (np.conj(pivot) / abs(pivot))


def _canonical_inverse(T: np.ndarray, A: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse of Z -> T(Z^{-1} + A)^{-1}T* as a closure, member by member on a stack."""
    Tinv = np.linalg.inv(T)

    def inverse(Y: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.inv(np.linalg.inv(Tinv @ Y @ Tinv.conj().T) - A)
        except np.linalg.LinAlgError:
            raise ModelMismatchError("evaluator value at a probe is singular under the provisional map") from None

    return inverse


def _congruence_from_probes(
    respond: Callable[[np.ndarray], np.ndarray], dim: int, tol: ToleranceConfig
) -> Tuple[np.ndarray, bool, float, float]:
    """(T, transpose, residual, scale) of a linear response E -> T E' T*.

    Probes e1e1*, H = e1ej* + eje1* and K = i(e1ej* - eje1*), one stack
    (2 dim - 1, dim, dim) answered by one respond call: the rank-one
    response to e1e1* gives t1, and (R(H) - iR(K))/2 is t1 tj* without the
    transpose, tj t1* with it. The candidate frame with the smaller worst
    probe residual wins; scale = 1 + the largest response norm.
    """
    E = np.zeros((2 * dim - 1, dim, dim), dtype=complex)
    E[0, 0, 0] = 1.0
    for j in range(1, dim):
        E[2 * j - 1, 0, j] = E[2 * j - 1, j, 0] = 1.0
        E[2 * j, 0, j], E[2 * j, j, 0] = 1j, -1j
    D = respond(E)
    decomp = hermitian_eigen(D[0], tol)
    t1 = decomp.vectors[:, -1] * np.sqrt(max(float(decomp.values[-1]), 0.0))
    t1_sq = float(np.vdot(t1, t1).real)
    if t1_sq <= tol.inv_margin:
        raise ModelMismatchError("probe response at e1 is degenerate")

    cols_linear = [t1]
    cols_transpose = [t1]
    for j in range(1, dim):
        C = (D[2 * j - 1] - 1j * D[2 * j]) / 2.0
        cols_linear.append(C.conj().T @ t1 / t1_sq)
        cols_transpose.append(C @ t1 / t1_sq)

    def worst_opnorm(S: np.ndarray) -> float:
        return float(_opnorms(S).max())

    def congruence_residual(T: np.ndarray, transpose: bool) -> float:
        return worst_opnorm(D - T @ (E.swapaxes(-1, -2) if transpose else E) @ T.conj().T)

    T_lin = np.column_stack(cols_linear)
    T_trp = np.column_stack(cols_transpose)
    res_lin = congruence_residual(T_lin, False)
    res_trp = congruence_residual(T_trp, True) if dim > 1 else np.inf
    transpose = res_trp < res_lin
    scale = 1.0 + worst_opnorm(D)
    return (T_trp if transpose else T_lin), transpose, min(res_lin, res_trp), scale


def _checked_evaluator(evaluator: Callable, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """A per-matrix evaluator as a stacked one: called once per member of a stack (k, dim, dim), each
    value checked to be a finite dim x dim matrix (MalformedInputError otherwise), the values stacked."""
    eye = np.eye(dim)
    return lambda Z: np.stack([_same_dim(as_square(evaluator(X), "evaluator value"), eye)[0] for X in Z])


def fit_canonical(
    evaluator: Callable[[np.ndarray], np.ndarray],
    dim: int,
    anchor: Optional[tuple] = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> MobiusAutomorphism:
    """Recover automorphism parameters from a black-box evaluator.

    Without an anchor the evaluator must be of the centered form
    T(Z^{-1} + A)^{-1}T* (optionally pre-transposed); `anchor` = (X0, Y0)
    first recenters Z -> evaluator(Z + X0) - Y0 and reports B = X0, C = Y0.

    Steps: read A and a provisional frame off the value at iI, peel the
    provisional map off to leave a unitary similarity fixing iI, which acts
    exactly linearly on offsets from iI; recover the unitary and the
    transpose flag from its responses to congruence probes
    (_congruence_from_probes), then fold the unitary into the parameters.
    The result, anchored or not, is validated against the evaluator itself, in
    the caller's coordinates (recentred values are large for an anchor near a
    pole of the map, and would let a poor fit pass), at 20 random half-plane
    samples of FIT_VALIDATION_SEED, drawn once per dimension and shared by
    every fit (sampling._seeded_draws); a worst residual beyond
    FIT_RESIDUAL_TOL relative raises ModelMismatchError.

    The shell calls the evaluator once per point, 1 + (2 dim - 1) + 20 times,
    and checks that each value is a finite dim x dim matrix (MalformedInputError
    otherwise); the body, _fit_canonical, evaluates iI, the probes and the samples as one stack each.
    """
    dim = _checked_int(dim, "dim", 1)
    return _fit_canonical(_checked_evaluator(evaluator, dim), dim, anchor, tol)


def _fit_canonical(values: Callable[[np.ndarray], np.ndarray], dim: int, anchor: Optional[tuple],
                   tol: ToleranceConfig) -> MobiusAutomorphism:
    """Body of fit_canonical for a stacked evaluator: values maps a stack (k, dim, dim) to its stack of values."""
    eye = np.eye(dim, dtype=complex)
    if anchor is None:
        fitted = _fit_centered(values, eye, tol)
    else:
        try:
            X0, Y0 = anchor
        except (TypeError, ValueError):
            raise MalformedInputError("anchor must be a pair (X0, Y0)") from None
        _, X0, Y0 = _same_dim(eye, as_hermitian(X0, tol, "anchor input"), as_hermitian(Y0, tol, "anchor output"))
        centered = _fit_centered(lambda Z: values(Z + X0) - Y0, eye, tol)
        # the shift meets the argument after the optional transpose
        B = X0.T if centered.transpose else X0
        fitted = MobiusAutomorphism(frame=centered.frame, A=centered.A, B=B, C=Y0, transpose=centered.transpose)
    points = _seeded_draws(random_half_plane, FIT_VALIDATION_SEED, dim, FIT_VALIDATION_POINTS)
    wants = values(points)
    worst = 0.0
    for want, got in zip(wants, _apply_mobius(fitted, points, tol)):
        worst = max(worst, float(np.linalg.norm(want - got)) / (1.0 + float(np.linalg.norm(want))))
    if worst > FIT_RESIDUAL_TOL:
        raise ModelMismatchError(f"fitted automorphism residual {worst:.3e} exceeds {FIT_RESIDUAL_TOL}")
    return fitted


def _fit_centered(
    values: Callable[[np.ndarray], np.ndarray], eye: np.ndarray, tol: ToleranceConfig
) -> MobiusAutomorphism:
    """fit_canonical without an anchor and before validation, for a stacked evaluator of validated stacks."""
    dim = eye.shape[0]
    W = values((1j * eye)[None])[0]
    if not _in_half_plane(W, tol):
        raise ModelMismatchError("evaluator does not map iI into the half-plane")
    A2 = _imag_part(W)
    A1 = herm_part(W)
    # both roots from an _eigh, without a rank cut: A2 > inv_margin passed the gate above and A^2 + I >= I, and
    # a cut relative to ||A2|| or ||A||^2 would zero eigenvalues that are small against the norm but not noise
    lam, V = _eigh(A2)
    A2h = herm_part((V * np.sqrt(lam)) @ V.conj().T)
    A2hinv = np.linalg.inv(A2h)
    A = herm_part(A2hinv @ A1 @ A2hinv)
    lam, V = _eigh(A)
    T = A2h @ (V * np.sqrt(lam**2 + 1.0)) @ V.conj().T
    peel = _canonical_inverse(T, A)

    def probe(E: np.ndarray) -> np.ndarray:
        return herm_part(peel(values(1j * eye + E)) - 1j * eye)

    u, transpose, _, _ = _congruence_from_probes(probe, dim, tol)
    if np.linalg.norm(u.conj().T @ u - eye) > 1e-6 * dim:
        raise ModelMismatchError("probe responses are not a unitary similarity")
    return MobiusAutomorphism(
        frame=_normalize_phase(T @ u), A=herm_part(u.conj().T @ A @ u), transpose=transpose
    )
