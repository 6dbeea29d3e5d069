"""Loewner order structure.

Operator intervals, the rank-one trace test, affine order isomorphisms
between an interval [A, B] and the effect algebra of rank(B - A), and the
two-projection dominance radius in dimension 2.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Optional

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import DomainViolationError, MalformedInputError
from .linalg import (
    _eigh,
    _loewner_compare,
    _order_verdict,
    _rank_cut,
    _same_dim,
    _spectrum_inertia,
    as_hermitian,
    herm_part,
)

__all__ = [
    "OperatorInterval",
    "AffineIntervalIso",
    "interval_contains",
    "rank_one_leq",
    "affine_interval_iso",
    "projection_dominance_radius",
]


@dataclasses.dataclass(frozen=True)
class OperatorInterval:
    """Interval in the Loewner order; a missing bound encodes +-infinity.

    lower_closed/upper_closed pick between <= and < at each present end.
    """

    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    lower_closed: bool = True
    upper_closed: bool = True

    def __post_init__(self) -> None:
        lower = None if self.lower is None else as_hermitian(self.lower, name="lower bound")
        upper = None if self.upper is None else as_hermitian(self.upper, name="upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower is not None and upper is not None:
            cmp = _loewner_compare(*_same_dim(lower, upper), DEFAULT_TOL)
            if self.lower_closed and self.upper_closed:
                if not cmp.leq:
                    raise MalformedInputError("need lower <= upper for a closed interval")
            elif not cmp.lt:
                raise MalformedInputError("need lower < upper when an endpoint is open")


def interval_contains(J: OperatorInterval, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Membership of Hermitian X in the interval per its closedness flags."""
    H = _same_dim(as_hermitian(X, tol), *(b for b in (J.lower, J.upper) if b is not None))[0]
    if J.lower is not None:
        cmp = _loewner_compare(J.lower, H, tol)
        if not (cmp.leq if J.lower_closed else cmp.lt):
            return False
    if J.upper is not None:
        cmp = _loewner_compare(H, J.upper, tol)
        if not (cmp.leq if J.upper_closed else cmp.lt):
            return False
    return True


def rank_one_leq(R: Iterable, A: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Order test R <= A for rank-one PSD R against PSD A.

    True iff range(R) lies inside range(A) and tr(pinv(A) R) <= 1 + psd_tol.
    Both read w = V_A* v, the coordinates of R's range vector v in A's
    eigenbasis, once: its part on the eigenvectors below the psd_tol rank
    cutoff is the leak out of range(A), and sum |w_i|^2 / lambda_i over the
    rest is the trace, so no ill-conditioned pseudo-inverse of a nearly
    singular A is formed.
    """
    R, A = _same_dim(as_hermitian(R, tol, "R"), as_hermitian(A, tol, "A"))
    decompR, decompA = _eigh(R), _eigh(A)
    sig = _spectrum_inertia(decompR.values, tol)
    if sig.n_neg != 0 or sig.n_pos != 1:
        raise MalformedInputError(f"R must be PSD of rank one, inertia is {tuple(sig)}")
    cutA = _rank_cut(decompA.values, tol)
    if np.any(decompA.values < -cutA):
        raise MalformedInputError("A must be PSD")

    weight = float(decompR.values[-1])
    vec = decompR.vectors[:, -1] * math.sqrt(max(weight, 0.0))

    w = decompA.vectors.conj().T @ vec
    kernel = np.abs(decompA.values) <= cutA
    leak = float(np.linalg.norm(w[kernel]))
    if leak > math.sqrt(tol.psd_tol) * (1.0 + float(np.linalg.norm(vec))):
        return False
    trace = float(np.sum(np.abs(w[~kernel]) ** 2 / decompA.values[~kernel]))
    return trace <= 1.0 + tol.psd_tol


@dataclasses.dataclass(frozen=True)
class AffineIntervalIso:
    """Order isomorphism between [lower, upper] and the effect algebra E_r.

    forward(X) = S* (X - lower) S with S = V diag(1/sqrt(mu_i)) built from
    the top-r eigenpairs of D = upper - lower; backward inverts it on the
    range of D. forward(lower) = 0 and forward(upper) = I_r.
    """

    lower: np.ndarray
    upper: np.ndarray
    rank: int
    isometry: np.ndarray        # n x r eigenvectors spanning range(upper - lower)
    scaling: np.ndarray         # positive eigenvalues mu_1..mu_r of upper - lower

    def forward(self, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
        H = _same_dim(as_hermitian(X, tol), self.lower)[0]
        S = self.isometry / np.sqrt(self.scaling)
        return herm_part(S.conj().T @ (H - self.lower) @ S)

    def backward(self, Y: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
        H = as_hermitian(Y, tol)
        if H.shape[0] != self.rank:
            raise MalformedInputError(f"expected a {self.rank}x{self.rank} effect")
        S = self.isometry * np.sqrt(self.scaling)
        return herm_part(self.lower + S @ H @ S.conj().T)


def affine_interval_iso(A: Iterable, B: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> AffineIntervalIso:
    """Build the affine order isomorphism [A, B] -> E_r, r = rank(B - A)."""
    A, B = _same_dim(as_hermitian(A, tol, "A"), as_hermitian(B, tol, "B"))
    decomp = _eigh(B - A)
    cmp = _order_verdict(decomp.values, tol)
    if not cmp.leq:
        raise DomainViolationError("need A <= B")
    if cmp.equal:
        raise DomainViolationError("need A != B")
    cut = _rank_cut(decomp.values, tol)
    keep = decomp.values > cut
    rank = int(np.sum(keep))
    return AffineIntervalIso(
        lower=A,
        upper=B,
        rank=rank,
        isometry=np.ascontiguousarray(decomp.vectors[:, keep]),
        scaling=np.ascontiguousarray(decomp.values[keep]),
    )


def projection_dominance_radius(c: float, d: float) -> float:
    """Radius threshold for dE <= P + cQ with orthogonal rank-one P, Q in dim 2.

    For weights 0 <= c < d <= 1 and rank-one projections E, the dominance
    dE <= P + cQ holds exactly when ||P - E|| <= sqrt((c - c d)/(d - c d)).
    """
    if not (0.0 <= c < d <= 1.0):
        raise DomainViolationError(f"need 0 <= c < d <= 1, got c={c}, d={d}")
    return math.sqrt((c - c * d) / (d - c * d))
