"""Block-corner order isomorphisms, signature classification, effect maps.

The block map for corner size m acts on Hermitian matrices whose leading
m x m corner has a fixed inertia (p, 0, m-p): it inverts the corner with a
sign flip, twists the off-diagonal strip by +-i, and takes a Schur
complement in the lower block. It is an involution up to swapping p with
m - p, is reproduced blockwise by negating the inverse of a bordered
embedding into dimension 2n - m, and every maximal local order isomorphism
is equivalent to exactly one such map, which makes the ordered pair (m, p)
a complete invariant. It is also the MobiusAutomorphism with frame
diag(I_m, i I_{n-m}), A = B = -E1 and C = E1 = diag(I_m, 0), which
_block_map evaluates blockwise. The effect-algebra section implements
the two canonical automorphism forms of the unit operator interval [0, I]
and the almost-everywhere-continuous order embeddings with overridable
endpoint values. Both automorphism forms and the embedding interior are
MobiusAutomorphism maps, evaluated on effects by one kernel: an FpqSpec
carries the frame form of its four-factor map, built once at construction.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig, _checked_int
from .errors import DomainViolationError, MalformedInputError
from .halfplane import MobiusAutomorphism, _fix01_pole, _mobius_eval, _shifted, mobius_fix01
from .linalg import (
    _eigh,
    _eigvalsh,
    _gate,
    _has_inertia,
    _hermitian_opnorms,
    _is_invertible,
    _loewner_compare,
    _order_verdict,
    _rank_cut,
    _same_dim,
    _spectra_have_inertia,
    _spectra_invertible,
    _spectrum_inertia,
    as_hermitian,
    as_square,
    herm_part,
    spectral_apply,
)

__all__ = [
    "BlockMapSpec",
    "SignatureClass",
    "in_block_domain",
    "block_map_apply",
    "bordered_embedding",
    "bordered_arrangement",
    "signature_class",
    "are_equivalent",
    "class_count",
    "enumerate_signatures",
    "growth_direction",
    "EffectAutoSpec",
    "FpqSpec",
    "EffectEmbeddingSpec",
    "effect_automorphism",
    "rational_effect_automorphism",
    "rational_effect_factors",
    "effect_embedding_map",
    "endpoint_continuity",
]

# FpqSpec accepts a frame with ||T||_2 <= 1 + CONTRACTION_SLACK, so that a
# contraction scaled to norm exactly 1 is not refused for a rounding excess.
CONTRACTION_SLACK = 1e-10


@dataclasses.dataclass(frozen=True)
class BlockMapSpec:
    """Corner data (ambient dim n, corner size m, positive count p)."""

    n: int
    m: int
    p: int

    def __post_init__(self) -> None:
        n, m, p = (_checked_int(getattr(self, key), key) for key in ("n", "m", "p"))
        if not (0 <= p <= m <= n):
            raise MalformedInputError(f"need 0 <= p <= m <= n, got (n={self.n}, m={self.m}, p={self.p})")

    @property
    def dual(self) -> "BlockMapSpec":
        """Parameters of the inverse map (positive count flipped to m - p)."""
        return BlockMapSpec(self.n, self.m, self.m - self.p)


def in_block_domain(spec: BlockMapSpec, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff the leading m x m corner of X has inertia (p, 0, m - p)."""
    return bool(_in_block_domain(spec, _block_argument(spec, X, tol), tol))


def _block_argument(spec: BlockMapSpec, X: Iterable, tol: ToleranceConfig) -> np.ndarray:
    """X validated as Hermitian of the spec's ambient dimension."""
    H = as_hermitian(X, tol, "X")
    if H.shape[0] != spec.n:
        raise MalformedInputError(f"dimension mismatch: {H.shape[0]}x{H.shape[1]} vs spec n={spec.n}")
    return H


def _in_block_domain(spec: BlockMapSpec, H: np.ndarray, tol: ToleranceConfig):
    """Kernel of in_block_domain; one verdict per member of a stack (..., n, n)."""
    if spec.m == 0:
        return np.ones(H.shape[:-2], dtype=bool)
    return _has_inertia(H[..., : spec.m, : spec.m], spec.p, tol)


def block_map_apply(spec: BlockMapSpec, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Invert the corner, twist the strip by +-i, Schur-complement the rest.

        [[X11, X12], [X12*, X22]] -> [[-X11^{-1},            i X11^{-1} X12],
                                      [-i X12* X11^{-1},  X22 - X12* X11^{-1} X12]]

    Maps the (m, p) domain onto the (m, m-p) domain; applying the map for
    the flipped count undoes it.
    """
    return _block_map(spec, _block_argument(spec, X, tol), tol)


def _block_map(spec: BlockMapSpec, H: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Kernel of block_map_apply on an exactly Hermitian array or stack (..., n, n).

    Raises DomainViolationError if any member's corner has the wrong inertia
    or is numerically singular, exactly where the map of that member alone
    raises. One spectrum of the Hermitian corner decides both, each at its
    own threshold (psd_tol, inv_margin). The frame form in the module
    docstring gives the same value, but it adds E1 to the corner and takes
    it away again, losing the corner's relative accuracy off unit scale.
    """
    m = spec.m
    if m == 0:
        return H.copy()
    X11 = H[..., :m, :m]
    values = _eigvalsh(X11)
    _gate(_spectra_have_inertia(values, spec.p, tol), f"corner inertia is not ({spec.p}, 0, {spec.m - spec.p})")
    _gate(_spectra_invertible(values, tol), "corner is numerically singular")
    X12 = H[..., :m, m:]
    X22 = H[..., m:, m:]
    K = np.linalg.solve(X11, X12)  # X11^{-1} X12
    out = np.zeros_like(H)
    out[..., :m, :m] = -np.linalg.inv(X11)
    out[..., :m, m:] = 1j * K
    out[..., m:, :m] = -1j * K.conj().swapaxes(-1, -2)
    out[..., m:, m:] = X22 - X12.conj().swapaxes(-1, -2) @ K
    return herm_part(out)


def bordered_embedding(m: int, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Border X with +-i identity strips into dimension 2n - m.

        [[X11, X12, 0], [X12*, X22, iI], [0, -iI, 0]]

    For X in the (m, p) block domain the negated inverse of the embedding
    reproduces every block of block_map_apply (in the arrangement built by
    bordered_arrangement), and its inertia is (n + p - m, 0, n - p).
    """
    return _bordered_embedding(*_corner_argument(m, X, tol, "X"))


def _corner_argument(m: int, X: Iterable, tol: ToleranceConfig, name: str) -> Tuple[int, np.ndarray]:
    """(m, H): X validated as Hermitian, and m as an integer corner size 0 <= m <= dim(X)."""
    H = as_hermitian(X, tol, name)
    m = _checked_int(m, "m")
    if not 0 <= m <= H.shape[0]:
        raise MalformedInputError(f"need 0 <= m <= dim({name})")
    return m, H


def _bordered_embedding(m: int, H: np.ndarray) -> np.ndarray:
    """Body of bordered_embedding on a Hermitian array or stack (..., n, n)."""
    n = H.shape[-1]
    k = n - m
    out = np.zeros(H.shape[:-2] + (2 * n - m, 2 * n - m), dtype=complex)
    out[..., :n, :n] = H
    out[..., m:n, n:] = 1j * np.eye(k)
    out[..., n:, m:n] = -1j * np.eye(k)
    return out


def bordered_arrangement(m: int, Y: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The block layout that -bordered_embedding(m, X)^{-1} lands in.

        [[Y11, 0, Y12], [0, 0, -iI], [Y21, iI, Y22]]

    with Y = block_map_apply(spec, X) carved into the usual corner blocks.
    """
    return _bordered_arrangement(*_corner_argument(m, Y, tol, "Y"))


def _bordered_arrangement(m: int, H: np.ndarray) -> np.ndarray:
    """Body of bordered_arrangement on a Hermitian array or stack (..., n, n)."""
    n = H.shape[-1]
    k = n - m
    out = np.zeros(H.shape[:-2] + (2 * n - m, 2 * n - m), dtype=complex)
    out[..., :m, :m] = H[..., :m, :m]
    out[..., :m, n:] = H[..., :m, m:]
    out[..., n:, :m] = H[..., m:, :m]
    out[..., n:, n:] = H[..., m:, m:]
    out[..., m:n, n:] = -1j * np.eye(k)
    out[..., n:, m:n] = 1j * np.eye(k)
    return out


class SignatureClass(NamedTuple):
    """Equivalence class (m, p) of a base matrix, with a borderline warning.

    p counts eigenvalues above the rank cutoff, m - p below its negative;
    borderline is set when some eigenvalue sits within a factor of 10 of
    the cutoff, where the classification is numerically unstable.
    """

    m: int
    p: int
    borderline: bool


def signature_class(A: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> SignatureClass:
    """Class invariant of the local order isomorphism with base A."""
    return _signature_class(as_hermitian(A, tol, "A"), tol)


def _signature_class(H: np.ndarray, tol: ToleranceConfig) -> SignatureClass:
    values = _eigvalsh(H)
    sig = _spectrum_inertia(values, tol)
    cut = _rank_cut(values, tol)
    magnitudes = np.abs(values)
    borderline = bool(((magnitudes > cut / 10.0) & (magnitudes < cut * 10.0)).any())
    return SignatureClass(sig.n_pos + sig.n_neg, sig.n_pos, borderline)


def are_equivalent(A: Iterable, B: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Bases are equivalent iff their (m, p) signature classes coincide."""
    a, b = _same_dim(as_hermitian(A, tol, "A"), as_hermitian(B, tol, "B"))
    return _signature_class(a, tol)[:2] == _signature_class(b, tol)[:2]


def class_count(n: int) -> int:
    """Number of equivalence classes of maximal local order isomorphisms."""
    n = _checked_int(n, "n", 0)
    return (n + 2) * (n + 1) // 2


def enumerate_signatures(n: int) -> List[np.ndarray]:
    """One diagonal representative per possible signature in dimension n."""
    n = _checked_int(n, "n", 0)
    reps = []
    for m in range(n + 1):
        for p in range(m + 1):
            reps.append(np.diag([1.0] * p + [-1.0] * (m - p) + [0.0] * (n - m)).astype(complex))
    return reps


def growth_direction(spec: BlockMapSpec, X: Iterable, positive: bool = True, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """A semidefinite direction Y of extremal rank with X + cY staying in the domain for all c >= 0.

    For the positive side Y is PSD of rank n + p - m: it feeds the corner
    only through the span of the corner's positive eigenvectors (which
    keeps the corner inertia fixed for every c >= 0) and is free on the
    complement of the corner. The negative side mirrors this with the
    corner's negative eigenvectors, giving an NSD direction of rank n - p.
    These ranks are maximal: any semidefinite direction of higher rank
    eventually changes the corner inertia, which the verification suites
    refute by grid search.
    """
    H = _block_argument(spec, X, tol)
    if not _in_block_domain(spec, H, tol):
        raise DomainViolationError("X is outside the block domain")
    return _growth_direction(spec, H, positive, tol)


def _growth_direction(spec: BlockMapSpec, H: np.ndarray, positive: bool, tol: ToleranceConfig) -> np.ndarray:
    """Kernel of growth_direction on an exactly Hermitian H that lies in the block domain; H is not re-checked."""
    n, m = spec.n, spec.m
    D = np.zeros((n, n), dtype=complex)
    D[m:, m:] = np.eye(n - m)
    if m > 0:
        corner = _eigh(H[:m, :m])
        cut = _rank_cut(corner.values, tol)
        keep = corner.values > cut if positive else corner.values < -cut
        V = corner.vectors[:, keep]
        D[:m, :m] = V @ V.conj().T
    return herm_part(D if positive else -D)


def _as_effect(X: Iterable, tol: ToleranceConfig) -> np.ndarray:
    """Validate 0 <= X <= I (psd_tol cushion) and return the Hermitian part."""
    H = as_hermitian(X, tol, "X")
    values = _eigvalsh(H)  # the spectrum of I - H is 1 - values, reversed to ascend
    if not _order_verdict(values, tol).leq or not _order_verdict(1.0 - values[::-1], tol).leq:
        raise DomainViolationError("X is not an effect (needs 0 <= X <= I)")
    return H


def EffectAutoSpec(frame: Iterable, transpose: bool = False) -> MobiusAutomorphism:
    """The effect automorphism X -> T (X'(T*T - I) + I)^{-1} X' T*: the map (T, A = T*T - I)."""
    T = as_square(frame, "frame")
    return MobiusAutomorphism(
        frame=T, A=herm_part(T.conj().T @ T - np.eye(T.shape[0])), transpose=transpose
    )


def effect_automorphism(m: MobiusAutomorphism, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Evaluate on an effect; EffectAutoSpec maps fix 0 and I and preserve order both ways."""
    return _effect_automorphism(m, _same_dim(_as_effect(X, tol), m.frame)[0], tol)


def _effect_automorphism(m: MobiusAutomorphism, H: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Kernel of effect_automorphism on a stack (..., n, n) of effects of the map's dimension.

    Raises, with effect_automorphism's message, when W A + I is numerically
    singular for any member.
    """
    W = _shifted(m, H)
    M = W @ m.A + np.eye(m.dim)
    _gate(_is_invertible(M, tol), "effect is outside the map's domain")
    return herm_part(_mobius_eval(m, W, M))


@dataclasses.dataclass(frozen=True)
class FpqSpec:
    """Effect automorphism built from two scalar reweightings and a contraction.

    Parameters p in (0,1), q < 0, and a bijective T with ||T|| <= 1. The map
    f_q(f_p(TT*)^{-1/2} f_p(T X' T*) f_p(TT*)^{-1/2}), with f_r(x) =
    x/(rx + 1 - r), is the frame form EffectAutoSpec(F, transpose) stored in
    `automorphism`: write c_r = 1/(1 - r), so f_r(M) = c_r (M^{-1} + r c_r I)^{-1};
    composing the four factors gives F (X'^{-1} + F*F - I)^{-1} F* with
    F = ((1-p)(1-q))^{-1/2} f_p(TT*)^{-1/2} T. From the SVD T = U diag(s) W*,
    F = U diag(sqrt((p s^2 + 1 - p)/((1-p)(1-q)))) W*, so F's singular
    values lie in [(1-q)^{-1/2}, ((1-p)(1-q))^{-1/2}] and A = F*F - I > -I.
    """

    p: float
    q: float
    frame: np.ndarray
    transpose: bool = False
    automorphism: MobiusAutomorphism = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise MalformedInputError("p must lie in (0, 1)")
        if not self.q < 0.0:
            raise MalformedInputError("q must be negative")
        frame = as_square(self.frame, "frame")
        # one SVD decides both, at opnorm's threshold and by the invertibility rule of its singular values
        U, s, Wh = np.linalg.svd(frame)
        if s.max() > 1.0 + CONTRACTION_SLACK:
            raise MalformedInputError("frame must be a contraction")
        if not _spectra_invertible(s, DEFAULT_TOL):
            raise MalformedInputError("frame must be bijective")
        object.__setattr__(self, "frame", frame)
        F = (U * np.sqrt((self.p * s**2 + 1.0 - self.p) / ((1.0 - self.p) * (1.0 - self.q)))) @ Wh
        object.__setattr__(self, "automorphism", EffectAutoSpec(F, self.transpose))


def rational_effect_automorphism(spec: FpqSpec, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """f_q(f_p(TT*)^{-1/2} f_p(T X' T*) f_p(TT*)^{-1/2}), evaluated as its frame form spec.automorphism.

    The four-factor spectral route of rational_effect_factors is an
    independent check of the same value.
    """
    return _effect_automorphism(spec.automorphism, _same_dim(_as_effect(X, tol), spec.frame)[0], tol)


def rational_effect_factors(spec: FpqSpec, tol: ToleranceConfig = DEFAULT_TOL) -> Tuple[Callable, Callable, Callable, Callable]:
    """The map as a chain of four order isomorphisms (spectral route).

    factor 1: congruence by the contraction (with optional transpose);
    factor 2: spectral reweighting f_p; factor 3: congruence by
    f_p(TT*)^{-1/2}, with f_p(TT*) taken by factor 2; factor 4: the same
    reweighting at q. Composing them must match rational_effect_automorphism.
    """
    T = spec.frame

    def reweighting(r: float) -> Callable:
        return lambda X: spectral_apply(X, partial(mobius_fix01, r), poles=(_fix01_pole(r),), tol=tol)

    factor2, factor4 = reweighting(spec.p), reweighting(spec.q)
    inv_root = spectral_apply(factor2(herm_part(T @ T.conj().T)), lambda x: 1.0 / np.sqrt(x),
                              domain=(0.0, np.inf), tol=tol)

    def factor1(X: np.ndarray) -> np.ndarray:
        Y = np.asarray(X)
        return herm_part(T @ (Y.T if spec.transpose else Y) @ T.conj().T)

    def factor3(X: np.ndarray) -> np.ndarray:
        return herm_part(inv_root @ np.asarray(X) @ inv_root)

    return factor1, factor2, factor3, factor4


@dataclasses.dataclass(frozen=True)
class EffectEmbeddingSpec:
    """Order embedding of the effect interval with overridable endpoints.

    Interior formula T (X base + I)^{-1} X T* + offset with base > -I, the
    map (frame, A=base, C=offset); the values at 0 and I may be overridden
    provided value_at_zero <= offset and value_at_one >= the interior
    formula at I. Overrides are the only discontinuities the form admits.
    """

    frame: np.ndarray
    base: np.ndarray
    offset: np.ndarray
    value_at_zero: Optional[np.ndarray] = None
    value_at_one: Optional[np.ndarray] = None
    interior: MobiusAutomorphism = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        interior = MobiusAutomorphism(frame=self.frame, A=self.base, C=self.offset)
        if float(_eigvalsh(interior.A)[0]) <= -1.0 + DEFAULT_TOL.inv_margin:
            raise MalformedInputError("base must be > -I")
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "frame", interior.frame)
        object.__setattr__(self, "base", interior.A)
        object.__setattr__(self, "offset", interior.C)
        if self.value_at_zero is not None:
            v0 = as_hermitian(self.value_at_zero, name="value_at_zero")
            if not _loewner_compare(*_same_dim(v0, interior.C), DEFAULT_TOL).leq:
                raise MalformedInputError("value_at_zero must be <= offset")
            object.__setattr__(self, "value_at_zero", v0)
        if self.value_at_one is not None:
            v1 = as_hermitian(self.value_at_one, name="value_at_one")
            top = _effect_automorphism(interior, np.eye(self.dim), DEFAULT_TOL)
            if not _loewner_compare(*_same_dim(top, v1), DEFAULT_TOL).leq:
                raise MalformedInputError("value_at_one must be >= the interior value at I")
            object.__setattr__(self, "value_at_one", v1)

    @property
    def dim(self) -> int:
        return self.interior.dim


def effect_embedding_map(spec: EffectEmbeddingSpec, X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Evaluate the embedding, honoring endpoint overrides at 0 and I."""
    return _effect_embedding(spec, _same_dim(_as_effect(X, tol), spec.frame)[0][None], tol)[0]


def _effect_embedding(spec: EffectEmbeddingSpec, H: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Body of effect_embedding_map on a stack (k, n, n) of effects of the spec's dimension.

    Member by member, a point within psd_tol (Frobenius) of 0 or I takes the
    override there, if the spec has one; the other members go through the
    interior map in one call, which raises if any of them is outside its domain.
    """
    eye = np.eye(spec.dim)
    out = np.empty(H.shape, dtype=complex)
    interior = []
    for j, h in enumerate(H):
        if spec.value_at_zero is not None and float(np.linalg.norm(h)) <= tol.psd_tol:
            out[j] = spec.value_at_zero
        elif spec.value_at_one is not None and float(np.linalg.norm(h - eye)) <= tol.psd_tol:
            out[j] = spec.value_at_one
        else:
            interior.append(j)
    if interior:
        out[interior] = _effect_automorphism(spec.interior, H[interior], tol)
    return out


def endpoint_continuity(spec: EffectEmbeddingSpec, tol: ToleranceConfig = DEFAULT_TOL) -> Dict[str, bool]:
    """Whether each (possibly overridden) endpoint value is within psd_tol * (1 + ||limit||_2) of its interior limit."""
    limits = _effect_automorphism(spec.interior, np.stack([np.zeros((spec.dim, spec.dim)), np.eye(spec.dim)]), tol)
    report = {}
    for key, limit, override in zip(("zero", "one"), limits, (spec.value_at_zero, spec.value_at_one)):
        value = limit if override is None else override
        gap, norm = _hermitian_opnorms(np.stack([value - limit, limit]))
        report[key] = bool(gap <= tol.psd_tol * (1.0 + norm))
    return report
