"""Dense complex Hermitian kernel.

Eigendecomposition (LAPACK, plus a self-contained cyclic Jacobi as a reference),
inertia, Loewner-order comparison, spectral functional calculus, and
invertibility margins. All operations are pure functions; arrays passed in
are never mutated.

Validation happens once, at the public boundary. A public function is a
validating shell: it coerces each matrix argument with as_square or
as_hermitian, checks that the dimensions agree with _same_dim, and then
calls a private trusted kernel (_eigh, _eigvalsh, _is_invertible,
_loewner_compare, ...). Hermiticity is decided by _is_hermitian alone.
Invertibility is sigma_min > inv_margin*(1 + sigma_max), relative to the
scale of the matrix: _is_invertible decides it from one SVD, and
_spectra_invertible from the spectrum of a Hermitian matrix, whose singular
values are the |lambda|. One eigenvalue call answers each Hermitian
question: _eigvalsh (values only) serves inertia, the Loewner order,
membership and margins, _hermitian_opnorms reads a norm off it, and
classify._block_map decides its corner's inertia and invertibility from one
_eigvalsh, each at its own threshold (psd_tol, inv_margin); _eigh serves
where eigenvectors are read, and svd serves non-Hermitian matrices.

A kernel takes complex ndarrays that are already square, of dimension
n >= 1 (as_square refuses an empty matrix), and finite and, where it asks
for Hermitian input, exactly Hermitian: the output of as_hermitian or
herm_part, or an expression that keeps exact symmetry (sums, differences
and real multiples of such arrays, and their nonempty leading corner
blocks). herm_part is exact on such arrays, so a kernel makes the
same LAPACK call (eigh, eigvalsh, svd, solve, inv) on the same matrix as the
public function. Library code that has validated its arguments calls
kernels, never the shells (_sqrt_psd is a kernel only: its callers hand it
an _eigh), and a kernel does not re-check finiteness of intermediates it is
handed. The shell calls that stay take outside input:
classify.rational_effect_factors' spectral_apply (its factors are callable
on any matrix), halfplane._congruence_from_probes' hermitian_eigen (a
non-finite probe response stays a MalformedInputError) and spectral_apply's
own hermitian_eigen.

The contract extends to stacks. A stacked kernel takes a (k, n, n) array
and returns, for each j, bit for bit what it returns on S[j] alone: numpy's
linalg gufuncs and matmul make the same LAPACK or BLAS call on each member.
So do _has_inertia, _is_invertible, _opnorms, _hermitian_opnorms, herm_part
and the kernels built on them (membership, the shear, block and Mobius maps,
the effect maps); _jacobi_eigen runs each member's rotations, in the order
of a run on it alone, as stacked matmuls over the members still sweeping;
_spectral_apply guards and maps each member's spectrum in member order and
finishes every member with one matmul.
Suites draw their samples in order, finish them with herm_part (so a stack
is exactly Hermitian without a second hermiticity test) and check what they
compute with the kernels (_opnorms, _frob, halfplane._in_half_plane), in one
call per stack; public functions, opnorm the one public norm, stay per-matrix.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import DomainViolationError, MalformedInputError, PathSearchError

# as_square's bound on the modulus of an entry: half the largest double, so a
# sum of two entries, as in herm_part, stays finite.
ENTRY_LIMIT = np.finfo(float).max / 2.0
# _is_hermitian's exact rescaling where ||M||_F overflows: ENTRY_LIMIT falls to about 2^423.
HERM_RESCALE = 2.0 ** -600
# jacobi_eigen stops after this many sweeps even if not yet converged.
JACOBI_MAX_SWEEPS = 60
# _principal_sqrt's cap on Denman-Beavers steps: an eigenvalue of M at angle
# delta from the cut (-inf, 0] takes about log2(1/delta) + 7 (33 at 1e-8), and
# congruence_orbit's segment test refuses angles below about 1e-7.
SQRT_MAX_STEPS = 100
# _principal_sqrt's gate ||S^2 - M||_F <= SQRT_RESIDUAL_TOL ||M||_F: converged
# roots stay below 2e-13 (2,000 draws, n = 2-8); an unsettled one is far above.
SQRT_RESIDUAL_TOL = 1e-10

__all__ = [
    "EigenDecomposition",
    "Inertia",
    "OrderVerdict",
    "as_square",
    "as_hermitian",
    "herm_part",
    "opnorm",
    "hermitian_eigen",
    "jacobi_eigen",
    "inertia",
    "loewner_compare",
    "spectral_apply",
    "invertibility_margin",
    "is_invertible",
]


class EigenDecomposition(NamedTuple):
    """Eigenvalues (ascending, real) and a unitary matrix of column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


class Inertia(NamedTuple):
    """Counts of positive, (numerically) zero, and negative eigenvalues."""

    n_pos: int
    n_zero: int
    n_neg: int


def as_square(X: Iterable, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex ndarray of dimension n >= 1, its entries finite and of modulus <= ENTRY_LIMIT."""
    M = np.asarray(X, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise MalformedInputError(f"{name} must be square, got shape {M.shape}")
    if not M.size:
        raise MalformedInputError(f"{name} is empty")
    if not np.abs(M).max() <= ENTRY_LIMIT:  # NaN fails too
        what = f"entries of modulus above {ENTRY_LIMIT:.3e}" if np.isfinite(M).all() else "non-finite entries"
        raise MalformedInputError(f"{name} has {what}")
    return M


def herm_part(M: np.ndarray) -> np.ndarray:
    """(M + M*)/2, member by member on a stack (..., n, n)."""
    M = np.asarray(M, dtype=complex)
    return (M + M.conj().swapaxes(-1, -2)) / 2.0


def _frob(M: np.ndarray) -> float:
    """Frobenius norm of a matrix; a NaN entry gives nan."""
    return float(np.linalg.norm(M, "fro"))


def opnorm(M: np.ndarray) -> float:
    """Spectral (largest singular value) norm of a nonempty finite matrix, square or not."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or not A.size or not np.isfinite(A).all():
        what = "a 2-d array" if A.ndim != 2 else "finite entries" if A.size else "a nonempty array"
        raise MalformedInputError(f"opnorm needs {what}")
    return float(_opnorms(A))


def _opnorms(S: np.ndarray):
    """Largest singular value of each member of a stack (..., r, c), r, c >= 1.

    The same LAPACK call as np.linalg.norm(S, 2, axis=(-2, -1)), and the
    same bits: svd returns the values in descending order, so its first
    value is the maximum that norm takes, without norm's Python overhead.
    """
    return np.linalg.svd(S, compute_uv=False)[..., 0]


def as_hermitian(X: Iterable, tol: ToleranceConfig = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Validate hermiticity within herm_tol and return the exactly Hermitian part.

    ||X - X*||_F <= herm_tol*(1 + ||X||_F) is required; the symmetrized
    matrix is returned so downstream code can rely on exact symmetry.
    """
    M = as_square(X, name)
    if not _is_hermitian(M, tol):
        D = M - M.conj().T
        s = HERM_RESCALE if _frob(D) == np.inf else 1.0  # where ||D||_F overflows: the scaled copy's, scaled back
        raise MalformedInputError(f"{name} is not Hermitian: ||X - X*||_F = {_frob(s * D) / s:.3e}")
    return herm_part(M)


def _is_hermitian(M: np.ndarray, tol: ToleranceConfig) -> bool:
    """The library's one hermiticity test, on a square finite array: ||M - M*||_F <= herm_tol*(1 + ||M||_F).
    Where ||M||_F overflows, it is decided times s = HERM_RESCALE, on the exactly scaled sM."""
    norm, s = _frob(M), 1.0
    if norm == np.inf:
        M, s = M * HERM_RESCALE, HERM_RESCALE
        norm = _frob(M)
    return _frob(M - M.conj().T) <= tol.herm_tol * (s + norm)


def _same_dim(*Ms: np.ndarray) -> tuple:
    """The validated square arrays Ms, unchanged, once they share one dimension; MalformedInputError otherwise."""
    for M in Ms:
        if M.shape != Ms[0].shape:
            raise MalformedInputError("dimension mismatch: " + " vs ".join(f"{M.shape[0]}x{M.shape[1]}" for M in Ms))
    return Ms


def jacobi_eigen(X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> EigenDecomposition:
    """Cyclic Jacobi eigendecomposition for complex Hermitian matrices.

    Each rotation zeroes one off-diagonal pair: a diagonal phase makes the
    pivot entry real, then a real Givens rotation annihilates it. Sweeps
    repeat until the off-diagonal Frobenius mass falls below
    eig_tol * ||X||_F / 10, at most JACOBI_MAX_SWEEPS times.
    """
    values, vectors = _jacobi_eigen(as_hermitian(X, tol)[None], tol)
    return EigenDecomposition(values[0], vectors[0])


def _jacobi_eigen(S: np.ndarray, tol: ToleranceConfig) -> EigenDecomposition:
    """Kernel of jacobi_eigen on an exactly Hermitian stack (k, n, n): values (k, n), vectors (k, n, n).

    Every member takes the rotations, in the same order and with the same
    arithmetic, of a run on it alone: it stops at the first sweep whose
    start finds its off-diagonal mass at or below its own target, and the
    rotation of a pair (p, q) is one stacked matmul over the members still
    sweeping whose pivot is above their skip threshold. |a_pq| is taken as
    hypot of its parts, which is abs of a complex scalar bit for bit (np.abs
    of a complex array is not), and each member's mass is _frob of that
    member alone.
    """
    A = np.array(S, dtype=complex)
    n = A.shape[-1]
    V = np.broadcast_to(np.eye(n, dtype=complex), A.shape).copy()
    if n <= 1:
        return EigenDecomposition(np.diagonal(A, axis1=-2, axis2=-1).real.copy(), V)
    scale = np.array([_frob(M) for M in A])
    target = tol.eig_tol * scale / 10.0
    skip = target / (n * n)
    sweeping = scale != 0.0
    diag = np.arange(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        # direct off-diagonal mass; the difference _frob(A)^2 - sum(diag^2)
        # cancels catastrophically once the sweeps are nearly converged
        off = A.copy()
        off[:, diag, diag] = 0.0
        for j in np.flatnonzero(sweeping):
            sweeping[j] = _frob(off[j]) > target[j]
        if not sweeping.any():
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[:, p, q]
                b = np.hypot(apq.real, apq.imag)
                rows = np.flatnonzero(sweeping & (b > skip))
                if rows.size == 0:
                    continue
                apq, b = apq[rows], b[rows]
                app = A[rows, p, p].real
                aqq = A[rows, q, q].real
                ph = np.conj(apq) / b
                tau = (aqq - app) / (2.0 * b)
                t = np.where(tau != 0.0, np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)), 1.0)
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                # 2x2 unitary [[c, s], [-ph*s, ph*c]] zeroes the (p,q) entry
                J = np.empty((rows.size, 2, 2), dtype=complex)
                J[:, 0, 0] = c
                J[:, 0, 1] = s
                J[:, 1, 0] = -ph * s
                J[:, 1, 1] = ph * c
                pq = np.array([p, q])
                cols = (rows[:, None, None], diag[:, None], pq)
                A[cols] = A[cols] @ J
                pair = (rows[:, None, None], pq[:, None], diag)
                A[pair] = J.conj().swapaxes(-1, -2) @ A[pair]
                A[rows, p, q] = 0.0
                A[rows, q, p] = 0.0
                V[cols] = V[cols] @ J
    values = np.diagonal(A, axis1=-2, axis2=-1).real.copy()
    values[scale == 0.0] = 0.0
    order = np.argsort(values, axis=-1, kind="stable")
    return EigenDecomposition(np.take_along_axis(values, order, -1), np.take_along_axis(V, order[:, None, :], -1))


def hermitian_eigen(X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK (np.linalg.eigh), values ascending.

    jacobi_eigen satisfies the same residual contract and is the reference
    the verification suites check it against.
    """
    return _eigh(as_hermitian(X, tol))


def _eigh(H: np.ndarray) -> EigenDecomposition:
    """Kernel of hermitian_eigen on an exactly Hermitian array."""
    values, vectors = np.linalg.eigh(H)
    return EigenDecomposition(values, vectors)


def _eigvalsh(S: np.ndarray) -> np.ndarray:
    """Ascending spectra of an exactly Hermitian stack (..., n, n), without vectors. They agree with _eigh's
    values to rounding, not bit for bit, so swapping one call for the other moves digests."""
    return np.linalg.eigvalsh(S)


def _hermitian_opnorms(S: np.ndarray):
    """_opnorms of an exactly Hermitian stack (..., n, n), n >= 1, read off its spectra."""
    return _spectra_norms(_eigvalsh(S))


def _spectra_norms(values: np.ndarray):
    """Spectral norms from ascending spectra (..., n), n >= 1: max(-lambda_0, lambda_{n-1}), as sigma = |lambda|."""
    return np.maximum(-values[..., 0], values[..., -1])


def inertia(X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> Inertia:
    """Signature of a Hermitian matrix with the relative psd_tol cutoff.

    Eigenvalues above psd_tol*(1+||X||_2) count positive, below the negated
    cutoff negative, the rest zero.
    """
    return _spectrum_inertia(_eigvalsh(as_hermitian(X, tol)), tol)


def _rank_cut(values: np.ndarray, tol: ToleranceConfig):
    """The rank cutoff psd_tol*(1 + max|lambda|) of each spectrum along the last axis."""
    return tol.psd_tol * (1.0 + np.abs(values).max(axis=-1))


def _has_inertia(S: np.ndarray, p: int, tol: ToleranceConfig):
    """Whether each member of a stack (..., n, n), n >= 1, has inertia (p, 0, n - p).

    The same verdict as comparing inertia's counts, at the cost of one
    comparison per side: each spectrum is ascending, so the counts are
    (p, 0, n - p) iff the (n - p)-th eigenvalue is below -cut and the one
    after it above cut.
    """
    return _spectra_have_inertia(_eigvalsh(S), p, tol)


def _spectra_have_inertia(values: np.ndarray, p: int, tol: ToleranceConfig):
    """_has_inertia from ascending spectra (..., n), n >= 1, that the caller already holds."""
    q = values.shape[-1] - p
    cut = _rank_cut(values, tol)
    if p == 0:
        return values[..., -1] < -cut
    if q == 0:
        return values[..., 0] > cut
    return (values[..., q - 1] < -cut) & (values[..., q] > cut)


def _spectrum_inertia(values: np.ndarray, tol: ToleranceConfig) -> Inertia:
    """Inertia of an eigenvalue array under the rank cutoff, for callers that hold one."""
    cut = _rank_cut(values, tol)
    n_pos = int(np.count_nonzero(values > cut))
    n_neg = int(np.count_nonzero(values < -cut))
    return Inertia(n_pos, values.size - n_pos - n_neg, n_neg)


class OrderVerdict(NamedTuple):
    """Loewner comparison of a Hermitian pair from the extreme eigenvalues of Y - X; with scale = 1 + ||Y - X||_2,
    leq iff min_eig >= -psd_tol*scale, geq iff max_eig <= psd_tol*scale, lt iff min_eig >= inv_margin*scale.
    The verdicts overlap by design (equal implies leq and geq)."""

    min_eig: float
    max_eig: float
    leq: bool
    geq: bool
    lt: bool

    @property
    def equal(self) -> bool:
        return self.leq and self.geq

    @property
    def incomparable(self) -> bool:
        return not (self.leq or self.geq)


def loewner_compare(X: Iterable, Y: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> OrderVerdict:
    """Compare Hermitian X, Y in the Loewner order via eigenvalues of Y - X."""
    return _loewner_compare(*_same_dim(as_hermitian(X, tol, "X"), as_hermitian(Y, tol, "Y")), tol)


def _loewner_compare(A: np.ndarray, B: np.ndarray, tol: ToleranceConfig) -> OrderVerdict:
    """Kernel of loewner_compare on exactly Hermitian arrays of one shape."""
    return _order_verdict(_eigvalsh(B - A), tol)


def _order_verdict(values: np.ndarray, tol: ToleranceConfig) -> OrderVerdict:
    """The OrderVerdict of Y - X from its ascending spectrum, for callers that hold one."""
    lo = float(values[0])
    hi = float(values[-1])
    scale = 1.0 + max(abs(lo), abs(hi))
    cut = tol.psd_tol * scale
    return OrderVerdict(lo, hi, lo >= -cut, hi <= cut, lo >= tol.inv_margin * scale)


def _gate(verdicts, message: str) -> None:
    """Raise DomainViolationError(message) unless every verdict holds: a numpy bool, or a bool array over a stack."""
    # all(.flat): a single matrix's verdict is a numpy scalar, whose .all() is slow
    if not all(verdicts.flat):
        raise DomainViolationError(message)


def _check_guard(values: np.ndarray, domain: Optional[tuple], poles: Sequence[float], margin: float) -> None:
    """DomainViolationError unless an ascending spectrum stays margin inside the open interval domain and margin
    away from each pole. It reads the spectrum's ends; against an infinite end the comparison never holds."""
    if domain is not None:
        a, b = domain
        lo, hi = float(values[0]), float(values[-1])
        if lo <= a + margin:
            raise DomainViolationError(f"eigenvalue {lo:.6g} within margin of domain edge {a}")
        if hi >= b - margin:
            raise DomainViolationError(f"eigenvalue {hi:.6g} within margin of domain edge {b}")
    for pole in poles:
        if np.any(np.abs(values - pole) <= margin):
            raise DomainViolationError(f"eigenvalue within margin of pole at {pole}")


def spectral_apply(
    X: Iterable,
    fn: Callable[[float], float],
    domain: Optional[tuple] = None,
    poles: Sequence[float] = (),
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Functional calculus: V diag(fn(lambda_i)) V* for Hermitian X.

    `domain` is an open interval (a, b) (use +-inf for unbounded ends) and
    `poles` lists excluded points; eigenvalues within inv_margin of an edge
    or pole raise DomainViolationError. Real-valued fn gives Hermitian output.
    """
    return _spectral_apply(hermitian_eigen(X, tol), fn, domain, poles, tol)


def _spectral_apply(
    decomp: EigenDecomposition,
    fn: Callable[[float], float],
    domain: Optional[tuple],
    poles: Sequence[float],
    tol: ToleranceConfig,
) -> np.ndarray:
    """Kernel of spectral_apply on the eigendecomposition of its argument, or of each member of a stack
    (values (..., n), vectors (..., n, n)). Members are guarded and mapped in order, so the first failing
    member raises its own error; one matmul then finishes every member."""
    values = decomp.values.reshape(-1, decomp.values.shape[-1])
    mapped = np.empty(values.shape)
    for spectrum, out in zip(values, mapped):
        _check_guard(spectrum, domain, poles, tol.inv_margin)
        out[:] = [float(fn(v)) for v in spectrum.tolist()]
        if not np.isfinite(out).all():
            raise DomainViolationError("function value not finite on the spectrum")
    V = decomp.vectors
    return herm_part((V * mapped.reshape(decomp.values.shape)[..., None, :]) @ V.conj().swapaxes(-1, -2))


def invertibility_margin(X: Iterable) -> float:
    """Smallest singular value (0 means exactly singular)."""
    return float(np.linalg.svd(as_square(X), compute_uv=False)[-1])


def is_invertible(X: Iterable, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """sigma_min above the relative margin inv_margin*(1+||X||_2)."""
    return bool(_is_invertible(as_square(X), tol))


def _is_invertible(M: np.ndarray, tol: ToleranceConfig):
    """Kernel of is_invertible on a square finite array; one verdict per member of a stack (..., n, n)."""
    # singular values on the first axis: on a single matrix the comparison is
    # between scalars, on a stack the transposes put the members back in order
    sv = np.linalg.svd(M, compute_uv=False).T
    return (sv[-1] > tol.inv_margin * (1.0 + sv[0])).T


def _spectra_invertible(values: np.ndarray, tol: ToleranceConfig):
    """_is_invertible from singular values (..., n), n >= 1, in any order, or from spectra, as sigma = |lambda|."""
    magnitudes = np.abs(values)
    return magnitudes.min(axis=-1) > tol.inv_margin * (1.0 + magnitudes.max(axis=-1))


def _sqrt_psd(decomp: EigenDecomposition, tol: ToleranceConfig) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix, from its eigendecomposition.

    Eigenvalues within the rank cutoff psd_tol*(1+||A||_2) of zero are treated
    as exact zeros (the rank decision of order.rank_one_leq), since roots of
    eps-level noise would smear sqrt(eps) into the kernel; one below the
    negated cutoff, where _loewner_compare(0, A, tol).leq fails, raises.
    """
    values = decomp.values
    cut = _rank_cut(values, tol)
    if float(values[0]) < -cut:
        raise DomainViolationError(f"matrix is not PSD: min eigenvalue {values[0]:.3e}")
    root = np.sqrt(np.where(values > cut, values, 0.0))
    return herm_part((decomp.vectors * root) @ decomp.vectors.conj().T)


def _principal_sqrt(M: np.ndarray) -> np.ndarray:
    """Principal root of M (no eigenvalue on (-inf, 0]) by the coupled Denman-Beavers iteration.

    Y -> M^{1/2} and Z -> M^{-1/2} (Higham, Functions of Matrices, 2008, eq. 6.15) to 1e-8 relative
    change, then one Newton step Y <- (Y + Y^{-1} M)/2. Each iterate is a rational function of M, so
    the root commutes with M. The product form loses digits near the cut and meets singular iterates.
    PathSearchError on a singular iterate, or a root (settled or not in SQRT_MAX_STEPS) off the gate.
    """
    W = np.stack([M, np.eye(M.shape[0], dtype=complex)])  # (Y, Z)
    try:
        for _ in range(SQRT_MAX_STEPS):
            Y = W[0]
            W = (W + np.linalg.inv(W)[::-1]) / 2.0  # Y <- (Y + Z^{-1})/2 and Z <- (Z + Y^{-1})/2 in one call
            step = W[0] - Y
            if np.vdot(step, step).real <= 1e-16 * np.vdot(W[0], W[0]).real:  # squared Frobenius norms
                break
        Y = (W[0] + np.linalg.solve(W[0], M)) / 2.0
    except np.linalg.LinAlgError as exc:
        raise PathSearchError("principal square root: singular iterate") from exc
    residual = _frob(Y @ Y - M) / _frob(M)
    if not residual <= SQRT_RESIDUAL_TOL:  # a NaN residual fails too
        raise PathSearchError(f"principal square root: residual {residual:.3e} > {SQRT_RESIDUAL_TOL:.0e}")
    return Y
