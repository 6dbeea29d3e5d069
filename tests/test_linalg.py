"""Eigendecomposition, inertia, and functional calculus against closed-form oracles."""

from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder import linalg
from matorder.config import DEFAULT_TOL
from matorder.errors import DomainViolationError, MalformedInputError, PathSearchError
from matorder.linalg import (
    OrderVerdict,
    _eigh,
    _eigvalsh,
    _frob,
    _gate,
    _has_inertia,
    _hermitian_opnorms,
    _is_invertible,
    _opnorms,
    _order_verdict,
    _principal_sqrt,
    _sqrt_psd,
    as_hermitian,
    herm_part,
    hermitian_eigen,
    inertia,
    invertibility_margin,
    is_invertible,
    jacobi_eigen,
    loewner_compare,
    opnorm,
    spectral_apply,
)
from matorder.localiso import _in_zero_component, _range_compression, in_zero_component
from matorder.sampling import random_hermitian, random_psd, random_unitary


def charpoly_roots_2x2(A):
    # oracle: explicit quadratic formula for the 2x2 Hermitian spectrum
    a = float(np.real(A[0, 0]))
    c = float(np.real(A[1, 1]))
    b = abs(A[0, 1])
    mid = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    return np.array([mid - rad, mid + rad])


def charpoly_roots_3x3(A):
    # oracle: roots of the characteristic cubic from trace identities
    t1 = float(np.real(np.trace(A)))
    t2 = float(np.real(np.trace(A @ A)))
    det = float(np.real(np.linalg.det(A)))
    c2 = -t1
    c1 = 0.5 * (t1 * t1 - t2)
    c0 = -det
    roots = np.roots([1.0, c2, c1, c0])
    return np.sort(np.real(roots))


def test_eigen_matches_quadratic_formula():
    rng = np.random.default_rng(0)
    for _ in range(60):
        A = random_hermitian(rng, 2)
        got = hermitian_eigen(A).values
        want = charpoly_roots_2x2(A)
        assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + opnorm(A))


def test_eigen_matches_cubic_roots():
    rng = np.random.default_rng(1)
    for _ in range(60):
        A = random_hermitian(rng, 3)
        got = hermitian_eigen(A).values
        want = charpoly_roots_3x3(A)
        assert np.max(np.abs(got - want)) <= 1e-8 * (1.0 + opnorm(A))


def test_jacobi_agrees_with_default_engine():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5, 8):
        A = random_hermitian(rng, n)
        slow = jacobi_eigen(A)
        fast = hermitian_eigen(A)
        assert np.max(np.abs(slow.values - fast.values)) <= 1e-9 * (1.0 + opnorm(A))
        # both must reconstruct A and be unitary
        for d in (slow, fast):
            V, w = d.vectors, d.values
            assert _frob((V * w) @ V.conj().T - A) <= 1e-9 * (1.0 + _frob(A))
            assert _frob(V.conj().T @ V - np.eye(n)) <= 1e-10 * n


def _jacobi_per_matrix(X, tol):
    """The per-matrix cyclic Jacobi loop that the stacked kernel replaced, kept as its reference."""
    A = np.array(X, dtype=complex)
    n = A.shape[0]
    V = np.eye(n, dtype=complex)
    if n <= 1:
        return np.diag(A).real.copy(), V
    scale = _frob(A)
    if scale == 0.0:
        return np.zeros(n), V
    target = tol.eig_tol * scale / 10.0
    for _ in range(linalg.JACOBI_MAX_SWEEPS):
        if _frob(A - np.diag(np.diag(A))) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= target / (n * n):
                    continue
                ph = np.conj(apq) / abs(apq)
                tau = (A[q, q].real - A[p, p].real) / (2.0 * abs(apq))
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0.0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                J = np.array([[c, s], [-ph * s, ph * c]], dtype=complex)
                A[:, [p, q]] = A[:, [p, q]] @ J
                A[[p, q], :] = J.conj().T @ A[[p, q], :]
                A[p, q] = 0.0
                A[q, p] = 0.0
                V[:, [p, q]] = V[:, [p, q]] @ J
    values = np.diag(A).real
    order = np.argsort(values, kind="stable")
    return values[order], np.ascontiguousarray(V[:, order])


def _bits(M):
    return np.ascontiguousarray(M).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=20),
       st.sampled_from(["random", "zero", "diagonal", "repeated"]), st.sampled_from([1e-10, 1e-30]),
       st.sampled_from([None, 1, 2]), st.integers(0, 2**32 - 1))
def test_stacked_jacobi_is_the_per_matrix_loop_bit_for_bit(n, exponents, kind, eig_tol, sweeps, seed):
    # members of one stack converge after different numbers of sweeps; eig_tol 1e-30 still converges
    # within about ten (quadratically), so a lowered sweep cap stops members before convergence
    rng = np.random.default_rng(seed)
    S = np.stack([random_hermitian(rng, n, scale=10.0 ** e) for e in exponents])
    if kind == "zero":
        S[0] = 0.0
    elif kind == "diagonal":
        S = S * np.eye(n)
    elif kind == "repeated":
        values = np.repeat(rng.uniform(-1.0, 1.0, size=(len(exponents), n)), 2, axis=1)[:, :n]
        values = values * 10.0 ** np.array(exponents)[:, None]
        U = random_unitary(rng, n)
        S = herm_part((U * values[:, None, :]) @ U.conj().T)
    tol = DEFAULT_TOL.replace(eig_tol=eig_tol)
    with mock.patch.object(linalg, "JACOBI_MAX_SWEEPS", sweeps or linalg.JACOBI_MAX_SWEEPS):
        got = linalg._jacobi_eigen(S, tol)
        for j, X in enumerate(S):
            values, vectors = _jacobi_per_matrix(X, tol)
            assert np.array_equal(_bits(got.values[j]), _bits(values))
            assert np.array_equal(_bits(got.vectors[j]), _bits(vectors))
        single = jacobi_eigen(S[0], tol)
    assert np.array_equal(_bits(single.values), _bits(got.values[0]))
    assert np.array_equal(_bits(single.vectors), _bits(got.vectors[0]))


def test_eigen_on_diagonal_is_exact():
    A = np.diag([3.0, -1.0, 0.0, 7.5]).astype(complex)
    d = hermitian_eigen(A)
    assert np.allclose(d.values, [-1.0, 0.0, 3.0, 7.5], atol=1e-14)


def test_inertia_reads_off_diagonal_signs():
    A = np.diag([2.0, 1e-3, 0.0, -4.0, -1.0]).astype(complex)
    sig = inertia(A)
    assert (sig.n_pos, sig.n_zero, sig.n_neg) == (2, 1, 2)


def test_inertia_invariant_under_congruence():
    # oracle: Sylvester invariance, checked with random invertible frames
    rng = np.random.default_rng(3)
    A = np.diag([1.0, 1.0, -1.0, 0.0]).astype(complex)
    for _ in range(25):
        T = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 3 * np.eye(4)
        B = T @ A @ T.conj().T
        assert tuple(inertia(herm_part(B))) == (2, 1, 1)


def test_as_hermitian_rejects_skew_input():
    Z = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    with pytest.raises(MalformedInputError):
        as_hermitian(Z)


def _edges(tol):
    """(lo, hi) spectrum ends, lo <= hi, on the psd_tol and inv_margin cushions and one ulp to either side of
    them, with +-0, lo == hi and both signs."""
    pairs = [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, 1.0), (-1.0, -0.0), (-2.0, 3.0), (0.5, 0.5), (-0.5, -0.5)]
    for hi in (0.25, 1.0, 7.0):  # |lo| <= |hi| below, so scale = 1 + hi
        for on in (-tol.psd_tol * (1.0 + hi), tol.inv_margin * (1.0 + hi)):
            pairs += [(lo, hi) for lo in (np.nextafter(on, -np.inf), on, np.nextafter(on, np.inf))]
    for lo in (-2.0, -0.5):  # |hi| <= |lo| below, so scale = 1 - lo
        on = tol.psd_tol * (1.0 - lo)
        ends = (np.nextafter(on, -np.inf), on, np.nextafter(on, np.inf))
        pairs += [(lo, sign * hi) for hi in ends for sign in (1, -1)]
    return [(float(lo), float(hi)) for lo, hi in pairs]


@pytest.mark.parametrize("tol", [DEFAULT_TOL, DEFAULT_TOL.replace(psd_tol=0.125, inv_margin=0.25)],
                         ids=["default", "wide"])
def test_order_verdict_decides_as_the_former_properties(tol):
    # the formulas OrderVerdict used to work out at every property read, from min_eig, max_eig and the tolerances
    ties = np.zeros(3, dtype=int)
    for lo, hi in _edges(tol):
        scale = 1.0 + max(abs(lo), abs(hi))
        leq = lo >= -tol.psd_tol * scale
        geq = hi <= tol.psd_tol * scale
        former = (lo, hi, leq, geq, lo >= tol.inv_margin * scale, leq and geq,
                  lo < -tol.psd_tol * scale and hi > tol.psd_tol * scale)
        v = _order_verdict(np.array([lo, hi]), tol)
        assert (*v, v.equal, v.incomparable) == former, (lo, hi)
        assert all(type(b) is bool for b in (*v[2:], v.equal, v.incomparable))
        ties += [lo == -tol.psd_tol * scale, hi == tol.psd_tol * scale, lo == tol.inv_margin * scale]
    assert ties.all()  # the grid sits exactly on each cushion somewhere


def test_loewner_compare_returns_the_verdict_record():
    v = loewner_compare(np.eye(2), 2.0 * np.eye(2))
    assert isinstance(v, OrderVerdict) and v._fields == ("min_eig", "max_eig", "leq", "geq", "lt")
    assert v == (1.0, 1.0, True, False, True)


@pytest.mark.parametrize("verdicts", [np.bool_(False), np.array(False), np.array([[True, True], [True, False]])],
                         ids=["bool-scalar", "0-d", "stack"])
def test_gate_raises_its_message_unless_every_verdict_holds(verdicts):
    with pytest.raises(DomainViolationError) as info:
        _gate(verdicts, "X is outside the domain")
    assert str(info.value) == "X is outside the domain"


@pytest.mark.parametrize("verdicts", [np.bool_(True), np.array(True), np.ones((3, 2), dtype=bool)],
                         ids=["bool-scalar", "0-d", "stack"])
def test_gate_is_silent_when_every_verdict_holds(verdicts):
    assert _gate(verdicts, "unused") is None


@pytest.mark.parametrize("domain", [(-np.inf, 1.0), (-1.0, np.inf), (-np.inf, np.inf)], ids=["low", "high", "both"])
def test_check_guard_accepts_a_spectrum_against_an_infinite_end(domain):
    margin = DEFAULT_TOL.inv_margin
    assert linalg._check_guard(np.array([-1.0 + 2 * margin, 1.0 - 2 * margin]), domain, (), margin) is None


@pytest.mark.parametrize("values, domain, message", [
    ([-1.0 + 5e-9, 3.0], (-1.0, np.inf), r"^eigenvalue -1 within margin of domain edge -1\.0$"),
    ([-3.0, 1.0 - 5e-9], (-np.inf, 1.0), r"^eigenvalue 1 within margin of domain edge 1\.0$"),
], ids=["low", "high"])
def test_check_guard_refuses_a_spectrum_within_the_margin_of_a_finite_end(values, domain, message):
    with pytest.raises(DomainViolationError, match=message):
        linalg._check_guard(np.array(values), domain, (), DEFAULT_TOL.inv_margin)


def _hermitian_at(scale):
    return random_hermitian(np.random.default_rng(11), 4) * scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hermiticity_is_decided_where_the_frobenius_norm_overflows():
    # ||M||_F and ||M - M*||_F both overflowed to inf, and inf <= herm_tol * (1 + inf) accepted any such matrix
    # (and each overflowing norm warned, twice on the way to this refusal and once on the acceptance below)
    M = np.array([[1e300, 1e300], [0.0, 1e300]], dtype=complex)
    assert _frob(M) == np.inf
    # the message quotes the defect of the scaled copy, scaled back: it used to read inf
    with pytest.raises(MalformedInputError, match=r"^matrix is not Hermitian: \|\|X - X\*\|\|_F = 1\.414e\+300$"):
        as_hermitian(M)
    with pytest.raises(MalformedInputError, match=r"= 2\.828e\+00$"):  # at ordinary scale, the defect as computed
        as_hermitian([[1.0, 2.0], [0.0, 1.0]])
    H = _hermitian_at(1e300)
    assert _frob(H) == np.inf
    assert np.array_equal(as_hermitian(H), herm_part(H))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
def test_hermiticity_cushion_at_a_scale_whose_norm_overflows(factor, accepted):
    H = _hermitian_at(1e300)
    norm = _frob(H * 2.0 ** -600) * 2.0 ** 600  # ||H||_F, finite in the scaled copy
    E = np.triu(np.ones((4, 4)), 1) / np.sqrt(6.0)  # ||E||_F = 1, and ||E - E*||_F = sqrt(2)
    M = H + E * (factor * DEFAULT_TOL.herm_tol * norm / np.sqrt(2.0))
    assert linalg._is_hermitian(M, DEFAULT_TOL) is accepted


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(4)
    for _ in range(40):
        A = random_psd(rng, 4)
        R = _sqrt_psd(_eigh(A), DEFAULT_TOL)
        assert _frob(R @ R - A) <= 1e-9 * (1.0 + _frob(A))
        assert float(hermitian_eigen(R).values[0]) >= -1e-12


def test_sqrt_psd_keeps_exact_kernel():
    # rank-2 PSD with an exact null vector: the root must share the kernel
    rng = np.random.default_rng(5)
    V = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    A = herm_part(V @ np.diag([1.7, 0.4, 0.0, 0.0]) @ V.conj().T)
    R = _sqrt_psd(_eigh(A), DEFAULT_TOL)
    kernel = V[:, 2:]
    assert opnorm(R @ kernel) <= 1e-12


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(DomainViolationError):
        _sqrt_psd(_eigh(np.diag([1.0, -0.5]).astype(complex)), DEFAULT_TOL)


def test_spectral_apply_matches_scalar_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = random_psd(rng, 3) + 0.5 * np.eye(3)
        S = spectral_apply(A, np.sqrt)
        assert _frob(S @ S - A) <= 1e-10 * (1.0 + _frob(A))
        Inv = spectral_apply(A, lambda x: 1.0 / x)
        assert _frob(Inv - np.linalg.inv(A)) <= 1e-9 * (1.0 + opnorm(Inv))


def test_spectral_apply_guards_domain():
    A = np.diag([1.0, -2.0]).astype(complex)
    with pytest.raises(DomainViolationError):
        spectral_apply(A, np.sqrt, domain=(0.0, np.inf))


@pytest.mark.parametrize("members", [(1,), (2,), (7,), (50,), (3, 2)])
def test_stacked_spectral_apply_matches_single_calls(members):
    rng = np.random.default_rng(len(members) * 100 + members[0])
    for n in range(1, 9):
        S = herm_part(rng.standard_normal(members + (n, n)) + 1j * rng.standard_normal(members + (n, n)))
        for fn, domain in ((lambda x: np.hypot(x, 1.0), None), (lambda x: np.log(x + 20.0), (-20.0, np.inf))):
            stacked = linalg._spectral_apply(_eigh(S), fn, domain, (), DEFAULT_TOL)
            assert stacked.shape == S.shape
            for index in np.ndindex(*members):
                single = linalg._spectral_apply(_eigh(S[index]), fn, domain, (), DEFAULT_TOL)
                assert np.array_equal(stacked[index], single)


def test_stacked_spectral_apply_raises_the_first_failing_members_guard():
    S = np.array([np.diag([1.0, 2.0]), np.diag([-0.5, 1.0]), np.diag([-3.0, 1.0])], dtype=complex)
    with pytest.raises(DomainViolationError) as single:
        linalg._spectral_apply(_eigh(S[1]), np.sqrt, (0.0, np.inf), (), DEFAULT_TOL)
    assert str(single.value) == "eigenvalue -0.5 within margin of domain edge 0.0"
    with pytest.raises(DomainViolationError, match=f"^{single.value}$"):
        linalg._spectral_apply(_eigh(S), np.sqrt, (0.0, np.inf), (), DEFAULT_TOL)


def test_invertibility_margin_and_flag():
    assert invertibility_margin(np.eye(3)) == pytest.approx(1.0)
    assert is_invertible(np.eye(3))
    assert not is_invertible(np.diag([1.0, 0.0]).astype(complex))
    # sigma_min 1e-6 against inv_margin (1 + sigma_max): above 2e-8, below 2e-5
    assert is_invertible(np.diag([1.0, 1e-6]), DEFAULT_TOL)
    assert not is_invertible(np.diag([1.0, 1e-6]), DEFAULT_TOL.replace(inv_margin=1e-5))


def test_norm_helpers():
    A = np.array([[3.0, 4.0], [0.0, 0.0]], dtype=complex)
    assert _frob(A) == pytest.approx(5.0)
    assert opnorm(np.diag([2.0, -7.0]).astype(complex)) == pytest.approx(7.0)
    assert opnorm(np.ones((2, 3))) == pytest.approx(np.sqrt(6.0))  # rectangular matrices stay accepted


# ---------------------------------------------------------------------------
# stacked kernels: member j of every answer is the per-matrix kernel's on S[j]

# eigenvalue placements relative to the rank cutoff psd_tol * (1 + max|lambda|)
NEAR_CUT = (-1.001, -0.999, 0.999, 1.001)


def spectrum_near_cut(rng, n, near):
    """Eigenvalues in [-3, 3], some exactly zero, the first len(near) at near[i] * cut."""
    vals = rng.uniform(-3.0, 3.0, n) * (rng.random(n) < 0.8)
    k = min(len(near), n)
    vals[:k] = np.asarray(near[:k]) * DEFAULT_TOL.psd_tol * (1.0 + np.abs(vals[k:]).max(initial=0.0))
    return vals


def hermitian_near_cut(draw, rng, n):
    V = random_unitary(rng, n)
    near = draw(st.lists(st.sampled_from(NEAR_CUT), max_size=n))
    return herm_part((V * spectrum_near_cut(rng, n, near)) @ V.conj().T)


@st.composite
def hermitian_stacks(draw):
    """(k, n, n) stacks, n from 1 to 10, of Hermitian matrices with eigenvalues on both sides of the cutoff."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.stack([hermitian_near_cut(draw, rng, n) for _ in range(draw(st.integers(1, 6)))])


@settings(max_examples=120, deadline=None)
@given(hermitian_stacks())
def test_stacked_kernels_agree_with_per_matrix_kernels(S):
    n = S.shape[-1]
    counts = [tuple(inertia(H)) for H in S]
    norms = _opnorms(S)
    invertible = _is_invertible(S, DEFAULT_TOL)
    for j, H in enumerate(S):
        assert norms[j] == opnorm(H)
        assert invertible[j] == _is_invertible(H, DEFAULT_TOL)
    for p in range(n + 1):
        want = [c == (p, 0, n - p) for c in counts]
        assert _has_inertia(S, p, DEFAULT_TOL).tolist() == want


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 6), st.sampled_from([1e-8, 1.0, 1e8]),
       st.integers(0, 2**32 - 1))
def test_opnorms_take_the_bits_of_the_two_norm(rows, cols, k, scale, seed):
    # oracle: np.linalg.norm(M, 2), the maximum of the same svd's values
    rng = np.random.default_rng(seed)
    S = scale * (rng.standard_normal((k, rows, cols)) + 1j * rng.standard_normal((k, rows, cols)))
    norms = _opnorms(S)
    assert norms.tobytes() == np.linalg.norm(S, 2, axis=(-2, -1)).tobytes()
    for j, M in enumerate(S):
        assert opnorm(M) == norms[j] == np.linalg.norm(M, 2)


@settings(max_examples=80, deadline=None)
@given(hermitian_stacks(), st.data())
def test_stacked_zero_component_matches_per_matrix(S, data):
    n = S.shape[-1]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A = hermitian_near_cut(data.draw, rng, n)
    S = S * data.draw(st.sampled_from([0.05, 0.3, 1.0]))
    got = _in_zero_component(_range_compression(A, DEFAULT_TOL), S, DEFAULT_TOL)
    assert got.tolist() == [in_zero_component(A, H) for H in S]


# ---------------------------------------------------------------------------
# values-only kernels: _eigvalsh and the norms read off its spectra


@st.composite
def scaled_hermitian_stacks(draw):
    """(k, n, n) stacks, n and k from 1 to 8, of Hermitian matrices scaled by 1e-8 to 1e8, with exact
    zero eigenvalues mixed in (and now and then a zero member)."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(k):
        vals = rng.uniform(-3.0, 3.0, n) * (rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.8, 1.0])))
        V = random_unitary(rng, n)
        members.append(herm_part((V * vals) @ V.conj().T) * 10.0 ** draw(st.floats(-8.0, 8.0)))
    return np.stack(members)


@settings(max_examples=150, deadline=None)
@given(scaled_hermitian_stacks())
def test_stacked_eigvalsh_is_the_per_matrix_call_bit_for_bit(S):
    values = _eigvalsh(S)
    for j, H in enumerate(S):
        assert values[j].tobytes() == _eigvalsh(H).tobytes() == np.linalg.eigvalsh(H).tobytes()
    assert (np.diff(values, axis=-1) >= 0).all()


@settings(max_examples=150, deadline=None)
@given(scaled_hermitian_stacks())
def test_hermitian_opnorms_are_opnorms_to_a_few_ulps(S):
    # oracle: the largest singular value, which for a Hermitian matrix is the largest |lambda|
    n = S.shape[-1]
    got = _hermitian_opnorms(S)
    want = _opnorms(S)
    assert (np.abs(got - want) <= 8 * n * np.finfo(float).eps * want).all()
    for j, H in enumerate(S):
        assert _hermitian_opnorms(H) == got[j]


def _has_inertia_by_eigh(S, p, tol):
    """_has_inertia as it read with eigh's values: the reference for the values-only kernel."""
    values = np.linalg.eigh(S)[0]
    q = values.shape[-1] - p
    cut = tol.psd_tol * (1.0 + np.abs(values).max(axis=-1))
    below = values[..., q - 1] < -cut if q else True
    above = values[..., q] > cut if p else True
    return below & above


@settings(max_examples=150, deadline=None)
@given(scaled_hermitian_stacks())
def test_has_inertia_keeps_its_verdicts_away_from_the_cutoff(S):
    # members whose every eigenvalue is a factor 10 or more from the cutoff psd_tol (1 + max|lambda|)
    values = np.linalg.eigh(S)[0]
    cut = DEFAULT_TOL.psd_tol * (1.0 + np.abs(values).max(axis=-1, keepdims=True))
    clear = ((np.abs(values) < cut / 10.0) | (np.abs(values) > cut * 10.0)).all(axis=-1)
    for p in range(S.shape[-1] + 1):
        got = _has_inertia(S, p, DEFAULT_TOL)
        assert (got[clear] == _has_inertia_by_eigh(S, p, DEFAULT_TOL)[clear]).all()


def test_principal_sqrt_agrees_with_50_digits_on_well_conditioned_draws():
    # oracle: mpmath's square root at 50 digits, of the (AX + I)^{-1} a congruence orbit roots
    rng = np.random.default_rng(61)
    for n in (2, 2, 3, 3, 4, 4):
        A, X = random_hermitian(rng, n), random_hermitian(rng, n, scale=0.3)
        M = np.linalg.inv(A @ X + np.eye(n))
        with mpmath.workdps(50):
            want = np.array(mpmath.sqrtm(mpmath.matrix(M.tolist())).tolist(), dtype=complex)
        got = _principal_sqrt(M)
        assert opnorm(got - want) <= 1e-13 * opnorm(want)
        assert np.all(np.linalg.eigvals(got).real > 0.0)


@pytest.mark.parametrize("M", [
    -np.eye(2),  # the first iterate is 0
    np.array([[0.0, 1.0], [0.0, 0.0]]),  # singular
    np.diag([-2.0, 1.0]),  # a real negative eigenvalue: the iteration wanders on the real line
    np.full((2, 2), np.nan),
], ids=["minus-identity", "nilpotent", "negative-eigenvalue", "nan"])
def test_principal_sqrt_without_a_principal_root_raises_path_search_error(M):
    # never numpy's LinAlgError: congruence_orbit documents PathSearchError, and its suite retries on it
    with pytest.raises(PathSearchError, match="principal square root"):
        _principal_sqrt(M.astype(complex))
