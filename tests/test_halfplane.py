"""Half-plane geometry: cayley transform, rational family, automorphism fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder.config import DEFAULT_TOL
from matorder.errors import DomainViolationError, ModelMismatchError
from matorder.halfplane import (
    FIT_VALIDATION_SEED,
    MobiusAutomorphism,
    _apply_mobius,
    _imag_part,
    apply_mobius,
    cayley,
    fit_canonical,
    in_half_plane,
    inverse_cayley,
    mobius_fix01,
    mobius_fix01_matrix,
    neg_inverse,
    normalize_phase,
)
from matorder.linalg import herm_part, is_invertible, opnorm
from matorder.sampling import (
    _seeded_draws,
    random_contraction,
    random_half_plane,
    random_hermitian,
    random_hermitian_with_spectrum,
    random_invertible,
)


def test_cayley_scalar_closed_form():
    # oracle: i(1+y)/(1-y) for scalar contractions
    for y in (0.0, 0.3, -0.7, 0.2 + 0.4j):
        got = cayley(np.array([[y]]))
        want = 1j * (1 + y) / (1 - y)
        assert abs(got[0, 0] - want) <= 1e-12


def test_cayley_lands_in_half_plane_and_inverts():
    rng = np.random.default_rng(20)
    for _ in range(40):
        Y = random_contraction(rng, 3)
        Z = cayley(Y)
        assert in_half_plane(Z).inside
        back = inverse_cayley(Z)
        assert opnorm(back - Y) <= 1e-10 * (1.0 + opnorm(Y))


def test_inverse_cayley_then_cayley_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(40):
        Z = random_half_plane(rng, 3)
        W = inverse_cayley(Z)
        assert opnorm(W) < 1.0 + 1e-10
        assert opnorm(cayley(W) - Z) <= 1e-10 * (1.0 + opnorm(Z))


def test_cayley_rejects_half_plane_input():
    Z = 2j * np.eye(2)
    with pytest.raises(DomainViolationError):
        cayley(Z)


def test_neg_inverse_is_an_involution_preserving_half_plane():
    rng = np.random.default_rng(22)
    for _ in range(40):
        Z = random_half_plane(rng, 3)
        W = neg_inverse(Z)
        assert in_half_plane(W).inside
        assert opnorm(neg_inverse(W) - Z) <= 1e-10 * (1.0 + opnorm(Z))


def test_imag_part_sign():
    Z = np.array([[1.0 + 2.0j, 0.0], [0.0, 3.0 - 0.5j]])
    lam = np.linalg.eigvalsh(_imag_part(Z))
    assert lam[0] == pytest.approx(-0.5)
    assert lam[-1] == pytest.approx(2.0)


def test_mobius_fix01_fixes_endpoints_and_inverts():
    # oracle: the inverse parameter is r/(r-1); both forms fix 0 and 1
    for r in (-2.0, -0.5, 0.3, 0.9):
        assert mobius_fix01(r, 0.0) == pytest.approx(0.0)
        assert mobius_fix01(r, 1.0) == pytest.approx(1.0)
        s = r / (r - 1.0)
        for x in np.linspace(-0.2, 1.1, 14):
            y = mobius_fix01(r, float(x))
            assert mobius_fix01(s, y) == pytest.approx(float(x), abs=1e-9)


def test_mobius_fix01_matrix_matches_scalar_on_diagonals():
    for r, (lo, hi) in [(-2.0, (-0.4, 1.2)), (0.3, (-1.5, 2.5))]:
        x = np.linspace(lo + 0.05, hi - 0.05, 4)
        X = np.diag(x).astype(complex)
        got = mobius_fix01_matrix(r, X)
        want = np.diag([mobius_fix01(r, float(v)) for v in x])
        assert opnorm(got - want) <= 1e-10


def test_mobius_fix01_matrix_inverse_parameter():
    rng = np.random.default_rng(23)
    for r, (lo, hi) in [(-2.0, (-0.4, 1.2)), (-0.5, (-1.5, 2.0)),
                        (0.3, (-1.5, 2.5)), (0.9, (0.05, 2.0))]:
        s = r / (r - 1.0)
        for _ in range(10):
            X = random_hermitian_with_spectrum(rng, 3, lo + 0.05, hi - 0.05)
            Y = mobius_fix01_matrix(r, X)
            back = mobius_fix01_matrix(s, Y)
            assert opnorm(back - X) <= 1e-9 * (1.0 + opnorm(X))


def _random_mobius(rng, n):
    return MobiusAutomorphism(
        frame=random_invertible(rng, n),
        A=random_hermitian(rng, n) * 0.5,
        B=random_hermitian(rng, n) * 0.5,
        C=random_hermitian(rng, n) * 0.5,
        transpose=bool(rng.random() < 0.5),
    )


def test_apply_mobius_stays_in_half_plane():
    rng = np.random.default_rng(24)
    for _ in range(30):
        m = _random_mobius(rng, 3)
        Z = random_half_plane(rng, 3)
        W = apply_mobius(m, Z)
        assert in_half_plane(W).inside


def test_apply_mobius_matches_manual_steps():
    # oracle: compose the translate / invert / congruence steps by hand
    rng = np.random.default_rng(25)
    m = _random_mobius(rng, 3)
    Z = random_half_plane(rng, 3)
    Zp = Z.T if m.transpose else Z
    inner = np.linalg.inv(np.linalg.inv(Zp - m.B) + m.A)
    want = m.frame @ inner @ m.frame.conj().T + m.C
    assert opnorm(apply_mobius(m, Z) - want) <= 1e-10 * (1.0 + opnorm(want))


def test_normalize_phase_pins_first_entry():
    T = np.exp(1j * 0.7) * np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    N = normalize_phase(T)
    assert abs(np.angle(N.flat[np.flatnonzero(np.abs(N) > 1e-12)[0]])) <= 1e-12


def test_fit_canonical_recovers_planted_map():
    rng = np.random.default_rng(26)
    for transpose in (False, True):
        m = MobiusAutomorphism(
            frame=random_invertible(rng, 2),
            A=random_hermitian(rng, 2) * 0.4,
            B=np.zeros((2, 2)),
            C=np.zeros((2, 2)),
            transpose=transpose,
        )
        fit = fit_canonical(lambda Z: apply_mobius(m, Z), 2)
        for _ in range(10):
            Z = random_half_plane(rng, 2)
            assert opnorm(apply_mobius(fit, Z) - apply_mobius(m, Z)) <= 1e-7 * (1.0 + opnorm(Z))


def test_fit_canonical_flags_non_model_maps():
    rng = np.random.default_rng(27)
    crooked = lambda Z: Z + 0.05 * (Z @ Z)
    with pytest.raises(ModelMismatchError):
        fit_canonical(crooked, 2)


@pytest.mark.parametrize("transpose", [False, True])
def test_apply_mobius_raises_where_an_inverse_fails(transpose):
    rng = np.random.default_rng(28)
    m = MobiusAutomorphism(
        frame=random_invertible(rng, 3),
        A=np.diag([0.8, -1.5, 2.0]).astype(complex),
        B=random_hermitian(rng, 3) * 0.5,
        C=random_hermitian(rng, 3) * 0.5,
        transpose=transpose,
    )
    prime = (lambda M: M.T) if transpose else (lambda M: M)
    # Z' - B = 0: the inner inverse fails
    with pytest.raises(DomainViolationError):
        apply_mobius(m, prime(m.B))
    # Z' - B = -A^{-1}: (Z' - B)^{-1} + A = 0, the outer inverse fails
    with pytest.raises(DomainViolationError):
        apply_mobius(m, prime(m.B - np.linalg.inv(m.A)))


@pytest.mark.parametrize("a", [2e4, 1e5])
def test_fit_canonical_recovers_map_with_large_base(a):
    # A^2 + I has eigenvalues near 1 far below ||A||^2; the frame must not lose them
    m = MobiusAutomorphism(frame=np.diag([np.sqrt(1.0 + a * a), 1.0]), A=np.diag([a, 0.5]))
    fit = fit_canonical(lambda Z: apply_mobius(m, Z), 2)
    assert opnorm(fit.A - m.A) <= 1e-7 * (1.0 + opnorm(m.A))
    assert opnorm(fit.frame - m.frame) <= 1e-7 * (1.0 + opnorm(m.frame))
    assert not fit.transpose


def test_fit_canonical_recovers_planted_map_in_dimension_one():
    m = MobiusAutomorphism(frame=[[1.5 * np.exp(0.3j)]], A=[[-0.7]])
    fit = fit_canonical(lambda Z: apply_mobius(m, Z), 1)
    assert opnorm(fit.A - m.A) <= 1e-10
    assert abs(abs(fit.frame[0, 0]) - 1.5) <= 1e-10
    rng = np.random.default_rng(29)
    for _ in range(5):
        Z = random_half_plane(rng, 1)
        assert opnorm(apply_mobius(fit, Z) - apply_mobius(m, Z)) <= 1e-10 * (1.0 + opnorm(Z))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
def test_stacked_mobius_body_matches_each_member(n, k, transpose, seed):
    rng = np.random.default_rng(seed)
    m = _random_mobius(rng, n)
    m = MobiusAutomorphism(frame=m.frame, A=m.A, B=m.B, C=m.C, transpose=transpose)
    assert np.any(m.B) and np.any(m.C)
    Zs = np.stack([random_half_plane(rng, n) for _ in range(k)])
    got = _apply_mobius(m, Zs, DEFAULT_TOL)
    assert got.shape == Zs.shape
    for j in range(k):
        assert got[j].tobytes() == apply_mobius(m, Zs[j]).tobytes()


@pytest.mark.parametrize("transpose", [False, True])
def test_stacked_mobius_body_raises_where_one_member_fails(transpose):
    rng = np.random.default_rng(30)
    m = MobiusAutomorphism(frame=random_invertible(rng, 3), A=random_hermitian(rng, 3) * 0.5,
                           B=random_hermitian(rng, 3) * 0.5, transpose=transpose)
    Zs = np.stack([random_half_plane(rng, 3) for _ in range(4)])
    Zs[2] = m.B.T if transpose else m.B
    with pytest.raises(DomainViolationError, match=r"^Z' - B is numerically singular$"):
        apply_mobius(m, Zs[2])
    with pytest.raises(DomainViolationError, match=r"^Z' - B is numerically singular$"):
        _apply_mobius(m, Zs, DEFAULT_TOL)


@pytest.mark.parametrize("sigma_min, invertible", [(5e-6, False), (2e-5, True)])
def test_singular_value_gates_agree_with_is_invertible(sigma_min, invertible):
    # sigma_max = 1e3: the relative threshold 1e-8 (1 + 1e3) lies between the two sigma_min,
    # the absolute inv_margin 1e-8 below both
    rotation = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
    W = rotation @ np.diag([1e3, sigma_min]) @ rotation.T
    B = np.diag([1.0, -2.0]).astype(complex)
    m = MobiusAutomorphism(frame=np.eye(2), A=np.zeros((2, 2)), B=B)
    assert is_invertible(W) is invertible
    if invertible:
        apply_mobius(m, W + B)
        neg_inverse(W)
        return
    with pytest.raises(DomainViolationError, match=r"^Z' - B is numerically singular$"):
        apply_mobius(m, W + B)
    with pytest.raises(DomainViolationError, match="numerically singular"):
        neg_inverse(W)


@pytest.mark.parametrize("dim", [1, 3])
def test_fit_validates_at_the_seeded_draws_made_once_per_dimension(dim):
    rng = np.random.default_rng(32)
    m = MobiusAutomorphism(frame=random_invertible(rng, dim), A=random_hermitian(rng, dim) * 0.4)
    seen = []
    fit_canonical(lambda Z: seen.append(Z) or apply_mobius(m, Z), dim)
    points = _seeded_draws(random_half_plane, FIT_VALIDATION_SEED, dim, 20)
    rng = np.random.default_rng(FIT_VALIDATION_SEED)
    assert points.tobytes() == np.stack([random_half_plane(rng, dim) for _ in range(20)]).tobytes()
    assert np.stack(seen[-20:]).tobytes() == points.tobytes()
    assert not points.flags.writeable
    assert _seeded_draws(random_half_plane, FIT_VALIDATION_SEED, dim, 20) is points


def test_fit_canonical_rejects_a_map_that_departs_only_at_the_validation_points():
    # the planted map at iI and at every congruence probe iI + E, another map elsewhere
    rng = np.random.default_rng(31)
    n = 2
    m = MobiusAutomorphism(frame=random_invertible(rng, n), A=random_hermitian(rng, n) * 0.4)
    other = MobiusAutomorphism(frame=m.frame, A=m.A + 0.3 * np.eye(n))
    eye = np.eye(n, dtype=complex)
    E11, H, K = (np.zeros((n, n), dtype=complex) for _ in range(3))
    E11[0, 0] = 1.0
    H[0, 1], H[1, 0] = 1.0, 1.0
    K[0, 1], K[1, 0] = 1j, -1j
    probes = [1j * eye] + [1j * eye + E for E in (E11, H, K)]

    def evaluator(Z):
        planted = any(np.array_equal(Z, P) for P in probes)
        return apply_mobius(m if planted else other, Z)

    with pytest.raises(ModelMismatchError, match="fitted automorphism residual"):
        fit_canonical(evaluator, n)
    # the planted map alone fits
    fit_canonical(lambda Z: apply_mobius(m, Z), n)


def test_membership_moves_with_the_inv_margin():
    Z = 0.5j * np.eye(2)  # imaginary part 0.5 I: margin 0.5
    assert in_half_plane(Z, tol=DEFAULT_TOL) == (True, 0.5)
    assert in_half_plane(Z, tol=DEFAULT_TOL.replace(inv_margin=1.0)) == (False, 0.5)


@pytest.mark.parametrize("small", [1e-2, 1e-3, 1.5e-4])
def test_fit_canonical_fits_a_frame_with_a_small_singular_value(small):
    # the root of Im W took psd_tol's rank cut, which zeroed the eigenvalue small^2 of Im W = T T*, and the fit
    # ended in numpy's LinAlgError below small = 1e-2
    T = np.diag([10.0, small]).astype(complex)
    fit = fit_canonical(lambda Z: T @ Z @ T.conj().T, 2)
    Z = random_half_plane(np.random.default_rng(8), 2)
    want = T @ Z @ T.conj().T
    assert opnorm(apply_mobius(fit, Z) - want) <= 1e-9 * (1.0 + opnorm(want))


@pytest.mark.parametrize("psd_tol", [0.1, 0.5, 1e6])
def test_fit_canonical_takes_no_rank_cut_at_a_wide_psd_tol(psd_tol):
    fit = fit_canonical(lambda Z: Z, 2, tol=DEFAULT_TOL.replace(psd_tol=psd_tol))
    assert np.array_equal(fit.frame, np.eye(2)) and not fit.A.any() and not fit.transpose
