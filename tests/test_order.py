"""Loewner order comparisons, intervals, and dominance against eigenvalue oracles."""

import numpy as np
import pytest

from matorder.config import DEFAULT_TOL
from matorder.errors import DomainViolationError, MalformedInputError
from matorder.linalg import herm_part, loewner_compare, opnorm
from matorder.order import (
    AffineIntervalIso,
    OperatorInterval,
    affine_interval_iso,
    interval_contains,
    projection_dominance_radius,
    rank_one_leq,
)
from matorder.sampling import random_hermitian, random_psd


def test_compare_agrees_with_direct_eigenvalues():
    # oracle: numpy.linalg.eigvalsh on the gap, independent decision path
    rng = np.random.default_rng(10)
    agree = 0
    for _ in range(200):
        X = random_hermitian(rng, 4)
        Y = random_hermitian(rng, 4)
        v = loewner_compare(X, Y)
        lam = np.linalg.eigvalsh(herm_part(Y - X))
        scale = 1.0 + max(opnorm(X), opnorm(Y))
        oracle_leq = float(lam[0]) >= -1e-8 * scale
        if abs(float(lam[0])) > 1e-6 * scale:
            assert v.leq == oracle_leq
            agree += 1
    assert agree > 150


def test_compare_reflexive_and_antisymmetric():
    rng = np.random.default_rng(11)
    X = random_hermitian(rng, 3)
    assert loewner_compare(X, X).leq
    assert not loewner_compare(X, X).lt
    Y = X + random_psd(rng, 3) + 0.1 * np.eye(3)
    assert loewner_compare(X, Y).lt
    assert not loewner_compare(Y, X).leq


def test_compare_flips_under_negation():
    rng = np.random.default_rng(12)
    X = random_hermitian(rng, 3)
    Y = X + random_psd(rng, 3)
    assert loewner_compare(X, Y).leq
    assert loewner_compare(-Y, -X).leq


def test_compare_reads_its_cushions_from_tol():
    # Y - X = diag(-1e-7, 1), scale 2: below -psd_tol * scale at the default 1e-8, inside it at 1e-6
    X, Y = np.zeros((2, 2)), np.diag([-1e-7, 1.0])
    assert not loewner_compare(X, Y).leq
    assert loewner_compare(X, Y, DEFAULT_TOL.replace(psd_tol=1e-6)).leq
    # Y - X = diag(1e-7, 1): strict at the default inv_margin 1e-8, not at 1e-3
    Y = np.diag([1e-7, 1.0])
    assert loewner_compare(X, Y).lt
    assert not loewner_compare(X, Y, DEFAULT_TOL.replace(inv_margin=1e-3)).lt


def test_interval_contains_closed_and_open():
    low = np.zeros((2, 2))
    up = np.eye(2)
    closed = OperatorInterval(lower=low, upper=up)
    assert interval_contains(closed, np.zeros((2, 2)))
    assert interval_contains(closed, 0.5 * np.eye(2))
    assert not interval_contains(closed, 1.5 * np.eye(2))
    open_iv = OperatorInterval(lower=low, upper=up, lower_closed=False, upper_closed=False)
    assert not interval_contains(open_iv, np.zeros((2, 2)))
    assert interval_contains(open_iv, 0.5 * np.eye(2))


def test_interval_rejects_inverted_bounds():
    with pytest.raises(MalformedInputError):
        OperatorInterval(lower=np.eye(2), upper=np.zeros((2, 2)))


def test_rank_one_leq_matches_gap_eigenvalues():
    # oracle: min eigenvalue of A - R decides R <= A directly
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(120):
        A = random_psd(rng, 3) + 0.2 * np.eye(3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v *= rng.uniform(0.2, 1.2) / np.linalg.norm(v)
        R = np.outer(v, v.conj())
        lam = float(np.linalg.eigvalsh(herm_part(A - R))[0])
        scale = 1.0 + opnorm(A)
        if abs(lam) < 1e-6 * scale:
            continue
        assert rank_one_leq(R, A) == (lam > 0), lam
        checked += 1
    assert checked > 80


def test_rank_one_leq_respects_range_condition():
    # R pointing out of range(A) can never sit below A
    A = np.diag([1.0, 0.0]).astype(complex)
    R_in = np.diag([0.5, 0.0]).astype(complex)
    R_out = np.diag([0.0, 0.5]).astype(complex)
    assert rank_one_leq(R_in, A)
    assert not rank_one_leq(R_out, A)


def test_rank_one_leq_reads_the_trace_on_the_range_of_a_singular_base():
    # oracle: tr(pinv(A) R) <= 1 with numpy's pseudo-inverse, for R inside the range of a rank-3 A
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(60):
        V = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
        A = herm_part(V @ np.diag([2.0, 1.0, 0.5, 0.0, 0.0]) @ V.conj().T)
        v = V[:, :3] @ (rng.normal(size=3) + 1j * rng.normal(size=3))
        R = herm_part(np.outer(v, v.conj()) * rng.uniform(0.05, 0.5))
        trace = float(np.trace(np.linalg.pinv(A, hermitian=True) @ R).real)
        if abs(trace - 1.0) < 1e-6:
            continue
        assert rank_one_leq(R, A) == (trace <= 1.0), trace
        checked += 1
    assert checked > 50


def test_rank_one_leq_rejects_higher_rank():
    with pytest.raises(MalformedInputError):
        rank_one_leq(np.eye(2), np.eye(2))


def test_affine_interval_iso_endpoints_and_inverse():
    rng = np.random.default_rng(14)
    for _ in range(25):
        L = random_hermitian(rng, 3)
        U = L + random_psd(rng, 3) + 0.3 * np.eye(3)
        iso = affine_interval_iso(L, U)
        r = iso.rank
        assert opnorm(iso.forward(L)) <= 1e-9
        assert opnorm(iso.forward(U) - np.eye(r)) <= 1e-9
        t = rng.uniform(0.2, 0.8)
        X = herm_part(L + t * (U - L))
        back = iso.backward(iso.forward(X))
        assert opnorm(back - X) <= 1e-9 * (1.0 + opnorm(X))


def test_affine_interval_iso_preserves_order():
    rng = np.random.default_rng(15)
    L = random_hermitian(rng, 3)
    U = L + random_psd(rng, 3) + 0.5 * np.eye(3)
    iso = affine_interval_iso(L, U)
    X = herm_part(L + 0.3 * (U - L))
    Y = herm_part(X + 0.2 * (U - L))
    assert loewner_compare(iso.forward(X), iso.forward(Y)).leq


def test_projection_dominance_radius_closed_form():
    # oracle: eigenvalue scan over tilted rank-one projections in dim 2.
    # d*E <= P + c*Q must hold exactly when the tilt |sin a| <= radius.
    P = np.diag([1.0, 0.0])
    Q = np.diag([0.0, 1.0])
    for c, d in [(0.25, 0.6), (0.1, 0.8), (0.4, 0.5)]:
        radius = projection_dominance_radius(c, d)
        for ang in np.linspace(0.0, np.pi / 2, 121):
            tilt = abs(np.sin(ang))
            if abs(tilt - radius) < 1e-3:
                continue
            u = np.array([np.cos(ang), np.sin(ang)])
            E = np.outer(u, u)
            lam = float(np.linalg.eigvalsh(P + c * Q - d * E)[0])
            assert (lam >= -1e-9) == (tilt <= radius), (c, d, ang, lam)


def test_projection_dominance_radius_rejects_bad_weights():
    with pytest.raises(DomainViolationError):
        projection_dominance_radius(0.8, 0.3)
