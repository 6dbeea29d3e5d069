"""Suites of the matrix upper half-plane and its Mobius automorphisms."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..config import ToleranceConfig
from ..errors import DomainViolationError, ModelMismatchError
from ..halfplane import (MobiusAutomorphism, _apply_mobius, _fit_canonical, _in_half_plane, cayley, inverse_cayley,
                         mobius_fix01, mobius_fix01_matrix, neg_inverse)
from ..linalg import _is_invertible, _opnorms, _rel, _rel_hermitian, herm_part
from ..sampling import (_half_plane_stack, random_contraction, random_half_plane, random_hermitian,
                        random_hermitian_with_spectrum, random_invertible)
from . import INVOLUTION_MARGIN, _suite
from .draws import _rand_dim, _trials


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
