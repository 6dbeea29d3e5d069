"""Suites of the Hermitian kernel and the Loewner order."""

from __future__ import annotations

import math

import numpy as np

from ..linalg import (EigenDecomposition, _eigh, _eigvalsh, _frob, _hermitian_opnorms, _hnorm, _jacobi_eigen,
                      _order_verdict, _rel_hermitian, _spectra_norms, _spectral_apply, _spectrum_inertia, _sqrt_psd,
                      herm_part, hermitian_eigen)
from ..order import OperatorInterval, affine_interval_iso, interval_contains, projection_dominance_radius, rank_one_leq
from ..sampling import (EFFECT_SPECTRUM, _spectrum_draws, _with_spectra, complex_gaussian, random_hermitian,
                        random_invertible, random_psd)
from . import _check_order, _gap, _in_interval, _suite
from .draws import (_groups, _indefinite_step_draws, _indefinite_steps, _psd_step_draws, _psd_steps, _trials,
                    _with_spectrum)


@_suite(120, "eigendecomposition residual and unitarity, LAPACK at dims up to 16, Jacobi up to 8")
def _suite_eigen_residual(rng, trials, tol, rec):
    sizes = [2, 3, 4, 5, 6, 8, 12, 16]
    draws = [random_hermitian(rng, sizes[t % len(sizes)], scale=10.0 ** rng.uniform(-1.0, 1.0)) for t in range(trials)]
    # jacobi (O(n^4)) on the matrices up to n = 8, the sizes the other suites hand it, in one call per dimension
    jacobi = {}
    for _, ts, (X,) in _groups({t: (X.shape[0], X) for t, X in enumerate(draws) if X.shape[0] <= 8}):
        jacobi.update(zip(ts, map(EigenDecomposition, *_jacobi_eigen(X, tol))))
    for t, X in enumerate(draws):
        n = X.shape[0]
        engines = [("numpy", hermitian_eigen(X, tol))] + ([("jacobi", jacobi[t])] if t in jacobi else [])
        for engine, decomp in engines:
            V, vals = decomp.vectors, decomp.values
            res = _frob(X @ V - V * vals) / (1.0 + _frob(X))
            rec.check_residual(res, tol.eig_tol, t, f"{engine} eigen residual", X=X)
            unit = _frob(V.conj().T @ V - np.eye(n))
            rec.check_residual(unit, tol.eig_tol * n, t, f"{engine} eigenvector unitarity", X=X)
            rec.check(bool(np.all(np.diff(vals) >= 0)), t, f"{engine} eigenvalues not ascending", X=X)
        if t == 0:
            D = np.diag([3.0, -1.0, 0.0, 7.5]).astype(complex)
            got = hermitian_eigen(D, tol).values
            rec.check_residual(float(np.max(np.abs(got - np.sort(np.diag(D).real)))), tol.eig_tol,
                               t, "diagonal eigenvalues", X=D)


@_suite(300, "inertia invariance under congruence and scaling")
def _suite_inertia_congruence(rng, trials, tol, rec):
    scales = (1e-3, 1.0, 1e3)
    wants, draws = [], {}
    for t, n in _trials(rng, trials):
        n_pos = int(rng.integers(0, n + 1))
        n_zero = int(rng.integers(0, n - n_pos + 1))
        n_neg = n - n_pos - n_zero
        vals = np.concatenate([
            rng.uniform(0.5, 3.0, size=n_pos),
            np.zeros(n_zero),
            -rng.uniform(0.5, 3.0, size=n_neg),
        ])
        wants.append((n_pos, n_zero, n_neg))
        draws[t] = n, vals, random_invertible(rng, n, max_cond=30.0)
    rows = {}
    for n, ts, (vals, S) in _groups(draws):
        X = herm_part(S @ (vals[:, :, None] * np.eye(n)) @ S.conj().swapaxes(-1, -2))
        # the spectrum of X (as 1 X), then those of the multiples c X that inertia(c * X) reads
        spectra = _eigvalsh(herm_part(np.array((1.0, *scales))[:, None, None] * X[:, None]))
        rows.update(zip(ts, zip(S, X, spectra)))
    for t, want in enumerate(wants):
        S, X, spectra = rows[t]
        got = tuple(_spectrum_inertia(spectra[0], tol))
        rec.check(got == want, t, f"congruence changed inertia {want} -> {got}", X=X, S=S)
        for c, values in zip(scales, spectra[1:]):
            rec.check(tuple(_spectrum_inertia(values, tol)) == got, t, f"inertia not scale invariant at c={c}", X=X)


@_suite(300, "semidefinite order: reflexivity, antisymmetry, negation flip, strictness")
def _suite_order_antisymmetry(rng, trials, tol, rec):
    # per trial: X, a PSD step P from X (strict at even trials), a second point Y and an indefinite step D
    draws = {}
    for t, n in _trials(rng, trials):
        draws[t] = ((n, t % 2 == 0), rng.uniform(0.5, 2.0), complex_gaussian(rng, n, n), *_psd_step_draws(rng, n),
                    complex_gaussian(rng, n, n), *_indefinite_step_draws(rng, n))
    rows = {}
    for (n, strict), ts, (scale, GX, factor, values, GP, GY, *indefinite) in _groups(draws):
        X = herm_part(GX) * scale[:, None, None]
        normX = _hermitian_opnorms(X)
        P = _psd_steps(normX, strict, factor, values, GP)
        Y = herm_part(GY)
        D = _indefinite_steps(normX, *indefinite)
        XP = X + P
        # the spectra of Y - X that each comparison below reads, and those of P and X + P
        spectra = _eigvalsh(np.stack([XP - X, P, XP, X - XP, X - X, Y - X, -X - -Y, (X + D) - X], axis=1))
        rows.update(zip(ts, zip(X, P, Y, D, normX, spectra)))
    for t, (X, P, Y, D, normX, spectra) in sorted(rows.items()):
        step, min_p, normXP = _order_verdict(spectra[0], tol), float(spectra[1, 0]), _spectra_norms(spectra[2])
        rec.check(step.leq, t, "X <= X + PSD failed", X=X, P=P)
        if min_p > 1e-4 * (1.0 + float(normX + normXP)):
            rec.check(step.lt, t, "strict step not detected as strict", X=X, P=P)
            rec.check(not _order_verdict(spectra[3], tol).leq, t, "antisymmetry violated", X=X, P=P)
        rec.check(_order_verdict(spectra[4], tol).equal, t, "X == X failed", X=X)
        rec.check(_order_verdict(spectra[5], tol).leq == _order_verdict(spectra[6], tol).leq, t,
                  "negation flip mismatch", X=X, Y=Y)
        rec.check(_order_verdict(spectra[7], tol).incomparable, t, "indefinite step not incomparable", X=X, D=D)


@_suite(200, "functional calculus composes and matches across engines")
def _suite_spectral_composition(rng, trials, tol, rec):
    bound = 1e-9
    hyperbola = lambda x: math.sqrt(x * x + 1.0)
    # per trial: X = random_hermitian(rng, n, scale=...) and P = herm_part(random_psd(rng, n) + 0.3 I)
    draws = {}
    for t, n in _trials(rng, trials):
        draws[t] = n, rng.uniform(0.5, 2.0), complex_gaussian(rng, n, n), *_spectrum_draws(rng, n, 0.0, 1.0, 1)
    rows = {}
    for n, ts, (scale, G, values, GP) in _groups(draws):
        X = herm_part(G) * scale[:, None, None]
        P = herm_part(_with_spectra(values[:, 0], GP[:, 0]) + 0.3 * np.eye(n))
        # one eigh of the group for each image decomposed again; the guard of sqrt(x + 1) runs before log's,
        # so a tolerance that breaks both raises the error trial 0 raised first in a per-trial loop
        vals, vecs = _eigh(np.stack([X, P], axis=1))
        X_eigen = EigenDecomposition(vals[:, 0], vecs[:, 0])
        one_step = _spectral_apply(X_eigen, hyperbola, None, (), tol)
        inner = _spectral_apply(X_eigen, lambda x: x * x, None, (), tol)
        two_step = _spectral_apply(_eigh(inner), lambda x: math.sqrt(x + 1.0), (-0.5, math.inf), (), tol)
        log_p = _spectral_apply(EigenDecomposition(vals[:, 1], vecs[:, 1]), math.log, (0.0, math.inf), (), tol)
        back = _spectral_apply(_eigh(log_p), math.exp, None, (), tol)
        alt = _spectral_apply(_jacobi_eigen(X, tol), hyperbola, None, (), tol)
        rows.update(zip(ts, zip(X, P, _rel_hermitian(two_step, one_step), _rel_hermitian(back, P),
                                _rel_hermitian(alt, one_step))))
    for t, (X, P, composition, identity, engines) in sorted(rows.items()):
        rec.check_residual(composition, bound, t, "sqrt(x^2+1) composition", X=X)
        rec.check_residual(identity, bound, t, "exp(log(P)) identity", P=P)
        # Jacobi stops at eig_tol ||X||_F / 10, so the engines agree to 10 eig_tol (1e-9 at the default eig_tol)
        rec.check_residual(engines, 10 * tol.eig_tol, t, "engine cross-check", X=X)


@_suite(500, "rank-one domination criterion against the direct eigenvalue oracle", skipped_borderline=0)
def _suite_rank_one_trace(rng, trials, tol, rec):
    for t, n in _trials(rng, trials):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nv2 = float(np.vdot(v, v).real)
        c = rng.uniform(0.1, 1.4) / nv2
        R = herm_part(c * np.outer(v, v.conj()))
        kind = t % 3
        if kind == 0:
            A = herm_part(np.outer(v, v.conj()) / nv2)
            if abs(c * nv2 - 1.0) < 1e-3:
                rec.count("skipped_borderline")
                continue
            rec.check(rank_one_leq(R, A, tol) == (c * nv2 <= 1.0), t,
                      "projection trace rule mismatch", R=R, A=A)
            continue
        if kind == 1:
            A = herm_part(random_psd(rng, n) + 0.1 * np.eye(n))
        else:
            vals = np.concatenate([rng.uniform(0.2, 2.0, size=n - 1), [0.0]])
            A = _with_spectrum(rng, vals)
            if t % 2 == 0:
                w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                u = A @ w
                nu = float(np.linalg.norm(u))
                if nu > 1e-8:
                    u = u / nu
                    cc = rng.uniform(0.1, 1.4)
                    R = herm_part(cc * np.outer(u, u.conj()))
        gap = _gap(R, A)
        scale = 1.0 + _hnorm(A, R)
        if abs(gap) <= 1e-6 * scale:
            rec.count("skipped_borderline")
            continue
        rec.check(rank_one_leq(R, A, tol) == (gap >= 0.0), t,
                  f"rank-one domination mismatch (gap {gap:.3e})", R=R, A=A)


@_suite(200, "affine interval isomorphism: endpoints, inverse, order both ways")
def _suite_interval_iso(rng, trials, tol, rec):
    # per trial: L, the gap D = U - L (positive definite at even trials, of rank r < n at odd ones), a random
    # effect E1, and the weight and effect of the step E2 = E1 + c G2 R G2, G2 = (I - E1)^(1/2)
    draws = {}
    for t, n in _trials(rng, trials, 2, 5):
        L = complex_gaussian(rng, n, n)
        if t % 2 == 0:
            gap = [x[0] for x in _spectrum_draws(rng, n, 0.0, 1.0, 1)]
        else:
            r = int(rng.integers(1, n))
            gap = np.concatenate([rng.uniform(0.3, 2.0, size=r), np.zeros(n - r)]), complex_gaussian(rng, n, n)
        e1, g1 = _spectrum_draws(rng, n, *EFFECT_SPECTRUM, 1)
        c = rng.uniform(0.2, 0.8)
        r, g2 = _spectrum_draws(rng, n, *EFFECT_SPECTRUM, 1)
        draws[t] = (n, t % 2 == 0), L, *gap, e1[0], g1[0], c, r[0], g2[0]
    rows = {}
    for (n, definite), ts, (L, values, G, e1, g1, c, r, g2) in _groups(draws):
        L = herm_part(L)
        D, E1, R = _with_spectra(np.stack([values, e1, r]), np.stack([G, g1, g2]))
        if definite:
            D = herm_part(D + 0.2 * np.eye(n))
        U = herm_part(L + D)
        vals, vecs = _eigh(np.stack([D, np.eye(n) - E1], axis=1))
        Dh, G2 = (np.stack([_sqrt_psd(EigenDecomposition(vals[j, i], vecs[j, i]), tol) for j in range(len(ts))])
                  for i in (0, 1))
        X1 = herm_part(L + Dh @ E1 @ Dh)
        E2 = herm_part(E1 + c[:, None, None] * G2 @ R @ G2)
        X2 = herm_part(L + Dh @ E2 @ Dh)
        beyond = herm_part(U + (0.1 * (1.0 + _hermitian_opnorms(U)))[:, None, None] * np.eye(n))
        rows.update(zip(ts, zip(L, U, X1, X2, beyond)))
    for t, (L, U, X1, X2, beyond) in sorted(rows.items()):
        iso = affine_interval_iso(L, U, tol)
        eye_r = np.eye(iso.rank)
        rec.check_residual(_hnorm(iso.forward(L, tol)), 1e-10, t, "forward(lower) != 0", L=L, U=U)
        rec.check_residual(_hnorm(iso.forward(U, tol) - eye_r), 1e-10, t, "forward(upper) != I", L=L, U=U)
        F1 = iso.forward(X1, tol)
        rec.check(_in_interval(F1, -1e-8, 1.0 + 1e-8), t,
                  "forward image leaves the effect interval", X=X1)
        rec.check_residual(_rel_hermitian(iso.backward(F1, tol), X1), 1e-9, t, "backward(forward) identity", X=X1)
        _check_order(rec, t, F1, iso.forward(X2, tol), tol, "forward pair", X1=X1, X2=X2)
        J = OperatorInterval(L, U)
        rec.check(interval_contains(J, X1, tol), t, "sampled point not contained", X=X1)
        rec.check(not interval_contains(J, beyond, tol), t, "point beyond upper reported contained", U=U)


@_suite(200, "closed-form dominance radius against eigenvalue checks in dim 2", skipped_borderline=0)
def _suite_projection_dominance(rng, trials, tol, rec):
    # per trial: weights c < d, a unit vector v (normalized alone: a norm along an axis has other bits) and the
    # coefficients of u = cos(alpha) v + sin(alpha) phase w, w the unit vector orthogonal to v
    draws = []
    for t in range(trials):
        c = rng.uniform(0.0, 0.9)
        d = rng.uniform(c + 0.02, 1.0)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alpha = rng.uniform(0.0, math.pi / 2.0)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        draws.append((c, d, v / np.linalg.norm(v), math.cos(alpha), math.sin(alpha) * phase, abs(math.sin(alpha))))
    cs, ds, v, cosines, rotations, _ = (np.array(field) for field in zip(*draws))
    w = np.stack([-np.conj(v[:, 1]), np.conj(v[:, 0])], axis=1)
    u = cosines[:, None] * v + rotations[:, None] * w
    P, Q, E = (x[:, :, None] * x.conj()[:, None, :] for x in (v, w, u))
    # outer products are Hermitian only up to rounding: finish them as a draw
    spectra = _eigvalsh(herm_part(P + cs[:, None, None] * Q) - herm_part(ds[:, None, None] * E))
    for t, (c, d, *_, dist) in enumerate(draws):
        radius = projection_dominance_radius(c, d)
        if abs(dist - radius) < 1e-4:
            rec.count("skipped_borderline")
            continue
        if _order_verdict(spectra[t], tol).leq != (dist <= radius):
            rec.fail(t, f"dominance mismatch at distance {dist:.6f}, radius {radius:.6f}", E=E[t], P=P[t])
