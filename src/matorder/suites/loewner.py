"""Suites of scalar matrix monotonicity: Loewner matrices and integral representations."""

from __future__ import annotations

import math

import numpy as np

from ..halfplane import _in_half_plane
from ..linalg import _eigh, _opnorms, _spectral_apply, herm_part
from ..monotone import (PickRepresentation, ScalarFunction, _pick_matrix, builtin_function, is_matrix_monotone,
                        loewner_matrix, pick_eval)
from ..sampling import random_half_plane, random_hermitian_with_spectrum, random_psd
from . import _gap, _suite
from .draws import _first, _rand_dim


@_suite(1000, "divided-difference matrices and direct pairs agree on monotonicity",
        min_sqrt_loewner_eigenvalue=math.inf)
def _suite_loewner_consistency(rng, trials, tol, rec):
    per_order = max(trials // 5, 20)

    def monotone(f, order, k):
        return is_matrix_monotone(f, order, trials=k, seed=int(rng.integers(0, 2**31)), tol=tol)

    for order in range(2, 7):
        report = monotone(builtin_function("sqrt"), order, per_order)
        rec.keep("min_sqrt_loewner_eigenvalue", report.min_loewner_eigenvalue, min)
        rec.check(report.passed and report.conclusive, order,
                  f"sqrt failed the monotonicity test at order {order}")

    for name in ("log", "fp:0.25", "fp:0.5", "fp:0.75", "rational:0.5"):
        rep = monotone(builtin_function(name), 3, max(trials // 10, 20))
        rec.check(rep.passed, 0, f"{name} failed the monotonicity test")

    square = builtin_function("square")
    sq_report = monotone(square, 2, max(trials // 5, 50))
    rec.check(not sq_report.passed and sq_report.conclusive, 0, "square slipped through at order 2")
    if sq_report.witness_nodes is not None:
        lm = loewner_matrix(square, sq_report.witness_nodes)
        rec.check(lm.min_eigenvalue < 0.0, 0, "square witness nodes are not a refutation")
    rec.check(sq_report.witness_nodes is not None, 0, "square refutation carries no witness")

    sub = np.random.default_rng(int(rng.integers(0, 2**31)))
    nodes = _first(400, lambda: np.sort(sub.uniform(0.05, 4.0, size=2)),
                   lambda x: x[1] - x[0] > 1e-6 and loewner_matrix(square, x).min_eigenvalue < -1e-10)

    def ordered_pair():
        X = random_hermitian_with_spectrum(sub, 2, 0.05, 4.0)
        return X, herm_part(X + random_psd(sub, 2))

    pair = _first(400, ordered_pair, lambda XY: _gap(XY[0] @ XY[0], XY[1] @ XY[1]) < -1e-10)
    rec.check(nodes is not None and pair is not None, 0,
              "the two refutation routes disagree about the square function")

    fuzzy = ScalarFunction(math.sqrt, (0.0, math.inf), name="sqrt-table", approximate=True)
    rep = monotone(fuzzy, 2, 40)
    rec.check(not rep.conclusive, 0, "approximate function produced a conclusive verdict")


def _random_pick(rng: np.random.Generator) -> PickRepresentation:
    a = float(rng.uniform(-3.0, 1.0))
    b = a + float(rng.uniform(0.5, 3.0))
    atoms = []
    for _ in range(int(rng.integers(0, 4))):
        side = rng.random() < 0.5
        y = a - float(rng.uniform(0.05, 2.0)) if side else b + float(rng.uniform(0.05, 2.0))
        atoms.append((y, float(rng.uniform(0.1, 2.0))))
    return PickRepresentation(
        c=float(rng.normal()),
        d=float(rng.uniform(0.0, 1.5)),
        atoms=tuple(atoms),
        interval=(a, b),
    )


@_suite(200, "integral-representation evaluation: half-plane margin, spectral agreement",
        min_half_plane_margin=math.inf)
def _suite_pick_evaluation(rng, trials, tol, rec):
    for t in range(trials):
        rep = _random_pick(rng)
        if rep.d == 0.0 and not rep.atoms:
            continue
        n = _rand_dim(rng, 2, 4)
        Z = random_half_plane(rng, n)
        out = pick_eval(rep, Z, tol)
        margin = rec.keep("min_half_plane_margin", _in_half_plane(out, tol).margin, min)
        rec.check(margin > 0.0, t, f"half-plane image margin {margin:.3e} <= 0", Z=Z)
        a, b = rep.interval
        pad = 0.05 * (b - a)
        X = random_hermitian_with_spectrum(rng, n, a + pad, b - pad)
        direct = pick_eval(rep, X, tol)
        f = rep.scalar_function()
        via_spectrum = _spectral_apply(_eigh(X), f, f.domain, (), tol)
        rec.check_residual(_opnorms(direct - via_spectrum) / (1.0 + _opnorms(direct)), 1e-9,
                           t, "matrix value disagrees with the spectral route", X=X)
        x = float(rng.uniform(a + pad, b - pad))
        scalar = pick_eval(rep, x, tol)
        rec.check_residual(abs(scalar - _pick_matrix(rep, np.array([[x]]), tol)[0, 0]) / (1.0 + abs(scalar)), 1e-12,
                           t, "scalar evaluation mismatch")
        if t % 20 == 0:
            mono = is_matrix_monotone(f, 2, trials=30, seed=int(rng.integers(0, 2**31)), tol=tol)
            rec.check(mono.passed, t, "a positive representation failed the monotonicity test")
    atom = PickRepresentation(c=0.0, d=0.0, atoms=((0.0, 1.0),), interval=(0.4, 2.5))
    for t in range(20):
        X = random_hermitian_with_spectrum(rng, 3, 0.5, 2.4)
        rec.check_residual(_opnorms(pick_eval(atom, X, tol) + np.linalg.inv(X)) / (1.0 + _opnorms(X)),
                           1e-10, t, "atom at the origin is not the negated inverse", X=X)
