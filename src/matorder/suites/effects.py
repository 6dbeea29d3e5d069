"""Suites of the effect algebra's automorphisms and embeddings."""

from __future__ import annotations

import numpy as np

from ..classify import (EffectAutoSpec, EffectEmbeddingSpec, FpqSpec, _effect_automorphism, _effect_embedding,
                        effect_embedding_map, endpoint_continuity, rational_effect_factors)
from ..linalg import _hnorm, _loewner_compare, _rel_hermitian, herm_part, invertibility_margin
from ..sampling import (random_contraction, random_effect, random_hermitian, random_hermitian_with_spectrum,
                        random_invertible, random_psd)
from . import _check_order, _in_interval, _suite
from .draws import _effect_pair, _first, _indefinite_step, _trials


def _random_effect_map(rng: np.random.Generator, n: int, frame_form: bool):
    """(map, fpq) of a random effect automorphism: the frame form with fpq None, or
    the fpq family's FpqSpec and its frame form."""
    if frame_form:
        return EffectAutoSpec(frame=random_invertible(rng, n, max_cond=10.0), transpose=bool(rng.integers(2))), None
    T = _first(100, lambda: random_contraction(rng, n),
               lambda T: invertibility_margin(T) > 0.05)
    if T is None:
        raise RuntimeError("failed to draw a bijective contraction")
    fpq = FpqSpec(p=float(rng.uniform(0.15, 0.85)), q=float(-rng.uniform(0.3, 3.0)),
                  frame=T, transpose=bool(rng.integers(2)))
    return fpq.automorphism, fpq


@_suite(500, "effect automorphisms fix 0 and I and stay inside the interval")
def _suite_effect_fixpoints(rng, trials, tol, rec):
    for t, n in _trials(rng, trials, 2, 5):
        eye = np.eye(n)
        m, _ = _random_effect_map(rng, n, t % 2 == 0)
        X = random_effect(rng, n)
        F0, FI, FX = _effect_automorphism(m, np.stack([np.zeros((n, n)), eye, X]), tol)
        rec.check_residual(_hnorm(F0), 1e-10, t, "zero endpoint moved", frame=m.frame)
        rec.check_residual(_hnorm(FI - eye), 1e-10, t, "identity endpoint moved", frame=m.frame)
        rec.check(_in_interval(FX, -1e-8, 1.0 + 1e-8), t,
                  "image left the effect interval", X=X, frame=m.frame)


@_suite(200, "effect automorphisms preserve order both ways; four-factor route agrees")
def _suite_effect_order(rng, trials, tol, rec):
    for t, n in _trials(rng, trials, 2, 5):
        m, fpq = _random_effect_map(rng, n, t % 2 == 0)
        strict = t % 4 == 1
        X, Y = _effect_pair(rng, n, tol, strict=strict)
        D = _first(60, lambda: herm_part(X + _indefinite_step(rng, X) * 0.3),
                   lambda D: _in_interval(D, 1e-3, 1.0 - 1e-3))
        incomparable = D is not None and _loewner_compare(X, D, tol).incomparable
        FX, FY, *FD = _effect_automorphism(m, np.stack([X, Y, D] if incomparable else [X, Y]), tol)
        _check_order(rec, t, FX, FY, tol, "effect pair", strict, X=X, Y=Y)
        inverse = EffectAutoSpec(np.linalg.inv(m.frame.conj() if m.transpose else m.frame), m.transpose)
        back = _effect_automorphism(inverse, FX, tol)
        rec.check_residual(_rel_hermitian(back, X), 1e-9, t, "inverse frame does not undo the map", X=X, frame=m.frame)
        if fpq is not None:
            f1, f2, f3, f4 = rational_effect_factors(fpq, tol)
            chained = f4(f3(f2(f1(X))))
            rec.check_residual(_rel_hermitian(chained, FX), 1e-9,
                               t, "four-factor route disagrees with direct route", X=X, frame=fpq.frame)
            sx, sy = X, Y
            for stage, f in enumerate((f1, f2, f3, f4)):
                sx, sy = f(sx), f(sy)
                _check_order(rec, t, sx, sy, tol, f"effect pair after factor {stage + 1}", X=X, Y=Y)
        if incomparable:
            rec.check(_loewner_compare(FX, FD[0], tol).incomparable, t,
                      "incomparable effects became comparable", X=X, D=D)


@_suite(200, "endpoint-overridable embeddings keep order; continuity flags are right",
        fixture_flags={"zero": True, "one": False})
def _suite_effect_embedding(rng, trials, tol, rec):
    n_fix = 2
    eye2 = np.eye(n_fix)
    fixture = EffectEmbeddingSpec(frame=eye2, base=np.zeros((n_fix, n_fix)),
                                  offset=np.zeros((n_fix, n_fix)), value_at_one=2.0 * eye2)
    flags = endpoint_continuity(fixture, tol)
    rec.check(flags == {"zero": True, "one": False}, 0,
              f"fixture continuity flags {flags} != {{zero: True, one: False}}")
    rec.check_residual(_hnorm(effect_embedding_map(fixture, np.zeros((n_fix, n_fix)), tol)), 1e-12,
                       0, "fixture does not fix the zero endpoint")
    rec.check_residual(_hnorm(effect_embedding_map(fixture, 0.5 * eye2, tol) - 0.5 * eye2), 1e-12,
                       0, "fixture interior is not the identity")
    rec.check_residual(_hnorm(effect_embedding_map(fixture, eye2, tol) - 2.0 * eye2), 1e-12,
                       0, "fixture override at the identity not honored")

    for t, n in _trials(rng, trials, 2, 4):
        eye = np.eye(n)
        frame = random_invertible(rng, n, max_cond=10.0)
        base = random_hermitian_with_spectrum(rng, n, -0.8, 2.0)
        offset = random_hermitian(rng, n, scale=0.5)
        v0 = herm_part(offset - random_psd(rng, n)) if rng.random() < 0.5 else None
        spec_plain = EffectEmbeddingSpec(frame=frame, base=base, offset=offset)
        interior_top = _effect_automorphism(spec_plain.interior, eye, tol)
        v1 = herm_part(interior_top + random_psd(rng, n)) if rng.random() < 0.5 else None
        spec = EffectEmbeddingSpec(frame=frame, base=base, offset=offset,
                                   value_at_zero=v0, value_at_one=v1)
        pick = rng.random()
        X, Y = _effect_pair(rng, n, tol)
        if pick < 0.25:
            X = np.zeros((n, n))
        elif pick < 0.5:
            Y = eye
        A, B = _effect_pair(rng, n, tol)
        C = _first(60, lambda: herm_part(A + 0.3 * _indefinite_step(rng, A)),
                   lambda C: _in_interval(C, 1e-3, 1.0 - 1e-3) and _loewner_compare(A, C, tol).incomparable)
        FX, FY, *FAC = _effect_embedding(spec, np.stack([X, Y] if C is None else [X, Y, A, C]), tol)
        _check_order(rec, t, FX, FY, tol, "effect pair under the embedding", X=X, Y=Y)
        flags = endpoint_continuity(spec, tol)
        want_zero = v0 is None or _hnorm(v0 - offset) <= 1e-8 * (1.0 + _hnorm(offset))
        want_one = v1 is None or _hnorm(v1 - interior_top) <= 1e-8 * (1.0 + _hnorm(interior_top))
        rec.check(flags["zero"] == want_zero and flags["one"] == want_one, t,
                  f"continuity flags {flags} disagree with construction", frame=frame)
        if C is not None:
            rec.check(_loewner_compare(*FAC, tol).incomparable, t,
                      "incomparable effects embedded comparably", A=A, C=C)
