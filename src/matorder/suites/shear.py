"""Suites of the shear maps, the zero component and the local order isomorphisms."""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import ModelMismatchError, PathSearchError
from ..halfplane import MobiusAutomorphism, _apply_mobius, _fit_canonical, _normalize_phase
from ..linalg import (_eigh, _eigvalsh, _hermitian_opnorms, _hnorm, _is_invertible, _opnorms, _order_verdict, _rel,
                      _spectra_invertible, _spectrum_inertia, _sqrt_psd, herm_part, inertia)
from ..localiso import (_apply_local_iso, _congruence_orbit, _conjugated_base, _identify_parameters, _in_shear_domain,
                        _in_zero_component, _interval_below_criterion, _order_iso_apply,
                        _order_iso_map, _range_compression, _segment_from, _shear_apply, _shrink_in_component,
                        _translated_base, in_zero_component, path_to_zero)
from ..sampling import (EFFECT_SPECTRUM, _half_plane_stack, _spectrum_draws, _with_spectra, random_hermitian,
                        random_invertible, random_psd)
from . import _check_spectra, _suite
from .draws import (_first, _groups, _hermitian_draws, _indefinite_step_draws, _indefinite_steps, _mixed_rank_draws,
                    _mixed_rank_hermitian, _one, _psd_step_draws, _psd_steps, _rand_dim, _sample_shear_member,
                    _scaled_hermitians, _shear_gate, _trial_rows, _trials, _well_margined, _well_margined_at, _where)
from .mobius import _anchored_fit, _random_mobius


@_suite(500, "shear map: mirrored base inverts it; left and right formulas agree",
        singular_bases=0, max_inversion_residual=0.0, max_two_sided_residual=0.0)
def _suite_theta_inversion(rng, trials, tol, rec):
    # per trial: the base A (zero at every 20th trial, which draws nothing), then _sample_shear_member's X
    def bases(n, k, head):
        return _with_spectra(*head) if head else np.zeros((k, n, n), dtype=complex)

    def draw(t, first):
        n = _rand_dim(rng, 2, 6)
        head = _mixed_rank_draws(rng, n) if t % 20 else ()
        if first:
            return (n, True, bool(head)), *_hermitian_draws(rng, n, 0.3, 1.6), *head
        A = bases(n, 1, _one(head))
        X = _sample_shear_member(rng, A)
        return (n, X is not None, bool(head)), A[0], (A if X is None else X)[0]

    def gate(scale, N, *head):
        A, X = bases(N.shape[-1], len(scale), head), _scaled_hermitians(scale, N)
        return _shear_gate(A, X), (A, X)

    def finish(A, X):  # a trial without a sample holds A in X's place, read by no check
        inside = _in_shear_domain(A, X, tol)
        Y = _where(inside, _shear_apply, A, X, tol=tol)
        mirrored = _in_shear_domain(-A, Y, tol)
        back = _where(inside & mirrored, _shear_apply, -A, Y, tol=tol)
        scale = 1.0 + _hermitian_opnorms(X)
        # Y is the left formula (X A + I)^{-1} X; the right one is X (A X + I)^{-1}
        right = np.linalg.solve((A @ X + np.eye(A.shape[-1])).swapaxes(-1, -2), X.swapaxes(-1, -2)).swapaxes(-1, -2)
        return (A, X, ~_spectra_invertible(_eigvalsh(A), tol), inside, mirrored, _opnorms(back - X) / scale,
                _opnorms(Y - right) / scale)

    for t, (_, found, _), (A, X, singular, inside, mirrored, r1, r2) in _trial_rows(rng, trials, draw, gate, finish):
        if singular:
            rec.count("singular_bases")
        if not found:
            rec.fail(t, "no shear-domain sample found", A=A)
            continue
        if not inside:
            _shear_apply(A, X, tol)  # raises the per-trial loop's error, once the trials before it are recorded
        if not mirrored:
            rec.fail(t, "image not in the mirrored domain", A=A, X=X)
            continue
        rec.check_residual(rec.keep("max_inversion_residual", r1, max), 1e-9, t, "inversion identity", A=A, X=X)
        rec.check_residual(rec.keep("max_two_sided_residual", r2, max), 1e-10, t, "two-sided formula", A=A, X=X)


@_suite(500, "gated pairs stay ordered both ways; strict stays strict; incomparable stays so",
        skipped=0, strict_checked=0, min_strict_margin=None)
def _suite_order_embedding(rng, trials, tol, rec):
    # per trial, of kind t % 4 (1 strict, 2 on the negated base, 3 indefinite): the base, then X drawn until it is
    # well margined and in the base's zero component (scales from two ranges in turn), then a step from X until
    # the segment from X to Y = X + step stays in the shear domain; a gate at the larger margin is both
    # _well_margined and the shear gate at tol, and X must pass it too
    gate_tol = _well_margined_at(tol)

    def draw(t):
        n, kind = _rand_dim(rng, 2, 4), t % 4
        A = _with_spectra(*_one(_mixed_rank_draws(rng, n, zero_prob=0.2)))
        base = -A if kind == 2 else A
        compression = _range_compression(base[0], tol)
        scales = itertools.cycle([(0.05, 0.5), (0.1, 1.2)])
        X = _first(300, lambda: _scaled_hermitians(*_one(_hermitian_draws(rng, n, *next(scales)))),
                   lambda X: _well_margined(X @ base + np.eye(n)) & _in_zero_component(compression, X, tol))
        rank = compression[1].size
        if X is None:
            return (n, 0, rank), base[0], *compression, base[0], base[0]
        shifted, norms = X @ base + np.eye(n), _hermitian_opnorms(X)
        x_gated = _is_invertible(shifted, gate_tol)

        def step():
            if kind == 3:
                return _indefinite_steps(norms, *_one(_indefinite_step_draws(rng, n)))
            return _psd_steps(norms, kind == 1, *_one(_psd_step_draws(rng, n)))

        Y = _first(60, lambda: herm_part(X + step()), lambda Y: _segment_from(base, X, shifted, Y, gate_tol) & x_gated)
        return (n, 1 if Y is None else 2, rank), base[0], *compression, X[0], (X if Y is None else Y)[0]

    def finish(base, V, lam, X, Y):  # a skipped trial holds its base in X's and Y's places, read by no check
        # (V, lam) compresses the base and (V, -lam) its negation: the same kept vectors, the same cut
        XY, kept = np.stack([X, Y], axis=1), V[:, None]
        inside = _in_zero_component((kept, lam[:, None]), XY, tol).all(axis=-1)
        PQ = _where(inside, _order_iso_map, base[:, None], XY)
        inside_back = _in_zero_component((kept, -lam[:, None]), PQ, tol).all(axis=-1)
        back = _where(inside & inside_back, _order_iso_map, -base[:, None], PQ)
        P, Q, R, S = PQ[:, 0], PQ[:, 1], back[:, 0], back[:, 1]
        return base, V, lam, X, Y, PQ, inside, inside_back, _eigvalsh(np.stack([P, Q, Q - P, R, S, S - R], axis=1))

    # each trial is drawn whole: order-embedding refuses a first candidate in about one trial in nine, too often to
    # speculate across trials; its checks draw nothing and run in stacks
    draws, rows = {t: draw(t) for t in range(trials)}, {}
    for (_, stage, _), ts, stacks in _groups(draws):
        fields = finish(*stacks)
        rows.update((t, (stage, fields, j)) for j, t in enumerate(ts))
    for t, (stage, fields, j) in sorted(rows.items()):
        base, V, lam, X, Y, PQ, inside, inside_back, spectra = (field[j] for field in fields)
        if stage < 2:
            rec.count("skipped")
            continue
        if not inside:  # raises the per-trial loop's error, once the trials before it are recorded
            _order_iso_apply(base, (V, lam), np.stack([X, Y]), tol)
        if t % 4 == 3:
            rec.check(_order_verdict(spectra[2], tol).incomparable, t,
                      "incomparable pair became comparable", A=base, X=X, Y=Y)
            continue
        margin = _check_spectra(rec, t, spectra[:3], tol, "pair", t % 4 == 1, A=base, X=X, Y=Y)
        if t % 4 == 1:
            rec.count("strict_checked")
            rec.keep("min_strict_margin", margin, min)
        if not inside_back:
            _order_iso_apply(-base, (V, -lam), PQ, tol)
        _check_spectra(rec, t, spectra[3:], tol, "pulled-back pair", A=base, X=X, Y=Y)


@_suite(200, "spectral criterion for whole-interval membership vs dense sampling",
        skipped_borderline=0, criterion_true=0)
def _suite_interval_criterion(rng, trials, tol, rec):
    samples_per_instance = 50
    ramp = 8
    for t, n in _trials(rng, trials, 2, 5):
        A = _mixed_rank_hermitian(rng, n, zero_prob=0.2, lo=0.4, hi=2.0)
        compression = _range_compression(A, tol)
        X = herm_part(random_psd(rng, n) * rng.uniform(0.3, 1.4))
        Xh = _sqrt_psd(_eigh(X), tol)
        lam = float(_eigvalsh(herm_part(Xh @ A @ Xh))[0])
        if abs(lam + 1.0) < 1e-4:
            rec.count("skipped_borderline")
            continue
        crit = _interval_below_criterion(A, X, tol)
        rec.check(crit == (lam > -1.0), t, "criterion disagrees with its spectral form", A=A, X=X)
        rec.check(crit == bool(_in_zero_component(compression, X, tol)), t, "criterion and membership differ", A=A, X=X)
        if crit:
            rec.count("criterion_true")
            # samples below `ramp` are multiples of X, each later one draws a
            # random effect; all are tested as one stack
            E = _with_spectra(*_spectrum_draws(rng, n, *EFFECT_SPECTRUM, samples_per_instance - ramp))
            steps = (np.arange(ramp) + 1.0) / ramp
            S = np.concatenate([herm_part(steps[:, None, None] * X), herm_part(Xh @ E @ Xh)])
            inside = _in_zero_component(compression, S, tol)
            if not inside.all():
                j = int(np.argmin(inside))
                rec.fail(t, "interval point escaped although criterion holds", A=A, X=X, S=S[j])
        else:
            t_star = -1.0 / lam
            t_w = min(1.0, t_star + 0.5 * (1.0 - t_star))
            W = herm_part(t_w * X)
            rec.check(not _in_zero_component(compression, W, tol), t,
                      "criterion refuted but witness still inside", A=A, X=X, W=W)


@_suite(200, "shifting the argument equals the translated-base map up to congruence")
def _suite_translation_identity(rng, trials, tol, rec):
    # per trial: A, an anchor X0 (_sample_shear_member), whose translated base A2 refuses an X0 outside the shear
    # domain at tol, then X drawn until (X0 + X) A + I and X A2 + I are well margined; one gate at the larger
    # margin decides the anchor's two gates
    anchor_tol = _well_margined_at(tol)

    def second(A, X0, A2, X):
        return _shear_gate(A, X0 + X) & _shear_gate(A2, X)

    def draw(first):
        n = _rand_dim(rng, 2, 6)
        head = _mixed_rank_draws(rng, n)
        if first:
            x0 = _hermitian_draws(rng, n, 0.3, 1.6)
            return (n, 2), *head, *x0, *_hermitian_draws(rng, n, 0.2, 1.0)
        A = _with_spectra(*_one(head))
        X0 = _sample_shear_member(rng, A)
        if X0 is None:
            return (n, 0), A[0], A[0], A[0], A[0]
        A2 = _translated_base(A, X0, tol)  # raises where the per-trial loop raises
        X = _first(200, lambda: _scaled_hermitians(*_one(_hermitian_draws(rng, n, 0.2, 1.0))),
                   lambda X: second(A, X0, A2, X))
        return (n, 1 if X is None else 2), A[0], X0[0], (A if X is None else X)[0], A2[0]

    def gate(vals, G, s0, N0, s, N):
        A, X0, X = _with_spectra(vals, G), _scaled_hermitians(s0, N0), _scaled_hermitians(s, N)
        ok = _is_invertible(X0 @ A + np.eye(A.shape[-1]), anchor_tol)
        A2 = _where(ok, _translated_base, A, X0, tol=tol)
        return ok & second(A, X0, A2, X), (A, X0, X, A2)

    def finish(A, X0, X, A2):  # a trial without a sample holds A in the places of the draws it lacks
        pair = np.stack([herm_part(X0 + X), X0], axis=1)
        inside = _in_shear_domain(A[:, None], pair, tol).all(axis=-1) & _in_shear_domain(A2, X, tol)
        images = _where(inside, _shear_apply, A[:, None], pair, tol=tol)
        lhs = images[:, 0] - images[:, 1]
        Mi = np.linalg.inv(X0 @ A + np.eye(A.shape[-1]))
        rhs = Mi @ _where(inside, _shear_apply, A2, X, tol=tol) @ Mi.conj().swapaxes(-1, -2)
        return A, X0, X, A2, inside, _opnorms(lhs - rhs) / (1.0 + _opnorms(lhs))

    rows = _trial_rows(rng, trials, lambda t, first: draw(first), gate, finish)
    for t, (_, stage), (A, X0, X, A2, inside, residual) in rows:
        if stage == 0:
            rec.fail(t, "no shear-domain anchor found", A=A)
            continue
        if stage == 1:
            rec.fail(t, "no translated sample found", A=A, X0=X0)
            continue
        if not inside:  # raises the per-trial loop's error, once the trials before it are recorded
            _shear_apply(A, np.stack([herm_part(X0 + X), X0]), tol)
            _shear_apply(A2, X, tol)
        rec.check_residual(residual, 1e-9, t, "translation identity", A=A, X0=X0, X=X)


@_suite(200, "frame congruence commutes with the shear map via the conjugated base")
def _suite_conjugation_identity(rng, trials, tol, rec):
    # per trial: A, a frame T, whose conjugated base A2 refuses a T not invertible at tol, then
    # _sample_shear_member's X
    def draw(first):
        n = _rand_dim(rng, 2, 6)
        head = _mixed_rank_draws(rng, n)
        T = random_invertible(rng, n, max_cond=15.0)
        if first:
            return (n, True), *head, T, *_hermitian_draws(rng, n, 0.3, 1.6)
        A = _with_spectra(*_one(head))
        _conjugated_base(A, T, tol)  # raises where the per-trial loop raises
        X = _sample_shear_member(rng, A)
        return (n, X is not None), A[0], T, (A if X is None else X)[0]

    def gate(vals, G, T, scale, N):
        A, X = _with_spectra(vals, G), _scaled_hermitians(scale, N)
        return _is_invertible(T, tol) & _shear_gate(A, X), (A, T, X)

    def finish(A, T, X):  # a trial without a sample holds A in X's place
        A2, Ti = _conjugated_base(A, T, tol), np.linalg.inv(T)
        S = Ti.conj().swapaxes(-1, -2)  # so S* is Ti, bit for bit and in layout
        SX = herm_part(S @ X @ Ti)
        inside = _in_shear_domain(A2, SX, tol) & _in_shear_domain(A, X, tol)
        lhs = _where(inside, _shear_apply, A2, SX, tol=tol)
        rhs = S @ _where(inside, _shear_apply, A, X, tol=tol) @ Ti
        return A, T, X, A2, SX, inside, _opnorms(lhs - rhs) / (1.0 + _opnorms(rhs))

    rows = _trial_rows(rng, trials, lambda t, first: draw(first), gate, finish)
    for t, (_, found), (A, T, X, A2, SX, inside, residual) in rows:
        if not found:
            rec.fail(t, "no shear-domain sample found", A=A)
            continue
        if not inside:  # raises the per-trial loop's error, once the trials before it are recorded
            _shear_apply(A2, SX, tol)
            _shear_apply(A, X, tol)
        rec.check_residual(residual, 1e-9, t, "conjugation identity", A=A, T=T, X=X)


@_suite(200, "the shear image of the base is congruent to it; inertia is preserved", rescaled=0)
def _suite_congruence_orbit(rng, trials, tol, rec):
    for t, n in _trials(rng, trials, 2, 4):
        A = _mixed_rank_hermitian(rng, n)
        compression = _range_compression(A, tol)
        X = _first(200, lambda: random_hermitian(rng, n, scale=rng.uniform(0.2, 0.8)),
                   lambda X: _in_zero_component(compression, X, tol))
        if X is None:
            rec.fail(t, "no component sample found", A=A)
            continue
        for _ in range(6):
            try:
                G = _congruence_orbit(A, X, tol)
                break
            except PathSearchError:
                X = _shrink_in_component(A, compression, X, tol)
                rec.count("rescaled")
        else:
            rec.fail(t, "orbit factor failed even after shrinking", A=A, X=X)
            continue
        target = _shear_apply(X, A, tol)
        got = herm_part(G @ A @ G.conj().T)
        rec.check_residual(_opnorms(got - target) / (1.0 + _hnorm(A)), 1e-8,
                           t, "orbit congruence residual", A=A, X=X)
        rec.check(tuple(inertia(target, tol)) == _spectrum_inertia(_eigvalsh(A), tol), t,
                  "orbit image changed inertia", A=A, X=X)
        rec.check(_is_invertible(G, tol), t, "orbit factor is singular", A=A, X=X)


@_suite(300, "inertia-based component membership against randomized path search", members=0, max_nodes_used=0)
def _suite_component_criterion(rng, trials, tol, rec):
    for t, n in _trials(rng, trials, 2, 4):
        A = _mixed_rank_hermitian(rng, n, zero_prob=0.25)
        if _hnorm(A) <= tol.psd_tol:
            A = herm_part(A + np.eye(n))
        scale = (0.3, 1.0, 2.5)[t % 3]
        X = random_hermitian(rng, n, scale=scale)
        crit = in_zero_component(A, X, tol)
        res = path_to_zero(A, X, tol, seed=1000 + t, max_nodes=3000 if crit else 96)
        rec.keep("max_nodes_used", res.nodes_used, max)
        if crit:
            rec.count("members")
            rec.check(res.found, t, "criterion says member but no path was found", A=A, X=X)
        else:
            rec.check(not res.found, t, "path found into a point the criterion rejects", A=A, X=X)


@_suite(100, "black-box recovery of base, frame and transpose flag by both routes",
        mismatch_checked=0, anchors_refused=0)
def _suite_parameter_recovery(rng, trials, tol, rec):
    for t, n in _trials(rng, trials, 2, 4):
        A = _mixed_rank_hermitian(rng, n) if t % 10 else np.zeros((n, n), dtype=complex)
        T = _normalize_phase(random_invertible(rng, n, max_cond=8.0))
        transpose = bool(rng.integers(2))
        scaleA = 1.0 + _hnorm(A)
        mob = MobiusAutomorphism(frame=T, A=A, transpose=transpose)

        got = _identify_parameters(lambda H: _apply_local_iso(mob, H, tol), n, tol)
        rec.check_residual(_hnorm(got.A - A) / scaleA, 1e-5, t, "derivative-probe base recovery", A=A, T=T)
        rec.check_residual(_rel(got.frame, T), 1e-5, t, "derivative-probe frame recovery", A=A, T=T)
        rec.check(got.transpose == transpose, t, "derivative-probe transpose flag wrong", A=A, T=T)

        fitted = _fit_canonical(lambda Z: _apply_mobius(mob, Z, tol), n, None, tol)
        rec.check_residual(_hnorm(fitted.A - A) / scaleA, 1e-7, t, "half-plane base recovery", A=A, T=T)
        rec.check_residual(_rel(fitted.frame, T), 1e-7, t, "half-plane frame recovery", A=A, T=T)
        rec.check(fitted.transpose == transpose, t, "half-plane transpose flag wrong", A=A, T=T)

        if t % 3 == 0:
            full = _random_mobius(rng, n)
            g = lambda Z: _apply_mobius(full, Z, tol)
            refit, refused = _anchored_fit(rng, g, n, tol)
            rec.count("anchors_refused", refused)
            rec.check(refit is not None or not refused, t, "every anchored refit was refused", frame=full.frame)
            if refit is not None:
                points = _half_plane_stack(rng, n, 5)
                rec.check_residual(_rel(_apply_mobius(refit, points, tol), g(points)), 1e-7, t,
                                   "anchored refit mismatch", frame=full.frame)

        if t % 10 == 5:
            rec.count("mismatch_checked")

            def crooked(H, _s=1.0 + 0.2 * float(rng.random())):
                M = np.asarray(H, dtype=complex)
                return herm_part(M + 0.05 * _s * M @ M)

            try:
                _identify_parameters(crooked, n, tol)
                rec.fail(t, "non-model evaluator was not rejected")
            except ModelMismatchError:
                pass
