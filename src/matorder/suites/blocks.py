"""Suites of the corner-inverting block maps and the signature classes."""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..classify import (BlockMapSpec, _block_map, _bordered_arrangement, _bordered_embedding, _growth_direction,
                        _in_block_domain, _signature_class, are_equivalent, block_map_apply, class_count,
                        enumerate_signatures, signature_class)
from ..linalg import (_eigvalsh, _hermitian_opnorms, _hnorm, _loewner_compare, _opnorms, _rel_hermitian,
                      _spectra_have_inertia, _spectra_norms, _spectrum_inertia, herm_part)
from ..sampling import random_invertible, random_unitary
from . import _all_classes, _check_order, _suite
from .draws import _block_draws, _block_points, _block_samples, _first, _groups, _indefinite_step, _psd_step, _trials


@_suite(240, "corner-inverting block map is an involution between dual classes")
def _suite_block_involution(rng, trials, tol, rec):
    draws = {}
    for t, n in _trials(rng, trials, 2, 5):
        m = int(rng.integers(0, n + 1))
        spec = BlockMapSpec(n, m, int(rng.integers(0, m + 1)))
        draws[t] = spec, *(field[0] for field in _block_draws(rng, spec, 1))
    rows = {}
    for spec, ts, stacks in _groups(draws):
        X = _block_points(spec, *stacks)
        Y = _block_map(spec, X, tol)
        checks = _in_block_domain(spec, X, tol), _in_block_domain(spec.dual, Y, tol)
        res = _rel_hermitian(_block_map(spec.dual, Y, tol), X)
        rows.update(zip(ts, zip([spec] * len(ts), X, Y, *checks, res)))
    for t, (spec, X, Y, inside, image_inside, res) in sorted(rows.items()):
        m, p = spec.m, spec.p
        rec.check(inside, t, "constructed sample missed the domain", X=X)
        rec.check(image_inside, t, f"image corner inertia is not ({m - p}, 0, {p})", X=X, Y=Y)
        rec.check_residual(res, 1e-9, t, f"involution on class (m={m}, p={p})", X=X)
        if t == 0:
            W = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
            want = np.array([[-0.5, 0.5j], [-0.5j, 2.5]], dtype=complex)
            gotW = block_map_apply(BlockMapSpec(2, 1, 1), W, tol)
            rec.check_residual(_hnorm(gotW - want), 1e-12, t, "worked 2x2 example", W=W)


@_suite(200, "bordered embedding: negated inverse reproduces the block map; fixed inertia "
             "(trials per class, 52 classes for n = 2..5: 10,400 instances by default)", instances=0)
def _suite_bordered_identity(rng, trials, tol, rec):
    for n in range(2, 6):
        for (m, p) in _all_classes(n):
            spec = BlockMapSpec(n, m, p)
            X = _block_samples(rng, spec, trials)
            E = _bordered_embedding(m, X)
            R = _bordered_arrangement(m, _block_map(spec, X, tol))
            # E and R are exactly Hermitian: one spectrum of E gives its norm and its
            # inertia; only E R + I, which is not Hermitian, needs an SVD
            spectra = _eigvalsh(E)
            scale = 1.0 + _spectra_norms(spectra) * _hermitian_opnorms(R)
            res = _opnorms(E @ R + np.eye(2 * n - m)) / scale
            fixed = _spectra_have_inertia(spectra, n + p - m, tol)
            first = rec.count("instances", trials) - trials + 1
            description = f"bordered identity (n={n}, m={m}, p={p})"
            if fixed.all():
                rec.check_residuals(res, 1e-9, first, description, X=X)
                continue
            for j in range(trials):  # each instance's two failures stay together
                rec.check_residual(res[j], 1e-9, first + j, description, X=X[j])
                if not fixed[j]:
                    got = tuple(_spectrum_inertia(spectra[j], tol))
                    rec.fail(first + j, f"bordered inertia {got} != {(n + p - m, 0, n - p)}", X=X[j])


@_suite(200, "block map preserves order both ways on inertia-stable segments", skipped=0)
def _suite_block_monotonicity(rng, trials, tol, rec):
    # the segment [X, X + D] is gated at these nine points, one stack
    taus = np.linspace(0.0, 1.0, 9)[:, None, None]
    for t, n in _trials(rng, trials, 2, 4):
        m = int(rng.integers(1, n + 1))
        p = int(rng.integers(0, m + 1))
        spec = BlockMapSpec(n, m, p)
        X = _block_samples(rng, spec, 1)[0]
        strict = t % 3 == 1
        indefinite = t % 3 == 2
        D = _first(60, lambda: _indefinite_step(rng, X) if indefinite else _psd_step(rng, X, strict=strict),
                   lambda D: all(_in_block_domain(spec, herm_part(X + taus * D), tol)))
        if D is None:
            rec.count("skipped")
            continue
        Y = herm_part(X + D)
        FX, FY = _block_map(spec, np.stack([X, Y]), tol)
        if indefinite:
            rec.check(_loewner_compare(FX, FY, tol).incomparable, t,
                      "incomparable pair became comparable", X=X, Y=Y)
            continue
        _check_order(rec, t, FX, FY, tol, "pair under the block map", strict, X=X, Y=Y)
        _check_order(rec, t, *_block_map(spec.dual, np.stack([FX, FY]), tol), tol,
                     "pulled-back pair", X=X, Y=Y)


@_suite(40, "extremal stable-direction ranks hold, higher ranks exit, ranks separate classes", classes_tested=0)
def _suite_growth_ranks(rng, trials, tol, rec):
    grid_stay = np.array([0.5, 1.0, 10.0, 100.0, 1e4])
    grid_exit = np.array([0.5, 1.0, 10.0, 100.0, 1e4, 1e6])
    rank_pairs: Dict[tuple, tuple] = {}
    for n in range(2, 5):
        for (m, p) in _all_classes(n):
            spec = BlockMapSpec(n, m, p)
            rank_pairs[(n, m, p)] = (n + p - m, n - p)
            for X in _block_samples(rng, spec, max(1, trials // 4)):
                for positive in (True, False):
                    Y = _growth_direction(spec, X, positive, tol)
                    sig = _spectrum_inertia(_eigvalsh(Y), tol)
                    want_rank = n + p - m if positive else n - p
                    got_rank = sig.n_pos if positive else sig.n_neg
                    semidef_ok = (sig.n_neg == 0) if positive else (sig.n_pos == 0)
                    rec.check(semidef_ok and got_rank == want_rank, 0,
                              f"direction rank {got_rank} != {want_rank} on (n={n}, m={m}, p={p})", X=X, Y=Y)
                    exits = grid_stay[~_in_block_domain(spec, herm_part(X + grid_stay[:, None, None] * Y), tol)]
                    if exits.size:
                        rec.fail(0, f"stable direction exited at c={exits[0]} on (n={n}, m={m}, p={p})", X=X, Y=Y)
            if n <= 3:
                X = _block_samples(rng, spec, 1)[0]
                for positive in (True, False):
                    k = (n + p - m) if positive else (n - p)
                    if k >= n:
                        continue
                    for _ in range(5):
                        V = random_unitary(rng, n)[:, : k + 1]
                        D = herm_part(V @ np.diag(rng.uniform(0.3, 1.0, size=k + 1)).astype(complex) @ V.conj().T)
                        if not positive:
                            D = -D
                        exited = not all(_in_block_domain(spec, herm_part(X + grid_exit[:, None, None] * D), tol))
                        rec.check(exited, 0,
                                  f"rank-{k + 1} {'PSD' if positive else 'NSD'} direction never exited "
                                  f"(n={n}, m={m}, p={p})", X=X, D=D)
    for n in range(2, 5):
        pairs = [rank_pairs[(n, m, p)] for (m, p) in _all_classes(n)]
        rec.check(len(set(pairs)) == class_count(n), 0,
                  f"stable-rank invariants fail to separate the {class_count(n)} classes at n={n}")
    rec.set("classes_tested", len(rank_pairs))


@_suite(1, "class census: closed form, enumeration, congruence invariance", counts=None)
def _suite_class_count(rng, trials, tol, rec):
    for n in range(2, 7):
        want = (n + 2) * (n + 1) // 2
        rec.check(class_count(n) == want, n, f"closed-form count wrong at n={n}")
        reps = enumerate_signatures(n)
        rec.check(len(reps) == want, n, f"representative enumeration wrong at n={n}")
        seen = {signature_class(R, tol)[:2] for R in reps}
        rec.check(len(seen) == want, n, f"representatives collapse into {len(seen)} classes at n={n}")
        for i, R in enumerate(reps):
            for Q in reps[i + 1:]:
                if are_equivalent(R, Q, tol):
                    rec.fail(n, "distinct representatives reported equivalent", R=R, Q=Q)
        for R in reps[:: max(1, len(reps) // 4)]:
            S = random_invertible(rng, n, max_cond=20.0)
            rec.check(_signature_class(R, tol)[:2] == _signature_class(herm_part(S @ R @ S.conj().T), tol)[:2], n,
                      "congruence changed the signature class", R=R, S=S)
    rec.set("counts", {str(n): class_count(n) for n in range(2, 7)})
