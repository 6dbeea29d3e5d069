"""The suites' samplers and trial loops.

Each shared sampler is a draw function in rng order next to the stacked body
that finishes it, as in sampling: mixed-rank bases (_mixed_rank_draws), PSD
and indefinite steps (_psd_step_draws, _indefinite_step_draws), block-domain
points (_block_draws) and shear-domain members (_hermitian_draws).

Where a gate decides how many candidates a sample draws, _first takes them
one at a time, each finished as a one-member stack. A gated suite loops
over `_trial_rows(rng, trials, draw, gate, finish)`, which yields (t, key,
row) in trial order, TRIAL_CHUNK trials at a time. _speculate draws the rest
of a chunk with draw(t, True), as if each gate accepted its first candidate,
saving the state before each trial; gate(*stacks) judges and finishes a group
of them, stacked field by field (_groups). The trials before the first one
refused are kept, and that one is drawn again from its saved state with
draw(t, False), as the per-trial loop draws it, so every value is drawn in
the per-trial order; then the rest of the chunk is speculated again.
finish(*stacks) finishes a group with one call of each stacked kernel, one
sequence per row field. Where first candidates are refused too often for
speculation to pay (order-embedding, about one trial in nine), the suite
draws each trial whole and finishes its trials through _groups.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..config import ToleranceConfig
from ..errors import MatOrderError
from ..linalg import _eigh, _hermitian_opnorms, _is_invertible, _sqrt_psd, herm_part
from ..sampling import (_complex_from_normals, _spectrum_draws, _with_spectra, complex_gaussian, random_effect,
                        random_hermitian_with_spectrum)

# Trials _trial_rows holds at once, and so the most _speculate draws before it gates them.
TRIAL_CHUNK = 128


def _hermitian_draws(rng: np.random.Generator, n: int, lo: float, hi: float) -> tuple:
    """The draws of random_hermitian(rng, n, scale=rng.uniform(lo, hi)): the scale, then the real normals."""
    return rng.uniform(lo, hi), rng.standard_normal((2, n, n))


def _scaled_hermitians(scales: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """random_hermitian of each member of stacked _hermitian_draws: scales (...), normals (..., 2, n, n)."""
    return herm_part(_complex_from_normals(normals)) * scales[..., None, None]


def _with_spectrum(rng: np.random.Generator, vals: np.ndarray) -> np.ndarray:
    """V diag(vals) V* for a random unitary V, drawn after vals."""
    return _with_spectra(vals, complex_gaussian(rng, len(vals), len(vals)))


# the signs _mixed_rank_hermitian picks from: SIGNS[rng.integers(0, 2, size=n)] draws what rng.choice(SIGNS, size=n)
# draws, without choice's argument handling
SIGNS = np.array([-1.0, 1.0])


def _mixed_rank_draws(rng: np.random.Generator, n: int, zero_prob: float = 0.3, lo: float = 0.3, hi: float = 2.5):
    """The draws of _mixed_rank_hermitian: its eigenvalues, then the Gaussians of its unitary."""
    vals = np.where(rng.random(n) < zero_prob, 0.0, rng.uniform(lo, hi, size=n) * SIGNS[rng.integers(0, 2, size=n)])
    return vals, complex_gaussian(rng, n, n)


def _mixed_rank_hermitian(rng: np.random.Generator, n: int, zero_prob: float = 0.3,
                          lo: float = 0.3, hi: float = 2.5) -> np.ndarray:
    """Hermitian with well-separated eigenvalues, some forced to exactly zero."""
    return _with_spectra(*_mixed_rank_draws(rng, n, zero_prob, lo, hi))


def _psd_step_draws(rng: np.random.Generator, n: int) -> tuple:
    """The draws of _psd_step: its size factor, then random_psd's spectrum and Gaussians."""
    factor = rng.uniform(0.02, 0.4)
    values, G = _spectrum_draws(rng, n, 0.0, 1.0, 1)
    return factor, values[0], G[0]


def _psd_steps(norms: np.ndarray, strict: bool, factors: np.ndarray, values: np.ndarray, G: np.ndarray) -> np.ndarray:
    """_psd_step of each member j, from an X of spectral norm norms[j] and member j of the stacked draws."""
    D = _with_spectra(values, G)
    D = D * (factors * (1.0 + norms) / np.maximum(_hermitian_opnorms(D), 1e-12))[:, None, None]
    if strict:
        D = D + (0.05 * (1.0 + norms))[:, None, None] * np.eye(D.shape[-1])
    return herm_part(D)


def _psd_step(rng: np.random.Generator, X: np.ndarray, strict: bool = False) -> np.ndarray:
    """A PSD step from X, of size 0.02-0.4 (1 + ||X||), positive definite by 0.05 (1 + ||X||) if strict."""
    return _psd_steps(_hermitian_opnorms(X[None]), strict, *_one(_psd_step_draws(rng, X.shape[0])))[0]


def _indefinite_step_draws(rng: np.random.Generator, n: int) -> tuple:
    """The draws of _indefinite_step: n eigenvalue factors, then the Gaussians of its unitary."""
    return rng.uniform(0.05, 0.5, size=n), complex_gaussian(rng, n, n)


def _indefinite_steps(norms: np.ndarray, factors: np.ndarray, G: np.ndarray) -> np.ndarray:
    """_indefinite_step of each member j, from an X of spectral norm norms[j] and member j of the stacked draws:
    the first max(1, n // 2) eigenvalues positive, the others negative."""
    k = max(1, G.shape[-1] // 2)
    s = (1.0 + norms)[:, None]
    return _with_spectra(np.concatenate([factors[:, :k] * s, -factors[:, k:] * s], axis=-1), G)


def _indefinite_step(rng: np.random.Generator, X: np.ndarray) -> np.ndarray:
    """Direction with clearly positive and clearly negative eigenvalues, scaled by 1 + ||X||."""
    return _indefinite_steps(_hermitian_opnorms(X[None]), *_one(_indefinite_step_draws(rng, X.shape[0])))[0]


def _block_draws(rng: np.random.Generator, spec, k: int) -> tuple:
    """The draws of k points of the (m, p) block domain of spec (a classify.BlockMapSpec): each draws a Gaussian
    pair for X, then the corner's p positive and m - p negative eigenvalues and the Gaussian pair of its unitary."""
    n, m, p = spec.n, spec.m, spec.p
    normals = np.empty((k, 2, n, n))
    vals = np.empty((k, m))
    corner_normals = np.empty((k, 2, m, m))
    for i in range(k):
        rng.standard_normal(out=normals[i])
        if m > 0:
            vals[i, :p] = rng.uniform(0.3, 2.0, size=p)
            vals[i, p:] = -rng.uniform(0.3, 2.0, size=m - p)
            rng.standard_normal(out=corner_normals[i])
    return normals, vals, corner_normals


def _block_points(spec, normals: np.ndarray, vals: np.ndarray, corner_normals: np.ndarray) -> np.ndarray:
    """The stack of block-domain points with a well-margined corner from stacked _block_draws, finished with one QR
    and one V diag V*."""
    m = spec.m
    X = herm_part(_complex_from_normals(normals)) * 0.8
    if m > 0:
        X[:, :m, :m] = _with_spectra(vals, _complex_from_normals(corner_normals))
    return herm_part(X)


def _block_samples(rng: np.random.Generator, spec, k: int) -> np.ndarray:
    """k random points of the (m, p) block domain with a well-margined corner, as a stack."""
    return _block_points(spec, *_block_draws(rng, spec, k))


def _rand_dim(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(rng.integers(lo, hi + 1))


def _trials(rng: np.random.Generator, trials: int, lo: int = 2, hi: int = 6):
    """Yield (t, n) per trial; n is drawn as trial t starts, before its other draws."""
    for t in range(trials):
        yield t, _rand_dim(rng, lo, hi)


def _first(attempts: int, draw: Callable, accept: Callable):
    """The first of `attempts` draws that `accept` passes, or None."""
    for _ in range(attempts):
        cand = draw()
        if accept(cand):
            return cand
    return None


def _where(ok: np.ndarray, fn: Callable, *stacks: np.ndarray, **options) -> np.ndarray:
    """fn(*stacks, **options) on the members ok holds, zero elsewhere, shaped as the last stack: a stacked finish maps
    only the members the per-trial loop maps, so no kernel's gate refuses a member that loop stopped before."""
    out = np.zeros_like(stacks[-1])
    if ok.any():
        out[ok] = fn(*(x[ok] for x in stacks), **options)
    return out


# the invertibility cushion of samples kept well inside a domain
WELL_MARGINED = ToleranceConfig(inv_margin=1e-3)


def _well_margined(M: np.ndarray) -> bool:
    return _is_invertible(M, WELL_MARGINED)


def _well_margined_at(tol: ToleranceConfig) -> ToleranceConfig:
    """WELL_MARGINED or tol, whichever has the larger inv_margin: its invertibility gate passes what both pass."""
    return max(WELL_MARGINED, tol, key=lambda c: c.inv_margin)


def _shear_gate(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Whether M A + I is well margined, member by member: the gate of a shear-domain sample."""
    return _well_margined(M @ A + np.eye(A.shape[-1]))


def _sample_shear_member(rng: np.random.Generator, A: np.ndarray) -> Optional[np.ndarray]:
    """The first of 200 random Hermitian X, scale in [0.3, 1.6], that passes _shear_gate of the base A (1, n, n),
    as a one-member stack, or None."""
    return _first(200, lambda: _scaled_hermitians(*_one(_hermitian_draws(rng, A.shape[-1], 0.3, 1.6))),
                  lambda X: _shear_gate(A, X))


def _effect_pair(rng: np.random.Generator, n: int, tol: ToleranceConfig, strict: bool = False):
    X = random_effect(rng, n)
    G = _sqrt_psd(_eigh(np.eye(n) - X), tol)
    if strict:
        R = herm_part(random_hermitian_with_spectrum(rng, n, 0.2, 0.9))
    else:
        R = random_effect(rng, n)
    c = rng.uniform(0.2, 0.9)
    Y = herm_part(X + c * G @ R @ G)
    return X, Y


def _groups(draws: dict):
    """Yield (key, trials, stacks) per key: `draws` maps each trial to its key (such as its dimension or block
    class) and its draws (numbers and arrays); a group's draws are stacked field by field, in trial order, and
    leave `draws`, so a suite holds each draw once."""
    trials = {}
    for t, (key, *_) in draws.items():
        trials.setdefault(key, []).append(t)
    for key, ts in trials.items():
        yield key, ts, [np.stack(field) for field in zip(*(draws.pop(t)[1:] for t in ts))]


def _one(draws: tuple) -> list:
    """One trial's draws as the stacks of a single member."""
    return [np.asarray(field)[None] for field in draws]


def _speculate(rng: np.random.Generator, trials: range, draw: Callable, gate: Callable):
    """The finished draws {t: (key, *values)} of the trials of a range, each drawn in the per-trial rng order, and
    the MatOrderError the per-trial loop raises while drawing, or None; the generator ends where that loop leaves it.

    A trial's gates decide how many candidates it draws, so trial t + 1's draws
    start where trial t's accepted candidates end. The suite gives:
    - draw(t, True): trial t's raw draws (key, *raw), as if every gate accepted
      its first candidate;
    - gate(*stacks): for a group of such draws of one key, stacked field by
      field (_groups), whether each member's gates accept its first candidates,
      and the group's finished values (a sequence of stacks);
    - draw(t, False): trial t as the per-trial loop draws it, candidate after
      candidate through _first, as (key, *finished values); it raises where
      that loop raises.

    Save the generator state before each trial of the rest of the range and
    draw it, gate them, and keep the trials before the first one refused (or
    whose draw raised). Restore the state saved before that trial, draw it
    again one candidate at a time, and speculate again from the next trial. A
    draw that raises there ends the draws: its error is returned, so that the
    suite records the trials before it first.
    """
    out = {}
    t = trials.start
    while t < trials.stop:
        states, spec = [], {}
        try:
            for s in range(t, trials.stop):
                states.append(rng.bit_generator.state)
                spec[s] = draw(s, True)
        except MatOrderError:
            pass  # trial s is drawn again once the trials before it are kept
        made = {}
        for key, ts, stacks in _groups(spec):
            ok, finished = gate(*stacks)
            made.update((s, (key, *(f[j] for f in finished))) for j, s in enumerate(ts) if ok[j])
        for s in range(t, t + len(states)):
            if s not in made:
                rng.bit_generator.state = states[s - t]
                try:
                    out[s] = draw(s, False)
                except MatOrderError as exc:
                    return out, exc
                break
            out[s] = made[s]
        t = s + 1
    return out, None


def _trial_rows(rng: np.random.Generator, trials: int, draw: Callable, gate: Callable, finish: Callable):
    """Yield (t, key, row) for t = 0 .. trials - 1 in order: the trials drawn through _speculate, and each key's group
    finished as one stack by finish(*stacks), which returns one sequence per field of the rows, member by member. The
    trials go in chunks of at most TRIAL_CHUNK, so that a suite holds no more than a chunk's draws and rows. An error
    raised while drawing is raised after the rows of the trials before it."""
    for start in range(0, trials, TRIAL_CHUNK):
        draws, error = _speculate(rng, range(start, min(start + TRIAL_CHUNK, trials)), draw, gate)
        rows, groups = {}, []
        for key, ts, stacks in _groups(draws):
            groups.append(finish(*stacks))
            rows.update((t, (key, groups[-1], j)) for j, t in enumerate(ts))
        for t in sorted(rows):
            key, fields, j = rows[t]
            yield t, key, [field[j] for field in fields]
        if error:
            raise error
