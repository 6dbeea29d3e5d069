"""Stacked samplers: every member bit for bit the per-sample draw, in the same rng order; speculative draws with a
generator rewind leave what the per-trial loop draws."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder.classify import BlockMapSpec
from matorder.errors import MatOrderError
from matorder.linalg import herm_part
from matorder.sampling import (
    EFFECT_SPECTRUM,
    _half_plane_stack,
    _spectrum_draws,
    _unitary_from_gaussians,
    _with_spectra,
    complex_gaussian,
    random_effect,
    random_half_plane,
    random_unitary,
)
from matorder.suites import draws as suite_draws
from matorder.suites.draws import _first, _speculate, _trial_rows

# Per-sample reference samplers, written one matrix at a time as the library
# drew them before its stacked bodies; the stacks must reproduce their bits.


def _gaussian_ref(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def _unitary_ref(rng, n):
    Q, R = np.linalg.qr(_gaussian_ref(rng, n))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _effect_ref(rng, n):
    values = rng.uniform(0.02, 0.98, size=n)
    Q = _unitary_ref(rng, n)
    return herm_part((Q * values) @ Q.conj().T)


def _with_spectrum_ref(rng, vals):
    V = _unitary_ref(rng, len(vals))
    return herm_part(V @ np.diag(vals).astype(complex) @ V.conj().T)


def _block_sample_ref(rng, n, m, p):
    X = herm_part(_gaussian_ref(rng, n)) * 0.8
    if m > 0:
        vals = np.concatenate([rng.uniform(0.3, 2.0, size=p), -rng.uniform(0.3, 2.0, size=m - p)])
        V = _unitary_ref(rng, m)
        X[:m, :m] = herm_part(V @ np.diag(vals).astype(complex) @ V.conj().T)
    return herm_part(X)


dims = st.integers(1, 8)
stack_sizes = st.integers(1, 20)
seeds = st.integers(0, 2**32 - 1)


def _same(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(dims, stack_sizes, seeds)
def test_stacked_unitary_body_matches_random_unitary(n, k, seed):
    rng, each, ref = (np.random.default_rng(seed) for _ in range(3))
    got = _unitary_from_gaussians(np.stack([complex_gaussian(rng, n, n) for _ in range(k)]))
    assert _same(got, np.stack([random_unitary(each, n) for _ in range(k)]))
    assert _same(got, np.stack([_unitary_ref(ref, n) for _ in range(k)]))
    assert rng.bit_generator.state == each.bit_generator.state == ref.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(dims, stack_sizes, seeds)
def test_stacked_effect_draw_matches_per_sample_effects(n, k, seed):
    rng, each, ref = (np.random.default_rng(seed) for _ in range(3))
    got = _with_spectra(*_spectrum_draws(rng, n, *EFFECT_SPECTRUM, k))
    assert _same(got, np.stack([random_effect(each, n) for _ in range(k)]))
    assert _same(got, np.stack([_effect_ref(ref, n) for _ in range(k)]))
    assert rng.bit_generator.state == each.bit_generator.state == ref.bit_generator.state


def _half_plane_ref(rng, n):
    X = herm_part(_gaussian_ref(rng, n))
    values = rng.uniform(0.1, 1.5, size=n)
    Q = _unitary_ref(rng, n)
    return X + 1j * herm_part((Q * values) @ Q.conj().T)


@settings(max_examples=60, deadline=None)
@given(dims, stack_sizes, seeds)
def test_stacked_half_plane_draw_matches_per_sample_points(n, k, seed):
    rng, each, ref = (np.random.default_rng(seed) for _ in range(3))
    got = _half_plane_stack(rng, n, k)
    assert _same(got, np.stack([random_half_plane(each, n) for _ in range(k)]))
    assert _same(got, np.stack([_half_plane_ref(ref, n) for _ in range(k)]))
    assert rng.bit_generator.state == each.bit_generator.state == ref.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(st.data(), dims, stack_sizes, seeds)
def test_stacked_class_draw_matches_per_sample_draws(data, n, k, seed):
    m = data.draw(st.integers(0, n))
    p = data.draw(st.integers(0, m))
    rng, ref = (np.random.default_rng(seed) for _ in range(2))
    got = suite_draws._block_samples(rng, BlockMapSpec(n, m, p), k)
    assert _same(got, np.stack([_block_sample_ref(ref, n, m, p) for _ in range(k)]))
    assert rng.bit_generator.state == ref.bit_generator.state


# eigenvalues of both signs, with exact zeros of both signs among them
spectra = st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.05, 3.0), st.floats(-3.0, -0.05)),
                   min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(st.lists(spectra, min_size=1, max_size=5), seeds)
def test_with_spectrum_matches_a_per_sample_diagonal_product(spectra_drawn, seed):
    rng, ref = (np.random.default_rng(seed) for _ in range(2))
    for vals in map(np.array, spectra_drawn):
        assert _same(suite_draws._with_spectrum(rng, vals), _with_spectrum_ref(ref, vals))
    assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# speculative draws: every trial drawn in the per-trial rng order, whatever the gate refuses


def _per_trial(rng, trials, refusals):
    """The per-trial loop the speculation replaces: a dimension, a head, then candidates until the gate takes one;
    the gate refuses the first refusals[t] candidates of trial t."""
    out = {}
    for t in range(trials):
        n = int(rng.integers(1, 4))
        head = rng.standard_normal(n)
        k = 0
        while True:
            cand = rng.standard_normal(2)
            if k >= refusals.get(t, 0):
                break
            k += 1
        out[t] = n, head, cand
    return out


def _span(ts) -> int:
    """How many consecutive trials the trial numbers ts reach over."""
    return int(max(ts) - min(ts)) + 1


def _speculated(rng, trials, refusals, raising=(), spans=None):
    """The same trials through _trial_rows, which speculates; a speculative draw of a trial in `raising` raises. The
    span of each group the gate takes goes to `spans`."""
    def draw(t, first):
        n = int(rng.integers(1, 4))
        head = rng.standard_normal(n)
        if first:
            if t in raising:
                raise MatOrderError("a speculative draw that raises is drawn again")
            return (n,), t, head, rng.standard_normal(2)
        k = itertools.count()
        cand = _first(50, lambda: (next(k), rng.standard_normal(2)), lambda c: c[0] >= refusals.get(t, 0))
        return (n,), t, head, cand[1]

    def gate(ts, heads, cands):  # refuses the first candidate of the chosen trials
        spans.append(_span(ts))
        return np.array([refusals.get(int(t), 0) == 0 for t in ts]), (ts, heads, cands)

    rows = _trial_rows(rng, trials, draw, gate, lambda ts, heads, cands: (heads, cands))
    return {t: (key[0], head, cand) for t, key, (head, cand) in rows}


@pytest.mark.parametrize("refusals", [
    {},
    {0: 1},  # the first trial of a chunk
    {3: 1},  # a middle one
    {7: 1},  # the last one
    {4: 1, 5: 1},  # two in a row
    {3: 2, 8: 3},  # a trial that refuses two candidates, and the first of the next chunk three
    {0: 1, 7: 1, 8: 1, 15: 1, 19: 1},
])
@pytest.mark.parametrize("raising", [(), (6,)])
def test_speculation_draws_what_the_per_trial_loop_draws(monkeypatch, refusals, raising):
    monkeypatch.setattr(suite_draws, "TRIAL_CHUNK", 8)  # chunks of trials 0-7, 8-15 and 16-19
    for seed in range(3):
        rng, ref = (np.random.default_rng(seed) for _ in range(2))
        spans = []
        got, want = _speculated(rng, 20, refusals, raising, spans), _per_trial(ref, 20, refusals)
        assert max(spans) <= 8  # the patched chunk holds: each gated group lies in one chunk
        assert list(got) == list(want) == list(range(20))
        for t in want:
            assert got[t][0] == want[t][0] and _same(got[t][1], want[t][1]) and _same(got[t][2], want[t][2])
        assert rng.bit_generator.state == ref.bit_generator.state


def test_speculation_returns_the_error_of_the_trial_that_raises_with_the_trials_before_it():
    # the whole range is speculated at once; trial 5, refused, raises as it is drawn again
    rng = np.random.default_rng(0)

    def draw(t, first):
        value = rng.standard_normal()
        if not first and t == 5:
            raise MatOrderError("trial 5 raises")
        return (), t, value

    spans = []

    def gate(ts, values):
        spans.append(_span(ts))
        return ts != 5, (ts, values)

    draws, error = _speculate(rng, range(12), draw, gate)
    assert list(draws) == [0, 1, 2, 3, 4] and str(error) == "trial 5 raises" and spans == [12]


@pytest.mark.parametrize("chunk", [1, 3, 8])
def test_trial_rows_come_in_trial_order_whatever_the_chunk(monkeypatch, chunk):
    # trials of two keys, one of them refused at trial 5: the rows, their order and the generator's end state are
    # those of one chunk of all trials
    refusals = {5: 1}

    def draw(t, first):
        n = int(rng.integers(1, 3))
        if first:
            return (n,), t, rng.standard_normal(n)
        k = itertools.count()
        take = _first(9, lambda: (next(k), rng.standard_normal(n)), lambda c: c[0] >= refusals.get(t, 0))
        return (n,), t, take[1]

    def gate(ts, xs):
        return np.array([int(t) not in refusals for t in ts]), (ts, xs)

    def finish(ts, xs):
        spans.append(_span(ts))
        return ts, 2.0 * xs

    rows = {}
    for size in (chunk, 20):
        monkeypatch.setattr(suite_draws, "TRIAL_CHUNK", size)
        rng, spans = np.random.default_rng(11), []
        rows[size] = [(t, key, row[0], row[1].tobytes()) for t, key, row in _trial_rows(rng, 20, draw, gate, finish)]
        rows[size].append(rng.bit_generator.state)
        assert max(spans) <= size  # the patched chunk holds: each finished group lies in one chunk
    assert rows[chunk] == rows[20] and [row[0] for row in rows[chunk][:-1]] == list(range(20))


def test_trial_rows_raise_a_drawing_error_after_the_rows_before_it(monkeypatch):
    # trial 6 raises where the per-trial loop draws it (speculatively, its gate refuses it first), in the second
    # chunk of 4 trials: the rows of trials 0-5 come first
    monkeypatch.setattr(suite_draws, "TRIAL_CHUNK", 4)
    rng = np.random.default_rng(0)

    def draw(t, first):
        value = rng.standard_normal()
        if not first and t == 6:
            raise MatOrderError("trial 6 raises")
        return (), t, value

    seen, spans = [], []

    def finish(ts, values):
        spans.append(_span(ts))
        return ts, values

    with pytest.raises(MatOrderError, match="^trial 6 raises$"):
        for t, _, _ in _trial_rows(rng, 10, draw, lambda ts, values: (ts != 6, (ts, values)), finish):
            seen.append(t)
    assert seen == [0, 1, 2, 3, 4, 5] and max(spans) <= 4
