"""Stacked samplers: every member bit for bit the per-sample draw, in the same rng order."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder import suites
from matorder.classify import BlockMapSpec
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
    got = suites._block_samples(rng, BlockMapSpec(n, m, p), k)
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
        assert _same(suites._with_spectrum(rng, vals), _with_spectrum_ref(ref, vals))
    assert rng.bit_generator.state == ref.bit_generator.state
