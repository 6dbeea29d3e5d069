"""Seeded random instance generators.

Everything takes an explicit numpy Generator so suites and tests are
deterministic per seed.

The samplers draw raw values from the generator (real normals, uniforms)
and then finish them in numpy: complex Gaussians, QR and phase fix,
V diag V*. The finishing bodies (_complex_from_normals,
_unitary_from_gaussians, _with_spectra) take stacks and draw nothing, so a
caller that needs many samples draws each sample's raw values in the
single-sample rng order, finishes all of them with one call of each body,
and gets every member bit for bit as the single-sample sampler returns it,
with the generator left in the same state. _spectrum_draws and
_half_plane_stack hold that order, and random_hermitian_with_spectrum and
random_half_plane are their one-sample case, so each order is written once.

A fixed-seed stack that library code checks against (fit_canonical's
validation points, identify_parameters' direction) is drawn once per
dimension by _seeded_draws and shared read-only.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import MatOrderError
from .linalg import _opnorms, herm_part

__all__ = [
    "complex_gaussian",
    "random_hermitian",
    "random_psd",
    "random_effect",
    "random_unitary",
    "random_invertible",
    "random_contraction",
    "random_half_plane",
    "random_hermitian_with_spectrum",
]

# Draws random_invertible makes before it gives up.
INVERTIBLE_ATTEMPTS = 200


def _complex_from_normals(N: np.ndarray) -> np.ndarray:
    """The complex Gaussians (N[..., 0, :, :] + i N[..., 1, :, :]) / sqrt(2) of a stack of real normal pairs."""
    return (N[..., 0, :, :] + 1j * N[..., 1, :, :]) / np.sqrt(2.0)


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return _complex_from_normals(rng.standard_normal((2, rows, cols)))


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return herm_part(complex_gaussian(rng, n, n)) * scale


def _unitary_from_gaussians(G: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack (..., n, n) of complex Gaussians: QR, with the phases of diag(R) moved into Q."""
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return _unitary_from_gaussians(complex_gaussian(rng, n, n))


def _with_spectra(values: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Q diag(values) Q* member by member, Q the unitary of the Gaussians G; values (..., n), G (..., n, n)."""
    Q = _unitary_from_gaussians(G)
    return herm_part((Q * values[..., None, :]) @ Q.conj().swapaxes(-1, -2))


def _spectrum_draws(rng: np.random.Generator, n: int, lo: float, hi: float, k: int):
    """The draws of k random_hermitian_with_spectrum calls in their rng order: values (k, n), Gaussians (k, n, n)."""
    values = np.empty((k, n))
    normals = np.empty((k, 2, n, n))
    for i in range(k):
        values[i] = rng.uniform(lo, hi, size=n)
        rng.standard_normal(out=normals[i])
    return values, _complex_from_normals(normals)


def random_hermitian_with_spectrum(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Random Hermitian with i.i.d. uniform eigenvalues in (lo, hi)."""
    return _with_spectra(*_spectrum_draws(rng, n, lo, hi, 1))[0]


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return random_hermitian_with_spectrum(rng, n, 0.0, scale)


# The open interval random_effect draws its eigenvalues from.
EFFECT_SPECTRUM = (0.02, 0.98)


def random_effect(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random point of the effect algebra [0, I] (spectrum strictly inside)."""
    return random_hermitian_with_spectrum(rng, n, *EFFECT_SPECTRUM)


def random_invertible(rng: np.random.Generator, n: int, max_cond: float = 40.0) -> np.ndarray:
    for _ in range(INVERTIBLE_ATTEMPTS):
        T = complex_gaussian(rng, n, n)
        sv = np.linalg.svd(T, compute_uv=False)
        if sv[-1] > 0 and sv[0] / sv[-1] <= max_cond:
            return T
    raise MatOrderError("failed to sample a well-conditioned invertible matrix")


def random_contraction(rng: np.random.Generator, n: int) -> np.ndarray:
    """Invertible strict contraction: ||T||_2 = 0.95."""
    T = random_invertible(rng, n)
    return T * (0.95 / _opnorms(T))


# The open interval random_half_plane draws the eigenvalues of the imaginary part from.
HALF_PLANE_SPECTRUM = (0.1, 1.5)


def random_half_plane(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random point with positive definite imaginary part, margin >= 0.1."""
    return _half_plane_stack(rng, n, 1)[0]


def _half_plane_stack(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k random_half_plane points (k, n, n), drawn in their rng order and finished as one stack."""
    real = np.empty((k, 2, n, n))
    values = np.empty((k, n))
    imag = np.empty((k, 2, n, n))
    for i in range(k):
        rng.standard_normal(out=real[i])
        values[i] = rng.uniform(*HALF_PLANE_SPECTRUM, size=n)
        rng.standard_normal(out=imag[i])
    return herm_part(_complex_from_normals(real)) + 1j * _with_spectra(values, _complex_from_normals(imag))


@functools.lru_cache(maxsize=64)
def _seeded_draws(sampler: Callable, seed: int, n: int, k: int) -> np.ndarray:
    """The k samples sampler(rng, n) of default_rng(seed), in order, as one read-only stack (k, n, n).

    Cached: the draws are built once per argument tuple (in practice, once
    per dimension) and every caller shares the same array.
    """
    rng = np.random.default_rng(seed)
    stack = np.stack([sampler(rng, n) for _ in range(k)])
    stack.flags.writeable = False
    return stack
