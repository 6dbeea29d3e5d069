"""Seeded random instance generators.

Everything takes an explicit numpy Generator so suites and tests are
deterministic per seed. Gated samplers rejection-sample against the
membership predicates they advertise.
"""

from __future__ import annotations

import numpy as np

from .errors import MatOrderError
from .linalg import herm_part, opnorm

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


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return herm_part(complex_gaussian(rng, n, n)) * scale


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(complex_gaussian(rng, n, n))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def random_hermitian_with_spectrum(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Random Hermitian with i.i.d. uniform eigenvalues in (lo, hi)."""
    values = rng.uniform(lo, hi, size=n)
    Q = random_unitary(rng, n)
    return herm_part((Q * values) @ Q.conj().T)


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return random_hermitian_with_spectrum(rng, n, 0.0, scale)


def random_effect(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random point of the effect algebra [0, I] (spectrum strictly inside)."""
    return random_hermitian_with_spectrum(rng, n, 0.02, 0.98)


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
    return T * (0.95 / opnorm(T))


def random_half_plane(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random point with positive definite imaginary part, margin >= 0.1."""
    X = random_hermitian(rng, n)
    Y = random_hermitian_with_spectrum(rng, n, 0.1, 1.5)
    return X + 1j * Y
