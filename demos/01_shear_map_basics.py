"""Shear maps on Hermitian matrices: apply, invert, and certify membership.

The central object is the map X -> (X A + I)^{-1} X attached to a Hermitian
base A. It is defined wherever X A + I is invertible, fixes 0, and the map
built from -A undoes it. This script walks through those facts numerically.

Run: python3 demos/01_shear_map_basics.py
"""

import numpy as np

from matorder.linalg import hermitian_eigen, is_invertible, jacobi_eigen, opnorm
from matorder.localiso import (
    congruence_orbit,
    in_shear_domain,
    in_zero_component,
    interval_below_criterion,
    path_to_zero,
    segment_in_shear_domain,
    shear_apply,
)
from matorder.sampling import random_hermitian

rng = np.random.default_rng(7)
n = 3

A = random_hermitian(rng, n)
X = random_hermitian(rng, n) * 0.4

# LAPACK and the self-contained cyclic Jacobi engine agree on the spectrum
print("base A eigenvalues:", np.round(hermitian_eigen(A).values, 3))
print("the same by Jacobi rotations:", np.round(jacobi_eigen(A).values, 3))
print("in shear domain:", in_shear_domain(A, X))
# the domain is exactly where X A + I is invertible
print("X A + I invertible:", is_invertible(X @ A + np.eye(n)))
print("in the connected component of 0:", in_zero_component(A, X))

Y = shear_apply(A, X)
print("\nimage Y = (XA + I)^-1 X:")
print(np.round(Y, 4))

# the mirrored base inverts the map
back = shear_apply(-A, Y)
print("\nround trip error |shear(-A, shear(A, X)) - X| =",
      f"{opnorm(back - X):.2e}")

# the left and the right formulas agree
left = np.linalg.solve(X @ A + np.eye(n), X)
right = np.linalg.solve((A @ X + np.eye(n)).T, X.T).T
print("left vs right formula gap =", f"{opnorm(left - right):.2e}")

# membership in the component of 0 has an exact inertia criterion; a
# randomized piecewise-linear path search certifies it independently
result = path_to_zero(A, X, seed=0)
print("\npath search found a path:", result.found,
      f"({result.nodes_used} nodes used: 0, X and the waypoints drawn)")
if result.found:
    print("path length in segments:", len(result.path) - 1)

# the whole interval [0, P] of a PSD member P lies in the component iff the
# lowest eigenvalue of P^(1/2) A P^(1/2) stays above -1
P = 0.3 * X @ X
print("interval [0, P] inside the component:", interval_below_criterion(A, P))
# the shear image of the base under X is congruent to the base, T A T*
T = congruence_orbit(A, X)
print("congruence gap |shear(X, A) - T A T*| =",
      f"{opnorm(shear_apply(X, A) - T @ A @ T.conj().T):.2e}")

# a point beyond the singular surface is outside the component even
# though the map itself is still defined there
X_far = np.diag([-3.0, 0.0, 0.0]).astype(complex)
A_diag = np.diag([2.0, -1.0, 0.5]).astype(complex)
print("\nfar point: in domain =", in_shear_domain(A_diag, X_far),
      "| in zero component =", in_zero_component(A_diag, X_far))
# the straight segment from 0 to it crosses the surface where X A + I is singular
print("segment [0, X_far] inside the shear domain:",
      segment_in_shear_domain(A_diag, np.zeros((n, n)), X_far))
