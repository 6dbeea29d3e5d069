"""The Hermitian shear map is a local order isomorphism.

On the connected component of 0 the map preserves the semidefinite order in
both directions whenever the segment between two points stays inside the
domain. This script samples gated pairs, maps them, and checks the order
before and after, including strictness and incomparability. A congruence of
the shear map, X -> T Phi_A(X) T*, is again a local order isomorphism, and
its parameters can be read back from the map alone.

Run: python3 demos/02_order_preservation.py
"""

import numpy as np

from matorder.halfplane import MobiusAutomorphism
from matorder.linalg import loewner_compare, opnorm
from matorder.localiso import (
    apply_local_iso,
    identify_parameters,
    in_zero_component,
    order_iso_apply,
    segment_in_zero_component,
)
from matorder.sampling import random_hermitian, random_invertible, random_psd

rng = np.random.default_rng(11)
n = 3

A = random_hermitian(rng, n)


def member(scale):
    for _ in range(200):
        X = random_hermitian(rng, n) * scale
        if in_zero_component(A, X):
            return X
    raise RuntimeError("sampling failed")


ordered = strict = incomparable = 0
for _ in range(200):
    X = member(0.2)
    bump = random_psd(rng, n) * 0.05
    Y = X + bump
    if not in_zero_component(A, Y) or not segment_in_zero_component(A, X, Y):
        continue
    P, Q = order_iso_apply(A, X), order_iso_apply(A, Y)
    v_in, v_out = loewner_compare(X, Y), loewner_compare(P, Q)
    assert v_in.leq and v_out.leq, "order must survive the map"
    ordered += 1
    if v_in.lt:
        assert v_out.lt, "strict order must survive"
        strict += 1

for _ in range(200):
    X, D = member(0.2), member(0.2)
    if not loewner_compare(X, D).incomparable:
        continue
    if not segment_in_zero_component(A, X, D):
        continue
    if loewner_compare(order_iso_apply(A, X), order_iso_apply(A, D)).incomparable:
        incomparable += 1

print(f"ordered pairs mapped to ordered pairs : {ordered}")
print(f"  of which strict stayed strict       : {strict}")
print(f"incomparable pairs stayed incomparable: {incomparable}")
print("\nevery gated pair preserved its order relation through the map")

# the congruence X -> T Phi_A(X) T* of the map, evaluated as a black box;
# identify_parameters recovers (A, T) from its values near 0
iso = MobiusAutomorphism(frame=random_invertible(rng, n), A=A)
black_box = lambda X: apply_local_iso(iso, X)
refit = identify_parameters(black_box, n)
points = [member(0.2) for _ in range(20)]
worst = max(opnorm(apply_local_iso(refit, X) - black_box(X)) for X in points)
print(f"\nrecovered base error: {opnorm(refit.A - A):.2e}")
print(f"recovered map, worst error over 20 members: {worst:.2e}")
