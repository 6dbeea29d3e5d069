"""Order automorphisms of the effect interval [0, I].

Every invertible frame T gives an automorphism X -> T(X(T*T - I) + I)^{-1}XT*
of the effect interval; it fixes both endpoints, preserves order in both
directions, and composes by the frame product. A second construction chains
two scalar rational reweightings with a contraction conjugation and factors
into four explicit stages; composed, the stages are again a frame
automorphism, the one FpqSpec carries as `spec.automorphism`.

Run: python3 demos/05_effect_automorphisms.py
"""

import numpy as np

from matorder.classify import (
    EffectAutoSpec,
    EffectEmbeddingSpec,
    FpqSpec,
    effect_automorphism,
    endpoint_continuity,
    rational_effect_automorphism,
    rational_effect_factors,
)
from matorder.linalg import loewner_compare, opnorm
from matorder.sampling import random_contraction, random_effect

rng = np.random.default_rng(43)
n = 3

T = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3 * np.eye(n)
phi = EffectAutoSpec(frame=T)

Z, I = np.zeros((n, n)), np.eye(n)
print("fixes 0:", f"{opnorm(effect_automorphism(phi, Z)):.2e}")
print("fixes I:", f"{opnorm(effect_automorphism(phi, I) - I):.2e}")

X = random_effect(rng, n)
Y = X + 0.5 * (I - X)
FX, FY = effect_automorphism(phi, X), effect_automorphism(phi, Y)
print("image spectrum within [0, 1]:",
      np.round(np.linalg.eigvalsh(FX), 4))
print("X <= Y preserved:", loewner_compare(FX, FY).leq)

# group law: the inverse automorphism uses the inverse frame
inv = EffectAutoSpec(frame=np.linalg.inv(T))
print("inverse frame undoes the map:",
      f"{opnorm(effect_automorphism(inv, FX) - X):.2e}")

# the rational construction, its frame form and its four-factor decomposition
spec = FpqSpec(p=0.35, q=-1.2, frame=random_contraction(rng, n))
framed = effect_automorphism(spec.automorphism, X)
f1, f2, f3, f4 = rational_effect_factors(spec)
chained = f4(f3(f2(f1(X))))
print("\nframe form vs four chained factors:",
      f"{opnorm(framed - chained):.2e}")
print("rational_effect_automorphism is the frame form:",
      f"{opnorm(rational_effect_automorphism(spec, X) - framed):.2e}")

# an embedding may override the value at I; continuity flags expose that
fixture = EffectEmbeddingSpec(
    frame=np.eye(2), base=np.zeros((2, 2)), offset=np.zeros((2, 2)),
    value_at_one=2.0 * np.eye(2),
)
print("\nendpoint continuity of the doubling fixture:",
      endpoint_continuity(fixture))
print("order preserved even with the far endpoint overridden: the map is an")
print("order embedding on the open interval and only the boundary value jumps")
