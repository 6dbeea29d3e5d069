"""matorder: Loewner-order matrix analysis at desk scale.

Dense complex Hermitian kernel (eigen, inertia, order comparison, spectral
calculus), operator intervals and rank-one order tests, the generalized
upper half-plane with its Mobius automorphism group, local order
isomorphisms driven by a Hermitian base (membership criteria, congruence
orbits, parameter identification), block-corner maximal order isomorphisms
with signature classification, effect-algebra automorphisms, and
fixed-order matrix monotonicity testing via Loewner matrices and Pick
representations. A CLI (`matorder`) exposes classification, map
application, monotonicity checks, seeded verification suites, and instance
generation.
"""

from .config import DEFAULT_TOL, ToleranceConfig, parse_tolerance_overrides
from .errors import (
    DomainViolationError,
    MalformedInputError,
    MatOrderError,
    ModelMismatchError,
    PathSearchError,
)
# each module's __all__ is its public surface, re-exported whole
from .linalg import *
from .order import *
from .halfplane import *
from .localiso import *
from .classify import *
from .monotone import *

__version__ = "0.1.0"
