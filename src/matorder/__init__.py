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

__version__ = "0.1.0"

# each module's __all__ is its public surface, re-exported whole on the first lookup of a public name
_REEXPORTED = ("linalg", "order", "halfplane", "localiso", "classify", "monotone")


def __getattr__(name: str):
    """PEP 562: a submodule name loads that module alone; any other public name, or a star import's
    __all__, binds every re-exported module's __all__ in the order the star imports used."""
    import importlib

    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    for module in _REEXPORTED:
        mod = importlib.import_module(f"{__name__}.{module}")
        globals().update((public, getattr(mod, public)) for public in mod.__all__)
    if name not in globals():  # __all__ among them: a star import then binds the public names bound here
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]
