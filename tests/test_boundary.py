"""The public boundary of the hot maps and membership predicates.

Each of these functions validates its matrix arguments once, on entry, and
hands exactly Hermitian (or square) arrays to a private kernel. The first
group of tests pins what the boundary rejects: every malformed argument
raises MalformedInputError with the message naming the argument. The second
group counts validations per call.
"""

import sys

import numpy as np
import pytest

from matorder.classify import (
    BlockMapSpec,
    FpqSpec,
    block_map_apply,
    in_block_domain,
    rational_effect_automorphism,
    signature_class,
)
from matorder.errors import MalformedInputError
from matorder.halfplane import MobiusAutomorphism, apply_mobius, in_half_plane
from matorder.localiso import (
    in_zero_component,
    order_iso_apply,
    segment_in_shear_domain,
    segment_in_zero_component,
    shear_apply,
)
from matorder.monotone import PickRepresentation, pick_eval

BASE = np.diag([1.0, -0.5]).astype(complex)
SMALL = 0.1 * np.array([[0.5, 0.2j], [-0.2j, 0.3]])
CORNER_POSITIVE = np.array([[1.0, 0.3], [0.3, -0.4]], dtype=complex)
HALF_PLANE_POINT = np.array([[0.2, 0.1], [0.1, -0.3]]) + 1j * np.eye(2)
MOBIUS = MobiusAutomorphism(frame=np.eye(2), A=0.1 * np.eye(2), B=np.zeros((2, 2)), C=np.zeros((2, 2)))
FPQ = FpqSpec(p=0.5, q=-1.0, frame=0.8 * np.eye(2))
PICK = PickRepresentation(c=0.0, d=0.5, atoms=((-3.0, 1.0), (2.5, 1.0)), interval=(-1.0, 1.0))
BLOCK = BlockMapSpec(2, 1, 1)

BAD = {
    "non-square": (np.zeros((2, 3)), "{} must be square"),
    "vector": (np.zeros(2), "{} must be square"),
    "nan": (np.diag([np.nan, 0.1]), "{} has non-finite entries"),
    "inf": (np.diag([0.1, np.inf]), "{} has non-finite entries"),
    "complex-inf": (np.diag([0.1, complex(0.0, np.inf)]), "{} has non-finite entries"),
    "non-hermitian": (0.1 * np.array([[0.0, 1.0], [-1.0, 0.0]]), "{} is not Hermitian"),
    "mismatch": (0.1 * np.eye(3), "dimension mismatch"),
}
SQUARE = ("non-square", "vector", "nan", "inf", "complex-inf")
SQUARE_SIZED = SQUARE + ("mismatch",)
HERMITIAN = SQUARE + ("non-hermitian",)
HERMITIAN_SIZED = HERMITIAN + ("mismatch",)

# (function, argument name as the error message gives it, call with that
# argument, malformed kinds it rejects, a value the call accepts)
BOUNDARY = [
    ("in_zero_component", "base", lambda M: in_zero_component(M, SMALL), HERMITIAN_SIZED, BASE),
    ("in_zero_component", "X", lambda M: in_zero_component(BASE, M), HERMITIAN_SIZED, SMALL),
    ("order_iso_apply", "base", lambda M: order_iso_apply(M, SMALL), HERMITIAN_SIZED, BASE),
    ("order_iso_apply", "X", lambda M: order_iso_apply(BASE, M), HERMITIAN_SIZED, SMALL),
    ("shear_apply", "base", lambda M: shear_apply(M, SMALL), HERMITIAN_SIZED, BASE),
    ("shear_apply", "X", lambda M: shear_apply(BASE, M), SQUARE_SIZED, SMALL),
    ("in_block_domain", "X", lambda M: in_block_domain(BLOCK, M), HERMITIAN_SIZED, CORNER_POSITIVE),
    ("block_map_apply", "X", lambda M: block_map_apply(BLOCK, M), HERMITIAN_SIZED, CORNER_POSITIVE),
    ("in_half_plane", "matrix", lambda M: in_half_plane(M), SQUARE, HALF_PLANE_POINT),
    ("apply_mobius", "matrix", lambda M: apply_mobius(MOBIUS, M), SQUARE_SIZED, HALF_PLANE_POINT),
    ("rational_effect_automorphism", "X", lambda M: rational_effect_automorphism(FPQ, M), HERMITIAN_SIZED,
     0.5 * np.eye(2)),
    ("signature_class", "A", lambda M: signature_class(M), HERMITIAN, BASE),
    ("pick_eval", "argument", lambda M: pick_eval(PICK, M), SQUARE, SMALL),
]


@pytest.mark.parametrize(
    "call, kind, message",
    [
        pytest.param(call, kind, BAD[kind][1].format(arg), id=f"{fn}-{arg}-{kind}")
        for fn, arg, call, kinds, _ in BOUNDARY
        for kind in kinds
    ],
)
def test_malformed_argument_is_rejected(call, kind, message):
    with pytest.raises(MalformedInputError, match=message):
        call(BAD[kind][0])


@pytest.mark.parametrize("segment_test", [segment_in_shear_domain, segment_in_zero_component])
def test_segment_endpoint_of_another_dimension_is_malformed(segment_test):
    # the far endpoint used to reach numpy broadcasting unchecked
    with pytest.raises(MalformedInputError, match="dimension mismatch"):
        segment_test(BASE, SMALL, BAD["mismatch"][0])


def test_boundary_calls_accept_a_well_formed_argument():
    # each malformed case above differs from an accepted call in one argument only
    for _, _, call, _, accepted in BOUNDARY:
        call(accepted)


# ---------------------------------------------------------------------------
# validate once


@pytest.fixture
def validations(monkeypatch):
    """Count outermost as_square/as_hermitian calls per argument object.

    The counter replaces the binding in every matorder namespace, so a
    nested call through any module is seen; a validator called from inside
    another (as_hermitian calls as_square) is not counted again.
    """
    from matorder import linalg

    counts = {}
    depth = [0]

    def counting(fn):
        def wrapper(X, *args, **kwargs):
            if depth[0] == 0:
                counts[id(X)] = counts.get(id(X), 0) + 1
            depth[0] += 1
            try:
                return fn(X, *args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    wrappers = {name: counting(getattr(linalg, name)) for name in ("as_square", "as_hermitian")}
    for modname, module in list(sys.modules.items()):
        if modname == "matorder" or modname.startswith("matorder."):
            for name, wrapper in wrappers.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize(
    "call, arguments",
    [
        pytest.param(lambda A, X: order_iso_apply(A, X), (BASE, SMALL), id="order_iso_apply"),
        pytest.param(lambda A, X: in_zero_component(A, X), (BASE, SMALL), id="in_zero_component"),
        pytest.param(lambda A, X: in_zero_component(A, X), (BASE, -4.0 * np.eye(2)), id="in_zero_component-outside"),
        pytest.param(lambda X: block_map_apply(BLOCK, X), (CORNER_POSITIVE,), id="block_map_apply"),
        pytest.param(lambda Z: apply_mobius(MOBIUS, Z), (HALF_PLANE_POINT,), id="apply_mobius"),
        pytest.param(lambda X: rational_effect_automorphism(FPQ, X), (0.5 * np.eye(2),),
                     id="rational_effect_automorphism"),
        pytest.param(lambda X: pick_eval(PICK, X), (SMALL,), id="pick_eval-hermitian"),
        pytest.param(lambda Z: pick_eval(PICK, Z), (HALF_PLANE_POINT,), id="pick_eval-half-plane"),
    ],
)
def test_each_matrix_argument_is_validated_once(validations, call, arguments):
    call(*arguments)
    assert validations == {id(M): 1 for M in arguments}
