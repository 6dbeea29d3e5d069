"""The public boundary of the hot maps and membership predicates.

Each of these functions validates its matrix arguments once, on entry, and
hands exactly Hermitian (or square) arrays to a private kernel. The first
group of tests pins what the boundary rejects: every malformed argument
raises MalformedInputError with the message naming the argument. The second
group sweeps every public function that takes two or more matrices with one
of them resized, and checks that the tolerances passed reach validation.
The third group counts validations per call.
"""

import sys

import numpy as np
import pytest

from matorder.classify import (
    BlockMapSpec,
    EffectAutoSpec,
    EffectEmbeddingSpec,
    FpqSpec,
    are_equivalent,
    block_map_apply,
    bordered_arrangement,
    bordered_embedding,
    class_count,
    effect_automorphism,
    effect_embedding_map,
    enumerate_signatures,
    growth_direction,
    in_block_domain,
    rational_effect_automorphism,
    signature_class,
)
from matorder.config import DEFAULT_TOL
from matorder.errors import DomainViolationError, MalformedInputError, ModelMismatchError
from matorder.halfplane import (MobiusAutomorphism, apply_mobius, fit_canonical, in_half_plane, mobius_fix01_matrix,
                                normalize_phase)
from matorder.linalg import herm_part, jacobi_eigen, loewner_compare, opnorm, spectral_apply
from matorder.localiso import (
    apply_local_iso,
    congruence_orbit,
    conjugated_base,
    identify_parameters,
    in_shear_domain,
    in_zero_component,
    interval_below_criterion,
    order_iso_apply,
    path_to_zero,
    segment_in_shear_domain,
    segment_in_zero_component,
    shear_apply,
    translated_base,
)
from matorder.monotone import PickRepresentation, builtin_function, is_matrix_monotone, pick_eval
from matorder.order import OperatorInterval, affine_interval_iso, interval_contains, rank_one_leq
from matorder.suites import run_suite

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
    "empty": (np.zeros((0, 0)), "{} is empty"),
    "nan": (np.diag([np.nan, 0.1]), "{} has non-finite entries"),
    "inf": (np.diag([0.1, np.inf]), "{} has non-finite entries"),
    "complex-inf": (np.diag([0.1, complex(0.0, np.inf)]), "{} has non-finite entries"),
    "non-hermitian": (0.1 * np.array([[0.0, 1.0], [-1.0, 0.0]]), "{} is not Hermitian"),
    "mismatch": (0.1 * np.eye(3), "dimension mismatch"),
}
SQUARE = ("non-square", "vector", "empty", "nan", "inf", "complex-inf")
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
    # the determinant-sign certificate of a segment holds for Hermitian ends only
    ("segment_in_shear_domain", "X", lambda M: segment_in_shear_domain(BASE, M, SMALL), HERMITIAN_SIZED, SMALL),
    ("segment_in_shear_domain", "Y", lambda M: segment_in_shear_domain(BASE, SMALL, M), HERMITIAN_SIZED, SMALL),
    ("in_block_domain", "X", lambda M: in_block_domain(BLOCK, M), HERMITIAN_SIZED, CORNER_POSITIVE),
    ("block_map_apply", "X", lambda M: block_map_apply(BLOCK, M), HERMITIAN_SIZED, CORNER_POSITIVE),
    ("in_half_plane", "matrix", lambda M: in_half_plane(M), SQUARE, HALF_PLANE_POINT),
    ("apply_mobius", "matrix", lambda M: apply_mobius(MOBIUS, M), SQUARE_SIZED, HALF_PLANE_POINT),
    ("rational_effect_automorphism", "X", lambda M: rational_effect_automorphism(FPQ, M), HERMITIAN_SIZED,
     0.5 * np.eye(2)),
    ("signature_class", "A", lambda M: signature_class(M), HERMITIAN, BASE),
    ("pick_eval", "argument", lambda M: pick_eval(PICK, M), SQUARE, SMALL),
    # it used to index its argument as an ndarray, so that a list raised TypeError
    ("normalize_phase", "T", lambda M: normalize_phase(M), SQUARE, [[1, 2], [3, 4]]),
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
# one dimension check

EYE = np.eye(2, dtype=complex)
RANK_ONE = np.outer([0.3, 0.1j], [0.3, -0.1j])

# every public function, and every constructor behind it, that takes two or
# more matrices: (name, call, 2x2 arguments the call accepts)
MULTI_MATRIX = [
    ("loewner_compare", loewner_compare, (SMALL, BASE)),
    ("interval_contains", lambda lo, hi, X: interval_contains(OperatorInterval(lo, hi), X),
     (0 * EYE, EYE, 0.5 * EYE)),
    ("rank_one_leq", rank_one_leq, (RANK_ONE, EYE)),
    ("affine_interval_iso", lambda A, B, X: affine_interval_iso(A, B).forward(X), (0 * EYE, EYE, 0.5 * EYE)),
    ("in_shear_domain", in_shear_domain, (BASE, SMALL)),
    ("shear_apply", shear_apply, (BASE, SMALL)),
    ("in_zero_component", in_zero_component, (BASE, SMALL)),
    ("segment_in_shear_domain", segment_in_shear_domain, (BASE, SMALL, 0.5 * SMALL)),
    ("segment_in_zero_component", segment_in_zero_component, (BASE, SMALL, 0.5 * SMALL)),
    ("interval_below_criterion", interval_below_criterion, (BASE, 0.1 * EYE)),
    ("order_iso_apply", order_iso_apply, (BASE, SMALL)),
    ("translated_base", translated_base, (BASE, SMALL)),
    ("conjugated_base", conjugated_base, (BASE, 2.0 * EYE)),
    ("congruence_orbit", congruence_orbit, (BASE, SMALL)),
    ("path_to_zero", path_to_zero, (BASE, SMALL)),
    ("apply_local_iso", lambda T, A, X: apply_local_iso(MobiusAutomorphism(frame=T, A=A), X), (EYE, BASE, SMALL)),
    ("apply_mobius", lambda T, A, B, C, Z: apply_mobius(MobiusAutomorphism(T, A, B, C), Z),
     (EYE, 0.1 * EYE, SMALL, SMALL, HALF_PLANE_POINT)),
    ("fit_canonical", lambda X0, Y0: fit_canonical(lambda Z: apply_mobius(MOBIUS, Z), 2, anchor=(X0, Y0)),
     (SMALL, apply_mobius(MOBIUS, SMALL))),
    ("are_equivalent", are_equivalent, (BASE, SMALL)),
    ("effect_automorphism", lambda T, X: effect_automorphism(EffectAutoSpec(T), X), (2.0 * EYE, 0.5 * EYE)),
    ("rational_effect_automorphism", lambda T, X: rational_effect_automorphism(FpqSpec(0.5, -1.0, T), X),
     (0.8 * EYE, 0.5 * EYE)),
    ("effect_embedding_map",
     lambda T, A, C, v0, v1, X: effect_embedding_map(EffectEmbeddingSpec(T, A, C, v0, v1), X),
     (EYE, 0 * EYE, 0 * EYE, -EYE, 2.0 * EYE, 0.5 * EYE)),
]


def grown(M):
    """M as the leading corner of a 3x3 matrix of the same kind (Hermitian, effect, frame, half-plane point)."""
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = M
    out[2, 2] = M[0, 0]
    return out


def shrunk(M):
    """The 1x1 leading corner of M, which numpy would broadcast against a 2x2 operand."""
    return M[:1, :1]


@pytest.mark.parametrize(
    "call, arguments",
    [
        pytest.param(call, args[:i] + (resize(args[i]),) + args[i + 1:], id=f"{name}-{i}-{resize.__name__}")
        for name, call, args in MULTI_MATRIX
        for i in range(len(args))
        for resize in (grown, shrunk)
    ],
)
def test_matrix_of_another_dimension_is_malformed(call, arguments):
    with pytest.raises(MalformedInputError, match="dimension mismatch"):
        call(*arguments)


def test_multi_matrix_calls_accept_matching_dimensions():
    # each mismatched case above differs from an accepted call in one argument only
    for _, call, args in MULTI_MATRIX:
        call(*args)


def test_dimension_defects_raise_malformed_input():
    # each used to reach numpy: a raw ValueError, a 1x1 argument broadcast to a 3x3 result,
    # and an evaluator value of the wrong size met in a broadcast
    with pytest.raises(MalformedInputError, match="dimension mismatch"):
        conjugated_base(np.eye(2), np.eye(3))
    with pytest.raises(MalformedInputError, match="dimension mismatch"):
        affine_interval_iso(np.zeros((3, 3)), np.eye(3)).forward([[0.5]])
    for anchor in (None, (np.zeros((2, 2)), np.zeros((2, 2)))):
        with pytest.raises(MalformedInputError, match=r"^dimension mismatch: 3x3 vs 2x2$"):
            fit_canonical(lambda Z: 1j * np.eye(3), 2, anchor=anchor)


@pytest.mark.parametrize("recover", [fit_canonical, identify_parameters], ids=lambda f: f.__name__)
def test_evaluator_values_are_checked_as_evaluator_values(recover):
    # identify_parameters used to fail on an intermediate: `matrix must be square, got shape (3, 2)`
    with pytest.raises(MalformedInputError, match=r"^dimension mismatch: 3x3 vs 2x2$"):
        recover(lambda Z: np.eye(3), 2)
    with pytest.raises(MalformedInputError, match=r"^evaluator value must be square, got shape \(2, 3\)$"):
        recover(lambda Z: np.ones((2, 3)), 2)
    with pytest.raises(MalformedInputError, match=r"^evaluator value has non-finite entries$"):
        recover(lambda Z: np.full((2, 2), np.nan), 2)


@pytest.mark.parametrize("recover", [fit_canonical, identify_parameters], ids=lambda f: f.__name__)
def test_a_dimension_that_is_no_integer_is_malformed(recover):
    # each used to raise TypeError from numpy or from the comparison with 1
    evaluator = lambda Z: np.zeros((2, 2))
    for dim, kind in ((2.0, "float"), (2.5, "float"), ("2", "str"), (None, "NoneType")):
        with pytest.raises(MalformedInputError, match=rf"^dim must be an integer, got {kind}$"):
            recover(evaluator, dim)
    with pytest.raises(MalformedInputError, match=r"^dim must be positive$"):
        recover(evaluator, np.int64(0))
    # a numpy integer is an integer
    assert recover(lambda Z: apply_mobius(MOBIUS, Z) if recover is fit_canonical else Z, np.int64(2)).dim == 2


def test_a_node_budget_or_seed_that_is_no_integer_is_malformed():
    # X is reached through waypoints, whose draw used to end in numpy's
    # `TypeError: expected a sequence of integers` at max_nodes=150.0
    X = np.diag([-3.0, 3.0])
    for kwargs, message in (({"max_nodes": 150.0}, r"^max_nodes must be an integer, got float$"),
                            ({"max_nodes": "150"}, r"^max_nodes must be an integer, got str$"),
                            ({"seed": 1.5}, r"^seed must be an integer, got float$"),
                            ({"seed": None}, r"^seed must be an integer, got NoneType$"),
                            ({"seed": -1}, r"^seed must be non-negative$")):
        with pytest.raises(MalformedInputError, match=message):
            path_to_zero(BASE, X, **kwargs)
    # numpy integers are integers
    got, want = path_to_zero(BASE, X, seed=np.int64(0), max_nodes=np.int64(150)), path_to_zero(BASE, X, max_nodes=150)
    assert got.found and (got.nodes_used, len(got.path)) == (want.nodes_used, len(want.path))
    assert all(np.array_equal(P, Q) for P, Q in zip(got.path, want.path))


SQRT = builtin_function("sqrt")


@pytest.mark.parametrize("call, message", [
    # numpy used to raise TypeError at order 2.5, and a negative seed ValueError
    pytest.param(lambda: is_matrix_monotone(SQRT, 2.5), r"^order must be an integer, got float$", id="order-float"),
    pytest.param(lambda: is_matrix_monotone(SQRT, 0), r"^order must be positive$", id="order-zero"),
    pytest.param(lambda: is_matrix_monotone(SQRT, 2, trials=-3), r"^trials must be positive$", id="trials-negative"),
    pytest.param(lambda: is_matrix_monotone(SQRT, 2, trials=2.0), r"^trials must be an integer, got float$",
                 id="trials-float"),
    pytest.param(lambda: is_matrix_monotone(SQRT, 2, seed=-1), r"^seed must be non-negative$", id="seed-negative"),
    pytest.param(lambda: run_suite("class-count", seed=-1), r"^seed must be non-negative$", id="suite-seed-negative"),
    # trials used to be truncated by int(), 2.5 running 2 trials
    pytest.param(lambda: run_suite("class-count", trials=2.5), r"^trials must be an integer, got float$",
                 id="suite-trials-float"),
    pytest.param(lambda: run_suite("class-count", trials=0), r"^trials must be positive$", id="suite-trials-zero"),
    # class_count(2.5) used to return 7.0 and enumerate_signatures(2.5) to raise TypeError; enumerate_signatures(-2)
    # returned [] where class_count(-2) refused
    pytest.param(lambda: class_count(2.5), r"^n must be an integer, got float$", id="class-count-float"),
    pytest.param(lambda: class_count(-2), r"^n must be non-negative$", id="class-count-negative"),
    pytest.param(lambda: enumerate_signatures(2.5), r"^n must be an integer, got float$", id="signatures-float"),
    pytest.param(lambda: enumerate_signatures(-2), r"^n must be non-negative$", id="signatures-negative"),
])
def test_monotone_and_suite_integers_are_checked(call, message):
    with pytest.raises(MalformedInputError, match=message):
        call()


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: MobiusAutomorphism(frame=np.diag([1.0, 0.0]), A=BASE), MalformedInputError,
                 r"^frame must be invertible$", id="mobius-singular-frame"),
    pytest.param(lambda: FpqSpec(0.5, -1.0, np.diag([0.8, 0.0])), MalformedInputError, r"^frame must be bijective$",
                 id="fpq-singular-frame"),
    pytest.param(lambda: EffectEmbeddingSpec(EYE, -EYE, 0 * EYE), MalformedInputError, r"^base must be > -I$",
                 id="embedding-base"),
    pytest.param(lambda: EffectEmbeddingSpec(EYE, 0 * EYE, 0 * EYE, value_at_zero=EYE), MalformedInputError,
                 r"^value_at_zero must be <= offset$", id="embedding-value-at-zero"),
    pytest.param(lambda: EffectEmbeddingSpec(EYE, 0 * EYE, 0 * EYE, value_at_one=0 * EYE), MalformedInputError,
                 r"^value_at_one must be >= the interior value at I$", id="embedding-value-at-one"),
    pytest.param(lambda: BlockMapSpec(2, 1, 2), MalformedInputError, r"^need 0 <= p <= m <= n, got \(n=2, m=1, p=2\)$",
                 id="block-sizes"),
    pytest.param(lambda: OperatorInterval(EYE, EYE, lower_closed=False), MalformedInputError,
                 r"^need lower < upper when an endpoint is open$", id="open-interval"),
    pytest.param(lambda: affine_interval_iso(EYE, 0 * EYE), DomainViolationError, r"^need A <= B$", id="iso-unordered"),
    pytest.param(lambda: affine_interval_iso(EYE, EYE), DomainViolationError, r"^need A != B$", id="iso-equal"),
    pytest.param(lambda: affine_interval_iso(0 * EYE, np.diag([1.0, 0.0])).backward(EYE), MalformedInputError,
                 r"^expected a 1x1 effect$", id="iso-backward-size"),
    pytest.param(lambda: pick_eval(PICK, np.array([[0.0, 1.0], [0.0, 0.0]])), DomainViolationError,
                 r"^argument must be scalar, Hermitian, or a half-plane point$", id="pick-argument"),
    pytest.param(lambda: identify_parameters(lambda Z: Z + EYE, 2), ModelMismatchError,
                 r"^evaluator\(0\) = 1\.414e\+00, expected 0$", id="identify-value-at-zero"),
    pytest.param(lambda: identify_parameters(lambda Z: Z + np.trace(Z) * EYE, 2), ModelMismatchError,
                 r"^derivative at 0 is not of congruence form$", id="identify-derivative"),
    pytest.param(lambda: spectral_apply(EYE, np.log, domain=(0.0, 1.0)), DomainViolationError,
                 r"^eigenvalue 1 within margin of domain edge 1\.0$", id="spectral-upper-edge"),
    pytest.param(lambda: spectral_apply(EYE, lambda x: 1.0 / (x - 1.0), poles=(1.0,)), DomainViolationError,
                 r"^eigenvalue within margin of pole at 1\.0$", id="spectral-pole"),
    pytest.param(lambda: spectral_apply(EYE, lambda x: np.inf), DomainViolationError,
                 r"^function value not finite on the spectrum$", id="spectral-non-finite"),
    # a Hermitian argument near the pole -1 used to pass an absolute guard of its own and return entries of 4e7;
    # it now meets the one invertibility gate that refused its non-Hermitian neighbour
    pytest.param(lambda: mobius_fix01_matrix(0.5, np.diag([-1.0 + 5e-8, 100.0])), DomainViolationError,
                 r"^resolvent of the map is numerically singular$", id="fix01-hermitian-near-pole"),
    pytest.param(lambda: mobius_fix01_matrix(0.5, np.array([[-1.0 + 5e-8, 1e-3j], [0.0, 100.0]])),
                 DomainViolationError, r"^resolvent of the map is numerically singular$", id="fix01-near-pole"),
    # pick_eval used to accept a spectrum within inv_margin of an end, which the spectral route refuses
    pytest.param(lambda: pick_eval(PICK, np.diag([0.0, 1.0 - 5e-9])), DomainViolationError,
                 r"^eigenvalue 1 within margin of domain edge 1\.0$", id="pick-near-edge"),
    pytest.param(lambda: spectral_apply(np.diag([0.0, 1.0 - 5e-9]), PICK.scalar_function(), PICK.interval),
                 DomainViolationError, r"^eigenvalue 1 within margin of domain edge 1\.0$",
                 id="pick-spectral-near-edge"),
    pytest.param(lambda: pick_eval(PICK, 2.0), DomainViolationError,
                 r"^2\.0 is outside the domain \(-1\.0, 1\.0\) of pick$", id="pick-scalar-outside"),
    # the singular evaluator values below used to end in numpy's LinAlgError: Singular matrix
    pytest.param(lambda: fit_canonical(lambda Z: 1j * EYE if np.allclose(Z, 1j * EYE) else 0 * EYE, 2),
                 ModelMismatchError, r"^evaluator value at a probe is singular under the provisional map$",
                 id="fit-singular-probe"),
    pytest.param(lambda: identify_parameters(lambda H: H if np.linalg.norm(H, 2) < 1e-3 else 0 * EYE, 2),
                 ModelMismatchError, r"^evaluator value at a base sample is singular$", id="identify-singular-sample"),
    # opnorm used to raise IndexError on an empty array and LinAlgError on a NaN, and to return nan on an inf;
    # on a vector it raised LinAlgError and on a stack TypeError
    pytest.param(lambda: opnorm(np.zeros((0, 0))), MalformedInputError, r"^opnorm needs a nonempty array$",
                 id="opnorm-empty"),
    pytest.param(lambda: opnorm([[np.nan, 0.0], [0.0, 1.0]]), MalformedInputError, r"^opnorm needs finite entries$",
                 id="opnorm-nan"),
    pytest.param(lambda: opnorm([[np.inf]]), MalformedInputError, r"^opnorm needs finite entries$", id="opnorm-inf"),
    pytest.param(lambda: opnorm(np.ones(3)), MalformedInputError, r"^opnorm needs a 2-d array$", id="opnorm-vector"),
    pytest.param(lambda: opnorm(np.ones((3, 2, 2))), MalformedInputError, r"^opnorm needs a 2-d array$",
                 id="opnorm-stack"),
])
def test_each_refusal_states_its_reason(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_block_sizes_that_are_no_integers_are_malformed():
    # in_block_domain(BlockMapSpec(3, 1.5, 0), I) and bordered_embedding(2.5, X) used to end in numpy's TypeError
    for sizes, key, kind in (((3, 1.5, 0), "m", "float"), ((3.0, 1, 0), "n", "float"), ((3, 1, "1"), "p", "str")):
        with pytest.raises(MalformedInputError, match=rf"^{key} must be an integer, got {kind}$"):
            in_block_domain(BlockMapSpec(*sizes), np.eye(3))
    for corner in (bordered_embedding, bordered_arrangement):
        with pytest.raises(MalformedInputError, match=r"^m must be an integer, got float$"):
            corner(2.5, np.eye(3))
        with pytest.raises(MalformedInputError, match=r"^need 0 <= m <= dim\([XY]\)$"):
            corner(4, np.eye(3))
    # numpy integers are integers
    assert in_block_domain(BlockMapSpec(np.int64(3), np.int64(1), np.int64(1)), np.eye(3))
    assert bordered_embedding(np.int64(1), np.eye(2)).shape == (3, 3)


def test_an_anchor_that_is_no_pair_is_malformed():
    # used to raise IndexError: tuple index out of range
    for anchor in ((SMALL,), (SMALL, SMALL, SMALL), SMALL[0, 0]):
        with pytest.raises(MalformedInputError, match=r"^anchor must be a pair \(X0, Y0\)$"):
            fit_canonical(lambda Z: apply_mobius(MOBIUS, Z), 2, anchor=anchor)


def test_dimension_messages_name_both_sizes():
    # README's form `dimension mismatch: 2x2 vs 3x3`; both used to print less
    with pytest.raises(MalformedInputError, match=r"^dimension mismatch: 2x2 vs 3x3$"):
        loewner_compare(np.eye(2), np.eye(3))
    with pytest.raises(MalformedInputError, match=r"^dimension mismatch: 3x3 vs spec n=2$"):
        in_block_domain(BLOCK, np.eye(3))


NEAR_HERMITIAN = np.diag([0.5, 0.25]).astype(complex) + np.array([[0.0, 7e-9], [0.0, 0.0]])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda tol: segment_in_zero_component(BASE, NEAR_HERMITIAN, SMALL, tol),
                     id="segment_in_zero_component"),
        pytest.param(lambda tol: segment_in_shear_domain(NEAR_HERMITIAN, SMALL, 0.5 * SMALL, tol),
                     id="segment_in_shear_domain"),
        pytest.param(lambda tol: in_shear_domain(NEAR_HERMITIAN, SMALL, tol), id="in_shear_domain"),
        pytest.param(lambda tol: interval_below_criterion(BASE, NEAR_HERMITIAN, tol), id="interval_below_criterion"),
        pytest.param(lambda tol: congruence_orbit(BASE, NEAR_HERMITIAN, tol), id="congruence_orbit"),
        pytest.param(lambda tol: in_block_domain(BLOCK, NEAR_HERMITIAN, tol), id="in_block_domain"),
        pytest.param(lambda tol: growth_direction(BLOCK, NEAR_HERMITIAN, True, tol), id="growth_direction"),
        pytest.param(lambda tol: jacobi_eigen(NEAR_HERMITIAN, tol), id="jacobi_eigen"),
        pytest.param(lambda tol: bordered_embedding(1, NEAR_HERMITIAN, tol), id="bordered_embedding"),
        pytest.param(lambda tol: bordered_arrangement(1, NEAR_HERMITIAN, tol), id="bordered_arrangement"),
        pytest.param(lambda tol: apply_local_iso(MobiusAutomorphism(frame=EYE, A=BASE), NEAR_HERMITIAN, tol),
                     id="apply_local_iso"),
        pytest.param(lambda tol: fit_canonical(lambda Z: apply_mobius(MOBIUS, Z), 2,
                                               (NEAR_HERMITIAN, apply_mobius(MOBIUS, herm_part(NEAR_HERMITIAN))), tol),
                     id="fit_canonical-anchor"),
    ],
)
def test_tolerances_reach_validation(call):
    # ||X - X*||_F = 1e-8: beyond the default herm_tol, inside a loosened one
    with pytest.raises(MalformedInputError, match="is not Hermitian"):
        call(DEFAULT_TOL)
    call(DEFAULT_TOL.replace(herm_tol=1e-6))


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
