"""Fixed-order monotonicity: divided-difference matrices, verdicts, representations."""

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from matorder import monotone
from matorder.config import DEFAULT_TOL
from matorder.errors import DomainViolationError, MalformedInputError
from matorder.linalg import (_check_guard, _eigh, _eigvalsh, _hermitian_opnorms, _loewner_compare, herm_part,
                             loewner_compare, opnorm, spectral_apply)
from matorder.monotone import (
    LOEWNER_MATRIX_CUT,
    MonotoneReport,
    _divided_difference,
    _pchip,
    _sample_window,
    PickRepresentation,
    ScalarFunction,
    builtin_function,
    is_matrix_monotone,
    loewner_matrix,
    pick_eval,
)
from matorder.sampling import random_half_plane, random_hermitian_with_spectrum, random_psd


def test_divided_difference_closed_forms():
    # oracle: (x^2 - y^2)/(x - y) = x + y, and the derivative on the diagonal
    square = builtin_function("square")
    assert _divided_difference(square, 2.0, 5.0) == pytest.approx(7.0)
    assert _divided_difference(square, 3.0, 3.0) == pytest.approx(6.0)
    sqrt = builtin_function("sqrt")
    assert _divided_difference(sqrt, 1.0, 4.0) == pytest.approx(1.0 / 3.0)
    assert _divided_difference(sqrt, 4.0, 4.0) == pytest.approx(0.25)


def test_loewner_matrix_square_entrywise():
    # oracle: for f = x^2 the divided-difference matrix is x_i + x_j
    square = builtin_function("square")
    nodes = [0.5, 1.5, 4.0]
    rep = loewner_matrix(square, nodes)
    want = np.add.outer(nodes, nodes).astype(float)
    assert np.max(np.abs(rep.matrix - want)) <= 1e-12
    # x_i + x_j on positive nodes is rank <= 2 with a negative eigenvalue
    assert rep.min_eigenvalue < 0.0


def test_loewner_matrix_sqrt_is_psd():
    # oracle: 1/(sqrt(x_i) + sqrt(x_j)) is a Cauchy-like PSD kernel
    sqrt = builtin_function("sqrt")
    nodes = [0.3, 1.0, 2.7, 6.1]
    rep = loewner_matrix(sqrt, nodes)
    want = 1.0 / np.add.outer(np.sqrt(nodes), np.sqrt(nodes))
    assert np.max(np.abs(rep.matrix - want)) <= 1e-12
    assert rep.min_eigenvalue >= -1e-12


def test_is_matrix_monotone_accepts_sqrt_and_log():
    for name in ("sqrt", "log"):
        rep = is_matrix_monotone(builtin_function(name), 4, trials=200, seed=3)
        assert rep.passed and rep.conclusive
        assert rep.min_loewner_eigenvalue >= -1e-10


def test_is_matrix_monotone_refutes_square_with_witness():
    rep = is_matrix_monotone(builtin_function("square"), 2, trials=300, seed=4)
    assert not rep.passed and rep.conclusive
    assert rep.witness_nodes is not None or rep.witness_pair is not None
    if rep.witness_pair is not None:
        X, Y = rep.witness_pair
        # oracle: verify the witness with direct eigenvalue checks
        assert loewner_compare(X, Y).leq
        gap = float(np.linalg.eigvalsh(herm_part(Y @ Y - X @ X))[0])
        assert gap < 0.0
    if rep.witness_nodes is not None:
        lm = loewner_matrix(builtin_function("square"), rep.witness_nodes)
        assert lm.min_eigenvalue < 0.0


def test_square_is_refuted_by_witness_nodes():
    # every two-node Loewner matrix of x^2 has determinant -(x2 - x1)^2 < 0, so the node phase refutes it
    for seed in range(20):
        rep = is_matrix_monotone(builtin_function("square"), 2, trials=50, seed=seed)
        assert rep.witness_nodes is not None and rep.witness_pair is None


# is_matrix_monotone as a per-trial loop, one Loewner matrix and one pair at a time, each entry and each
# functional-calculus image computed alone: the stacked tester must give every report field of it, bit for bit


def _reference_divided_difference(f, x, y):
    if abs(y - x) > 1e-6 * (1.0 + abs(x)):
        return (f(y) - f(x)) / (y - x)
    return f.slope((x + y) / 2.0)


def _reference_draw_nodes(rng, order, lo, hi):
    for _ in range(100):
        pts = np.sort(rng.uniform(lo, hi, size=order))
        if order < 2 or float(np.min(np.diff(pts))) > 0.0:
            return pts
    raise MalformedInputError(f"cannot draw {order} distinct nodes in the sampling window [{lo}, {hi}]")


def _reference_spectral_apply(X, f, tol):
    values, vectors = _eigh(X)
    _check_guard(values, f.domain, (), tol.inv_margin)
    mapped = np.array([float(f(float(v))) for v in values])
    if not np.all(np.isfinite(mapped)):
        raise DomainViolationError("function value not finite on the spectrum")
    return herm_part((vectors * mapped) @ vectors.conj().T)


def _reference_draw_pair(rng, order, lo, hi):
    X = random_hermitian_with_spectrum(rng, order, lo, hi)
    room = max(hi - float(_eigvalsh(X)[-1]), 0.0)
    D = random_psd(rng, order)
    norm = float(_hermitian_opnorms(D))
    if norm > 0.0:
        D = D * (0.9 * room * rng.uniform(0.1, 1.0) / max(norm, 1e-12))
    return X, herm_part(X + D)


def _reference_is_matrix_monotone(f, order, trials, seed, tol=DEFAULT_TOL):
    rng = np.random.default_rng(seed)
    lo, hi = _sample_window(f.domain)
    worst = np.inf
    pair_trials = max(trials // 2, 1)
    for _ in range(trials):
        pts = [float(t) for t in _reference_draw_nodes(rng, order, lo, hi)]
        L = np.zeros((order, order))
        for i in range(order):
            for j in range(i, order):
                L[i, j] = L[j, i] = _reference_divided_difference(f, pts[i], pts[j])
        lowest = float(_eigvalsh(L)[0])
        worst = min(worst, lowest)
        if lowest < -LOEWNER_MATRIX_CUT * (1.0 + float(_hermitian_opnorms(L))):
            return MonotoneReport(f.name, order, False, not f.approximate, trials, 0, float(worst), tuple(pts),
                                  None, seed)
    for _ in range(pair_trials):
        X, Y = _reference_draw_pair(rng, order, lo, hi)
        if not _loewner_compare(_reference_spectral_apply(X, f, tol), _reference_spectral_apply(Y, f, tol), tol).leq:
            return MonotoneReport(f.name, order, False, not f.approximate, trials, pair_trials, float(worst), None,
                                  (X, Y), seed)
    return MonotoneReport(f.name, order, True, not f.approximate, trials, pair_trials, float(worst), None, None, seed)


def _outcome(run):
    """The report of run(), or the type and message of the error it raises."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    if not isinstance(want, MonotoneReport):
        assert got == want
        return
    assert isinstance(got, MonotoneReport)
    for field in dataclasses.fields(MonotoneReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "witness_pair" and b is not None:
            assert a is not None and all(np.array_equal(x, y) for x, y in zip(a, b)), field.name
        else:
            assert repr(a) == repr(b), field.name  # repr tells -0.0 from 0.0


def _compare_with_reference(f, order, trials, seed, tol=DEFAULT_TOL):
    want = _outcome(lambda: _reference_is_matrix_monotone(f, order, trials, seed, tol))
    _assert_same_outcome(_outcome(lambda: is_matrix_monotone(f, order, trials=trials, seed=seed, tol=tol)), want)
    return want


@pytest.mark.parametrize("block", [monotone.BLOCK_ENTRIES, 16])
@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize("name", ["sqrt", "log", "square", "fp:0.25", "fp:0.5", "rational:0.5", "rational:-0.5"])
def test_stacked_tester_matches_the_per_trial_loop(name, order, block, monkeypatch):
    monkeypatch.setattr(monotone, "BLOCK_ENTRIES", block)
    for seed in range(5):
        _compare_with_reference(builtin_function(name), order, 40, seed)


NEGATION = ScalarFunction(lambda x: -x, (0.0, math.inf), derivative=lambda x: 1.0, name="negation")


@pytest.mark.parametrize("block", [monotone.BLOCK_ENTRIES, 16])
def test_stacked_tester_matches_a_pair_refutation(block, monkeypatch):
    # -x has Loewner matrices [[1, -1], [-1, 1]] at order 2, PSD, so a functional-calculus pair must refute it
    monkeypatch.setattr(monotone, "BLOCK_ENTRIES", block)
    for order in (1, 2):
        for seed in range(5):
            want = _compare_with_reference(NEGATION, order, 40, seed)
            assert want.witness_pair is not None and want.witness_nodes is None


@pytest.mark.parametrize("block", [monotone.BLOCK_ENTRIES, 16])
def test_stacked_tester_raises_only_after_the_earlier_trials(block, monkeypatch):
    # an error at a trial after the first refutation must not surface: x^2 refutes at its first node pair, and
    # the value raises on a node above 5 (one message for every node: the calls within a trial come in another
    # order); a pair whose X has an eigenvalue within inv_margin = 0.5 of 0 fails the guard, after or before a
    # pair that refutes -x
    monkeypatch.setattr(monotone, "BLOCK_ENTRIES", block)

    def square(x):
        if x > 5.0:
            raise ValueError("a node above 5")
        return x * x

    cases = [(ScalarFunction(square, (0.0, math.inf), lambda x: 2.0 * x, name="square"), 2, DEFAULT_TOL),
             (NEGATION, 2, DEFAULT_TOL.replace(inv_margin=0.5))]
    for f, order, tol in cases:
        outcomes = [_compare_with_reference(f, order, 40, seed, tol) for seed in range(12)]
        assert any(isinstance(o, MonotoneReport) for o in outcomes)
        assert any(not isinstance(o, MonotoneReport) for o in outcomes)


def test_stacked_tester_keeps_the_duplicate_node_error():
    # the sampling window of (1e17, inf) holds two doubles, so three distinct nodes cannot be drawn; two can,
    # and being within the derivative switch of each other they never meet f, only the pair guard does
    f = ScalarFunction(math.sqrt, (1e17, math.inf), lambda x: 0.5 / math.sqrt(x), name="far")
    want = _compare_with_reference(f, 3, 10, 0)
    assert want[0] is MalformedInputError and "distinct nodes" in want[1]
    assert _compare_with_reference(f, 2, 10, 0)[0] is DomainViolationError


def test_fp_family_is_monotone_on_unit_interval():
    for p in (0.25, 0.5, 0.75):
        rep = is_matrix_monotone(builtin_function(f"fp:{p}"), 3, trials=150, seed=5)
        assert rep.passed, p


def test_rational_family_is_monotone():
    rep = is_matrix_monotone(builtin_function("rational:0.5"), 3, trials=150, seed=6)
    assert rep.passed


def test_builtin_function_validates_parameters():
    with pytest.raises(MalformedInputError):
        builtin_function("fp:1.5")
    with pytest.raises(MalformedInputError):
        builtin_function("rational:0")
    with pytest.raises(MalformedInputError):
        builtin_function("rational:1.0")


def test_tabulated_function_is_not_conclusive(tmp_path):
    xs = np.linspace(0.1, 4.0, 60)
    table = tmp_path / "samples.csv"
    table.write_text("\n".join(f"{x},{math.sqrt(x)}" for x in xs))
    f = builtin_function(f"table:{table}")
    assert f.approximate
    rep = is_matrix_monotone(f, 2, trials=60, seed=7)
    assert rep.passed
    assert not rep.conclusive


# scipy 1.17.1's PchipInterpolator and its derivative on five tables: sqrt samples, unequal
# spacing with a flat run, a non-monotone table, three points and two points
PCHIP_REFERENCE = json.loads((pathlib.Path(__file__).parent / "data" / "pchip_reference.json").read_text())


@pytest.mark.parametrize("table", PCHIP_REFERENCE["tables"], ids=lambda t: t["name"])
def test_pchip_matches_the_recorded_interpolant(table):
    value, derivative = _pchip(np.array(table["x"]), np.array(table["y"]))
    for x, want, slope in zip(table["at"], table["values"], table["slopes"]):
        assert abs(value(x) - want) <= 1e-12 * (1.0 + abs(want))
        assert abs(derivative(x) - slope) <= 1e-12 * (1.0 + abs(slope))


@pytest.mark.parametrize("table", PCHIP_REFERENCE["tables"], ids=lambda t: t["name"])
def test_pchip_interpolates_and_keeps_each_interval_monotone(table):
    xs, ys = np.array(table["x"]), np.array(table["y"])
    value, _ = _pchip(xs, ys)
    assert [value(x) for x in xs] == pytest.approx(ys, abs=1e-15)
    for a, b, ya, yb in zip(xs, xs[1:], ys, ys[1:]):
        inside = [value(x) for x in np.linspace(a, b, 41)]
        if ya == yb:  # a flat run stays flat
            assert np.max(np.abs(np.array(inside) - ya)) <= 1e-15
        else:
            assert np.all(np.diff(inside) * np.sign(yb - ya) >= -1e-15)


def test_sample_window_stays_inside_domain():
    lo, hi = _sample_window((0.0, math.inf))
    assert 0.0 < lo < hi < math.inf
    lo2, hi2 = _sample_window((-1.0, 1.0))
    assert -1.0 < lo2 < hi2 < 1.0


def test_pick_eval_scalar_closed_form():
    # oracle: c + d x + sum w (1 + x y)/(y - x), evaluated by hand
    rep = PickRepresentation(c=0.7, d=0.3, atoms=((3.0, 0.5), (-2.0, 1.0)), interval=(-1.0, 2.0))
    x = 0.4
    want = 0.7 + 0.3 * x
    for y, w in ((3.0, 0.5), (-2.0, 1.0)):
        want += w * (1.0 + x * y) / (y - x)
    assert pick_eval(rep, x) == pytest.approx(want, rel=1e-12)


def test_pick_eval_atom_at_zero_is_negated_inverse():
    rep = PickRepresentation(c=0.0, d=0.0, atoms=((0.0, 1.0),), interval=(0.4, 2.5))
    rng = np.random.default_rng(60)
    for _ in range(10):
        X = random_hermitian_with_spectrum(rng, 3, 0.5, 2.4)
        got = pick_eval(rep, X)
        assert opnorm(got + np.linalg.inv(X)) <= 1e-10 * (1.0 + opnorm(X))


def test_pick_eval_matrix_matches_spectral_route():
    rep = PickRepresentation(c=0.2, d=0.8, atoms=((4.0, 0.7),), interval=(-1.0, 2.0))
    f = rep.scalar_function()
    rng = np.random.default_rng(61)
    for _ in range(10):
        X = random_hermitian_with_spectrum(rng, 3, -0.8, 1.8)
        direct = pick_eval(rep, X)
        via = spectral_apply(X, f, domain=f.domain)
        assert opnorm(direct - via) <= 1e-9 * (1.0 + opnorm(direct))


def test_pick_eval_maps_half_plane_to_half_plane():
    rep = PickRepresentation(c=0.0, d=0.5, atoms=((3.0, 1.0),), interval=(-1.0, 2.0))
    rng = np.random.default_rng(62)
    for _ in range(10):
        Z = random_half_plane(rng, 3)
        W = pick_eval(rep, Z)
        lam = float(np.linalg.eigvalsh(herm_part((W - W.conj().T) / 2j))[0])
        assert lam > 0.0


def test_pick_eval_guards_scalar_domain():
    rep = PickRepresentation(c=0.0, d=1.0, atoms=(), interval=(0.0, 1.0))
    with pytest.raises(DomainViolationError):
        pick_eval(rep, 5.0)


def test_scalar_function_window_respects_poles():
    f = builtin_function("rational:-2.0")
    # pole at 1 - 1/r = 1.5; the domain must stay on the side containing 0
    lo, hi = f.domain
    assert lo < 0.0 < hi <= 1.5
