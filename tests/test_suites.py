"""Suite runner: registry coverage, determinism, and report structure."""

import ast
import dataclasses
import importlib
import inspect
import itertools
import json
import pathlib
import sys
import textwrap
import tokenize

import numpy as np
import pytest

from matorder import linalg, localiso, suites
from matorder.config import DEFAULT_TOL
from matorder.errors import DomainViolationError, MalformedInputError, MatOrderError
from matorder.fileio import matrix_to_payload
from matorder.monotone import PickRepresentation
from matorder.suites import SUITES, draws, run_suite, shear, spectra, suite_description, suite_names

# every module of the library, the suites package's included
LIBRARY_ROOT = pathlib.Path(suites.__file__).parents[1]
LIBRARY = sorted(LIBRARY_ROOT.rglob("*.py"))

# heavier suites get a reduced smoke count; the acceptance tests run the
# spec-level trial counts
_SMOKE_TRIALS = {
    "bordered-identity": 20,
    "loewner-consistency": 120,
    "component-criterion": 40,
    "parameter-recovery": 12,
    "order-embedding": 80,
    "theta-inversion": 80,
    "effect-fixpoints": 80,
    "rank-one-trace": 80,
    "growth-ranks": 8,
    "report-determinism": 2,
}


# the `details` keys each suite reports at any trial count, besides failure_count, in the
# order suite_names() lists the suites; a refactor must not drop or rename a skip counter silently
_DETAIL_KEYS = {
    "eigen-residual": (),
    "inertia-congruence": (),
    "order-antisymmetry": (),
    "spectral-composition": (),
    "rank-one-trace": ("skipped_borderline",),
    "interval-iso": (),
    "projection-dominance": ("skipped_borderline",),
    "halfplane-roundtrip": (),
    "rational-inverse": (),
    "mobius-closure": ("anchors_refused",),
    "mobius-hermitian": ("skipped_outside_domain",),
    "theta-inversion": ("max_inversion_residual", "max_two_sided_residual", "singular_bases"),
    "order-embedding": ("min_strict_margin", "skipped", "strict_checked"),
    "interval-criterion": ("criterion_true", "skipped_borderline"),
    "translation-identity": (),
    "conjugation-identity": (),
    "congruence-orbit": ("rescaled",),
    "component-criterion": ("max_nodes_used", "members"),
    "parameter-recovery": ("anchors_refused", "mismatch_checked"),
    "block-involution": (),
    "bordered-identity": ("instances",),
    "block-monotonicity": ("skipped",),
    "growth-ranks": ("classes_tested",),
    "class-count": ("counts",),
    "effect-fixpoints": (),
    "effect-order": (),
    "effect-embedding": ("fixture_flags",),
    "loewner-consistency": ("min_sqrt_loewner_eigenvalue",),
    "pick-evaluation": ("min_half_plane_margin",),
    "serialization-roundtrip": (),
    "report-determinism": (),
}


@pytest.mark.parametrize("name", suite_names())
def test_every_suite_passes_smoke(name):
    trials = _SMOKE_TRIALS.get(name, 40)
    report = run_suite(name, seed=1, trials=trials)
    assert report.passed, report.failures[:1]
    assert report.suite == name
    assert report.seed == 1
    assert set(report.details) == {"failure_count", *_DETAIL_KEYS[name]}


def test_unknown_suite_is_rejected():
    with pytest.raises(MalformedInputError):
        run_suite("not-a-suite", seed=0, trials=1)


def test_registry_descriptions_exist():
    assert len(suite_names()) == len(SUITES) == 31
    for name in suite_names():
        assert suite_description(name)


def _returns_a_value(fn) -> bool:
    """Whether fn's own body, not a function nested in it, has a `return` with a value."""
    def scan(node):
        return any((isinstance(child, ast.Return) and child.value is not None)
                   or (not isinstance(child, ast.FunctionDef) and scan(child)) for child in ast.iter_child_nodes(node))
    return scan(ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0])


def test_every_suite_body_is_registered_in_definition_order():
    modules = [importlib.import_module(f"matorder.suites.{topic}") for topic in suites.TOPICS]
    bodies = [fn for module in modules for name, fn in vars(module).items()
              if name.startswith("_suite_") and inspect.isfunction(fn)]
    assert [SUITES[name].fn for name in suite_names()] == bodies
    assert suite_names() == list(_DETAIL_KEYS)
    # a body reports through its recorder: each detail is declared on @_suite, and no body returns one
    assert [name for name in suite_names() if _returns_a_value(SUITES[name].fn)] == []
    assert {name: set(SUITES[name].details) for name in suite_names()} == \
        {name: set(keys) for name, keys in _DETAIL_KEYS.items()}


def test_return_scan_sees_a_body_that_returns_its_details():
    def _suite_returns(rng, trials, tol, rec):
        skipped = 0
        if trials:
            return {"skipped": skipped}

    def _suite_nested_only(rng, trials, tol, rec):
        def helper():
            return 1
        rec.count("skipped", helper())
        return

    assert _returns_a_value(_suite_returns) and not _returns_a_value(_suite_nested_only)


def test_recorder_refuses_an_undeclared_detail():
    rec = suites._Recorder({"skipped": 0, "worst": None})
    for update in (lambda: rec.count("skiped"), lambda: rec.set("other", 1), lambda: rec.keep("best", 1.0, max)):
        with pytest.raises(KeyError):
            update()
    assert rec.count("skipped") == 1 and rec.count("skipped", 2) == 3
    # None is "no value yet": the first value is kept whatever it is, later ones through the extreme
    assert [rec.keep("worst", v, min) for v in (5.0, 7.0, 2.0)] == [5.0, 7.0, 2.0]
    assert rec.details == {"skipped": 3, "worst": 2.0}


@pytest.mark.parametrize("name", ["bordered-identity", "effect-embedding"])
def test_runs_in_one_process_share_no_declared_detail(name):
    # bordered-identity counts its instances from 0 in each run; effect-embedding's flags are a fresh
    # dict per run, so a caller that edits one report's details edits nothing a later run reports
    first = run_suite(name, seed=1, trials=1).details
    want = json.dumps(first, sort_keys=True)
    for value in first.values():
        if isinstance(value, dict):
            value.clear()
    assert json.dumps(run_suite(name, seed=1, trials=1).details, sort_keys=True) == want


@pytest.mark.parametrize("name", suite_names())
def test_every_suite_reports_its_detail_keys_at_one_trial(name):
    details = run_suite(name, seed=1, trials=1).details
    assert set(details) == {"failure_count", *_DETAIL_KEYS[name]}
    if name == "order-embedding":
        # a single trial checks no strict pair, so there is no margin to report
        assert details["min_strict_margin"] is None


@pytest.mark.parametrize("name, seed", [("parameter-recovery", 912), ("parameter-recovery", 931),
                                        ("mobius-closure", 3)])
def test_refits_move_past_a_refused_anchor(name, seed):
    # each run draws an anchor X0 near a pole of its random map (||h(X0)|| = 5.8e5 at seed 912), where the fit
    # recentred at (X0, h(X0)) is off by about 1e-6; judged in the caller's coordinates it is refused, and the
    # refit goes on to the next Hermitian draw
    report = run_suite(name, seed=seed)
    assert report.passed, report.failures[:1]
    assert report.details["anchors_refused"] >= 1


def test_reports_are_deterministic_modulo_timing():
    a = run_suite("inertia-congruence", seed=9, trials=60)
    b = run_suite("inertia-congruence", seed=9, trials=60)
    assert a.to_json(include_timing=False) == b.to_json(include_timing=False)
    # different seed gives a different trace only through sampled content
    c = run_suite("inertia-congruence", seed=10, trials=60)
    assert c.passed


def test_report_shape_and_json_fields():
    report = run_suite("class-count", seed=0, trials=1)
    payload = json.loads(report.to_json())
    for key in ("suite", "seed", "trials", "passed", "failure_count",
                "failures", "max_residual", "details", "elapsed_seconds"):
        assert key in payload
    assert payload["passed"] is True
    assert payload["details"]["counts"] == {"2": 6, "3": 10, "4": 15, "5": 21, "6": 28}
    slim = json.loads(report.to_json(include_timing=False))
    assert "elapsed_seconds" not in slim


def test_failure_reports_carry_witnesses():
    # run a tiny suite with an impossible tolerance to force a failure record
    from matorder.config import DEFAULT_TOL
    tol = DEFAULT_TOL.replace(eig_tol=1e-30, psd_tol=1e-30, herm_tol=1e-30)
    report = run_suite("eigen-residual", seed=0, trials=4, tol=tol)
    assert not report.passed  # 1e-30 bounds sit far below float64 residuals
    assert report.failures
    first = report.failures[0]
    assert "description" in first and "trial" in first and "witnesses" in first
    payload = json.loads(report.to_json())
    assert payload["failure_count"] == len(report.failures) or payload["failure_count"] >= 16


def test_congruence_orbit_shrinks_past_a_double_crossing():
    # Trial 38 at seed 9 draws a member X whose straight path from 0 crosses
    # the singular set twice; the plain 0.6 shrink lands between the two
    # crossings, outside the zero component, and the suite used to raise.
    report = run_suite("congruence-orbit", seed=9, trials=39)
    assert report.passed, report.failures[:1]
    assert report.details["rescaled"] == 1


def test_congruence_orbit_roots_the_inverse():
    # Trial 166 at seed 56 has an eigenvalue 6e-5 of AX + I; inverting the
    # root of AX + I there leaves a residual of 7.9e-8, above the 1e-8 bound
    report = run_suite("congruence-orbit", seed=56)
    assert report.passed, report.failures[:1]



def test_interval_criterion_escape_leaves_the_later_draws_in_place(monkeypatch):
    # The suite tests its 50 interval samples as one stack. Samples 0-7 are
    # multiples of X and samples 8-49 are random effects, all 42 drawn even
    # when sample 12 escapes, so the generator ends where a clean run ends.
    clean = np.random.default_rng(0)
    declared = SUITES["interval-criterion"].details
    clean_rec = suites._Recorder(declared)
    shear._suite_interval_criterion(clean, 1, DEFAULT_TOL, clean_rec)
    assert clean_rec.details["criterion_true"] == 1 and clean_rec.failure_count == 0
    stacks = []
    kernel = shear._in_zero_component

    def escape_at_12(A, S, tol):
        if S.ndim == 2:  # X's own membership, checked against the criterion
            return kernel(A, S, tol)
        stacks.append(S)
        inside = np.ones(len(S), dtype=bool)
        inside[12] = False
        return inside

    monkeypatch.setattr(shear, "_in_zero_component", escape_at_12)
    rng = np.random.default_rng(0)
    rec = suites._Recorder(declared)
    shear._suite_interval_criterion(rng, 1, DEFAULT_TOL, rec)
    assert rec.details["criterion_true"] == 1 and len(stacks) == 1 and len(stacks[0]) == 50
    assert rec.failure_count == 1
    assert rec.failures[0]["witnesses"]["S"] == matrix_to_payload(stacks[0][12])
    assert rng.bit_generator.state == clean.bit_generator.state


def test_interval_criterion_takes_both_branches():
    # X is drawn without a membership gate, so the criterion is refuted on some trials and its witness runs
    report = run_suite("interval-criterion", seed=1)
    assert report.passed
    assert 0 < report.details["criterion_true"] < 200 - report.details["skipped_borderline"]


@pytest.mark.parametrize("name", ["order-embedding", "interval-criterion", "congruence-orbit"])
def test_suites_compress_each_base_once(monkeypatch, name):
    # one eigh, stacked or not, decomposes each trial's base or its negation once: order-embedding's draw compresses
    # the base for its X gate (up to 300 membership tests, in stacks), and its stacked checks read the compressions
    # of the base and of its negation off that one; interval-criterion's membership check, interval stack and witness
    # share one, as do congruence-orbit's gate and shrinks (its orbit factor takes none); the public predicate still
    # compresses its base once per call
    bases, decomposed = set(), []
    compress, eigh = localiso._range_compression, np.linalg.eigh

    def compressing(base, tol):
        bases.update((base.tobytes(), (-base).tobytes()))
        return compress(base, tol)

    def decomposing(S, *args, **kwargs):  # every member of every eigh call
        decomposed.extend(M.tobytes() for M in np.reshape(S, (-1,) + np.shape(S)[-2:]))
        return eigh(S, *args, **kwargs)

    monkeypatch.setattr(shear, "_range_compression", compressing)
    monkeypatch.setattr(localiso, "_range_compression", compressing)
    monkeypatch.setattr(np.linalg, "eigh", decomposing)
    report = run_suite(name, seed=1, trials=40)
    assert report.passed
    # at seed 1 two of interval-criterion's trials draw the same zero 2x2 base, each decomposed by its own trial
    assert sum(M in bases for M in decomposed) == 40
    decomposed.clear()
    localiso.in_zero_component(np.diag([1.0, -0.5]), 0.1 * np.eye(2))
    assert len(decomposed) == 1


def test_order_embedding_stops_at_a_refused_pulled_back_pair(monkeypatch):
    # the stacked finish gates each trial's images under the negated base on (V, -lam), and the record loop calls the
    # raising kernel on that compression: a refusal planted for trial 5's negated compression stops the suite with
    # the per-trial message, once trials 0-5 are recorded (trial 5's forward pair included)
    chosen, compressions = 5, []
    compress, kernel = shear._range_compression, localiso._in_zero_component

    def compressing(base, tol):  # called once per trial by the draw, in trial order
        compressions.append(compress(base, tol))
        return compressions[-1]

    def refusing(compression, H, tol):
        inside, lam = kernel(compression, H, tol), compression[1]
        if len(compressions) > chosen and lam.shape[-1] == compressions[chosen][1].size:
            planted = np.all(lam == -compressions[chosen][1], axis=-1)
            inside = inside & ~np.broadcast_to(planted, np.shape(inside))
        return inside

    monkeypatch.setattr(shear, "_range_compression", compressing)
    monkeypatch.setattr(shear, "_in_zero_component", refusing)
    monkeypatch.setattr(localiso, "_in_zero_component", refusing)
    checked, check = [], suites._Recorder.check
    monkeypatch.setattr(suites._Recorder, "check",
                        lambda self, ok, t, *a, **w: (checked.append(t), check(self, ok, t, *a, **w))[1])
    report = run_suite("order-embedding", seed=3, trials=12)
    assert compressions[chosen][1].size > 0  # a base of rank 0 has the whole space as its zero component
    assert report.failures[-1] == {"trial": -1, "description": "suite stopped by DomainViolationError: "
                                   "X is outside the zero component of this base", "witnesses": {}}
    assert checked[-1] == chosen and set(checked) <= set(range(chosen + 1))
    assert len(set(checked)) + report.details["skipped"] == chosen + 1


def test_theta_inversion_records_a_refused_mirrored_image(monkeypatch):
    # the stacked finish gates each dimension group's X under A, then its images Y under -A; when that second gate
    # refuses, every trial records a failure and the suite goes on instead of raising
    kernel = shear._in_shear_domain
    bases = []

    def refuse_mirrored(A, M, tol):
        bases.append(A)
        return kernel(A, M, tol) & (len(bases) % 2 == 1)

    monkeypatch.setattr(shear, "_in_shear_domain", refuse_mirrored)
    report = run_suite("theta-inversion", seed=0, trials=6)
    assert len(bases) % 2 == 0 and all(np.array_equal(B, -A) for A, B in zip(bases[::2], bases[1::2]))
    assert report.details["failure_count"] == 6
    assert [f["description"] for f in report.failures] == ["image not in the mirrored domain"] * 6


def test_rel_of_a_stack_is_the_worst_member_bit_for_bit():
    # the refit checks take _rel of a whole stack; the reference is the loop over its members
    rng = np.random.default_rng(90)
    for k, n in ((1, 2), (5, 3), (15, 4)):
        scale = 10.0 ** rng.uniform(-6, 6)
        got, want = (rng.standard_normal((2, k, n, n)) + 1j * rng.standard_normal((2, k, n, n))) * scale
        worst = 0.0
        for g, w in zip(got, want):
            worst = max(worst, linalg._opnorms(g - w) / (1.0 + linalg._opnorms(w)))
        first = linalg._opnorms(got[0] - want[0]) / (1.0 + linalg._opnorms(want[0]))
        assert linalg._rel(got, want) == worst and linalg._rel(got[0], want[0]) == first


def test_pick_evaluation_fails_a_planted_wrong_scalar_formula(monkeypatch):
    # the scalar check used to compare pick_eval's scalar value with the same closure, so it could not fail;
    # the 1 x 1 matrix route it now compares with has a formula of its own
    honest = PickRepresentation.scalar_function

    def planted(rep):
        f = honest(rep)
        return dataclasses.replace(f, value=lambda x: f.value(x) * (1.0 + 1e-9))

    assert run_suite("pick-evaluation", seed=0, trials=20).passed
    monkeypatch.setattr(PickRepresentation, "scalar_function", planted)
    failures = run_suite("pick-evaluation", seed=0, trials=20).failures
    assert failures and all(f["description"].startswith("scalar evaluation mismatch") for f in failures)


def test_check_order_fails_past_its_cushion_and_on_lost_strictness():
    # scale = 1 + max(||P||, ||Q||) = 2 for P = I and Q = I - c e1 e1*; the gap is -c
    P = np.eye(2)

    def recorded(c, strict=False):
        rec = suites._Recorder({})
        margin = suites._check_order(rec, 0, P, P - np.diag([c, 0.0]), DEFAULT_TOL, "pair", strict, P=P)
        return rec, margin

    rec, margin = recorded(4e-8)
    assert rec.failure_count == 1 and "lost order (margin" in rec.failures[0]["description"]
    assert margin == pytest.approx(-2e-8)
    assert recorded(1e-8)[0].failure_count == 0
    rec, margin = recorded(0.0, strict=True)
    assert rec.failure_count == 1 and rec.failures[0]["description"] == "strict pair no longer strict"
    assert margin == 0.0


@pytest.mark.parametrize("trials", [1, 2, 7])
@pytest.mark.parametrize("name", ["eigen-residual", "spectral-composition", "component-criterion", "theta-inversion",
                                  "translation-identity", "conjugation-identity", "congruence-orbit", "growth-ranks",
                                  "inertia-congruence", "order-antisymmetry", "interval-iso", "projection-dominance",
                                  "block-involution"])
def test_suites_pass_when_their_dimension_groups_are_small(name, trials):
    # the stacked suites draw every trial first and finish each dimension (or block class) in one stack: at
    # these counts most groups hold one member and some dimensions none (eigen-residual meets size 12 only
    # at the seventh trial, which it does not give to Jacobi, and 16 not at all)
    report = run_suite(name, seed=3, trials=trials)
    assert report.passed, report.failures[:1]
    assert set(report.details) == {"failure_count", *_DETAIL_KEYS[name]}


def test_impossible_tolerance_failures_come_in_trial_order():
    # the Jacobi engine runs before any check, yet each trial records its numpy checks, then its jacobi checks
    tol = DEFAULT_TOL.replace(eig_tol=1e-30, psd_tol=1e-30, herm_tol=1e-30)
    report = run_suite("eigen-residual", seed=0, trials=3, tol=tol)
    order = [(f["trial"], f["description"].split()[0]) for f in report.failures]
    assert order == sorted(order, key=lambda entry: (entry[0], ["numpy", "jacobi"].index(entry[1])))
    assert {trial for trial, _ in order} == {0, 1, 2} and {engine for _, engine in order} == {"numpy", "jacobi"}


@pytest.mark.parametrize("values", [
    [0.0, 1e-12, 3e-10],
    [2e-9, np.nan, 1e-12, 5e-9],  # a NaN fails and makes max_residual inf
    [1e-12, np.inf, 2.0],
    [0.5] * (suites.MAX_STORED_FAILURES + 5),  # more failures than are stored
    [],
])
@pytest.mark.parametrize("earlier", [0.0, 0.25, np.inf])
def test_check_residuals_records_what_a_loop_of_check_residual_records(values, earlier):
    X = np.arange(4 * len(values), dtype=complex).reshape(len(values), 2, 2)
    loop, stacked = suites._Recorder({}), suites._Recorder({})
    for rec in (loop, stacked):
        rec.residual(earlier)  # a residual recorded before the stack
    verdicts = [loop.check_residual(v, 1e-9, 7 + j, "residual", X=X[j]) for j, v in enumerate(values)]
    assert stacked.check_residuals(np.array(values), 1e-9, 7, "residual", X=X).tolist() == verdicts
    assert stacked.failures == loop.failures and len(loop.failures) <= suites.MAX_STORED_FAILURES
    assert (stacked.failure_count, stacked.max_residual) == (loop.failure_count, loop.max_residual)


def test_check_residual_formats_a_message_only_on_failure():
    rec = suites._Recorder({})
    assert rec.check_residual(1e-12, 1e-9, 0, "fine") and rec.failures == []
    assert not rec.check_residual(float("nan"), 1e-9, 3, "broken")
    assert rec.failure_count == 1 and rec.max_residual == np.inf
    assert rec.failures[0] == {"trial": 3, "description": "broken: residual nan > 1.000e-09", "witnesses": {}}


def test_a_stacked_suite_records_its_failures_in_trial_order():
    # with inv_margin = 10 no step is strict enough: every strict (even) trial fails its strictness check, and at
    # seed 0 so does every odd one, whose PSD step is definite enough to be checked; the first 16 are stored
    report = run_suite("order-antisymmetry", seed=0, trials=30, tol=DEFAULT_TOL.replace(inv_margin=10.0))
    assert report.details["failure_count"] == 30
    assert [f["trial"] for f in report.failures] == list(range(suites.MAX_STORED_FAILURES))
    assert {f["description"] for f in report.failures} == {"strict step not detected as strict"}


@pytest.mark.parametrize("n", range(1, 9))
def test_sign_draw_matches_choice(n):
    # _mixed_rank_hermitian indexes SIGNS with integers where it used to call rng.choice: same values, same state
    chosen, indexed = np.random.default_rng(n), np.random.default_rng(n)
    assert np.array_equal(chosen.choice([-1.0, 1.0], size=n), draws.SIGNS[indexed.integers(0, 2, size=n)])
    assert chosen.bit_generator.state == indexed.bit_generator.state


def test_an_error_that_escapes_a_suite_body_is_one_failure_of_that_suite(monkeypatch):
    def refusing(rng, trials, tol, rec):
        rec.count("seen")
        raise DomainViolationError("X is outside the domain")

    monkeypatch.setitem(SUITES, "refusing", suites._SuiteDef(refusing, 3, "raises", {"seen": 0}))
    report = run_suite("refusing")
    assert not report.passed and report.details == {"seen": 1, "failure_count": 1}
    assert report.failures == [{"trial": -1, "description": "suite stopped by DomainViolationError: "
                                "X is outside the domain", "witnesses": {}}]


def test_an_error_of_the_suite_itself_still_propagates(monkeypatch):
    def broken(rng, trials, tol, rec):
        rec.count("undeclared")

    monkeypatch.setitem(SUITES, "broken", suites._SuiteDef(broken, 3, "raises", {}))
    with pytest.raises(KeyError, match="undeclared"):
        run_suite("broken")


def test_a_non_finite_residual_fails_its_own_trial(monkeypatch):
    # the suites check their residuals with the kernels: an infinite eigenvector used to stop the whole suite
    # at trial -1 through the public frob's MalformedInputError, dropping every later trial
    def planted(X, tol):
        values, vectors = linalg._jacobi_eigen(X, tol)
        if X.shape[-1] == 3:
            vectors = vectors.copy()
            vectors[:, 0, 0] = np.inf
        return values, vectors

    monkeypatch.setattr(spectra, "_jacobi_eigen", planted)
    with np.errstate(all="ignore"):
        report = run_suite("eigen-residual", seed=0, trials=12)
    assert {f["trial"] for f in report.failures} == {1, 9}  # the two trials of dimension 3
    assert {f["description"].split(":")[0] for f in report.failures} == {
        "jacobi eigen residual", "jacobi eigenvector unitarity"}


@pytest.mark.parametrize("field", ["herm_tol", "eig_tol", "psd_tol", "inv_margin"])
def test_no_tolerance_override_stops_a_suite_with_a_foreign_error(field):
    # a suite may fail or stop with a MatOrderError at a far-off tolerance, but no other exception may escape;
    # mobius-closure at psd_tol 0.5 and 1e300 and parameter-recovery at 1e300 used to end in LinAlgError
    for value in (1e-300, 0.5, 1e300):
        tol = DEFAULT_TOL.replace(**{field: value})
        for name in suite_names():
            assert run_suite(name, seed=0, trials=1, tol=tol).suite == name


def test_spectral_composition_holds_its_engines_to_the_eigen_tolerance():
    # Jacobi stops at eig_tol ||X||_F / 10, so the engines agree to 10 eig_tol; the fixed 1e-9 this bound
    # replaced failed 3 of these 5 correct trials (residual 1.303e-09 first)
    report = run_suite("spectral-composition", seed=0, trials=5, tol=DEFAULT_TOL.replace(eig_tol=1e-5))
    assert report.passed, report.failures[:1]
    assert 10 * DEFAULT_TOL.eig_tol == 1e-9  # so the default bound, and every default report, stays as it was


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.relative_to(LIBRARY_ROOT).as_posix())
def test_every_module_stays_below_the_parsers_token_step(path):
    # counted as CI counts them: tokenize's tokens without COMMENT, NL and ENCODING. At 16,384 the parser's token
    # array doubles and a process that compiles the module from source peaks about 1.4 MB higher; a suite that
    # would take its topic module across goes into a topic module of its own
    with open(path, "rb") as source:
        count = sum(token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
                    for token in tokenize.tokenize(source.readline))
    assert count < 16384


@pytest.mark.parametrize("name", ["theta-inversion", "translation-identity", "conjugation-identity"])
@pytest.mark.parametrize("margin", [DEFAULT_TOL.inv_margin, 0.01, 0.08])
def test_gated_suites_report_the_same_bytes_whatever_their_block_and_chunk(monkeypatch, name, margin):
    # the speculative draws rewind to the first refused trial of a chunk, and a chunk of trials is recorded before the
    # next is drawn; the chunk's size does not show in a report. At seed 2 an inv_margin of 0.01 stops theta-inversion,
    # translation-identity and conjugation-identity after trials they record, and 0.08 stops conjugation-identity as
    # it draws
    tol = DEFAULT_TOL.replace(inv_margin=margin)
    want = run_suite(name, seed=2, trials=60, tol=tol).to_json(include_timing=False)
    monkeypatch.setattr(draws, "TRIAL_CHUNK", 7)
    held, groups = {}, draws._groups

    def grouped(trials):  # the trials _speculate gates at once, and those _trial_rows finishes at once
        held.setdefault(sys._getframe(1).f_code.co_name, []).append(len(trials))
        return groups(trials)

    monkeypatch.setattr(draws, "_groups", grouped)
    assert run_suite(name, seed=2, trials=60, tol=tol).to_json(include_timing=False) == want
    # the patch holds: at the default size one chunk would hold all 60 trials
    assert max(held["_trial_rows"]) <= 7 and max(held["_speculate"]) <= 7


@pytest.mark.parametrize("name, module, stage, failure", [
    ("theta-inversion", draws, 0, ("no shear-domain sample found", ["A"])),
    ("translation-identity", draws, 0, ("no shear-domain anchor found", ["A"])),
    ("translation-identity", shear, 0, ("no translated sample found", ["A", "X0"])),
    ("order-embedding", shear, 0, None),  # X, counted in skipped
    ("order-embedding", shear, 1, None),  # Y, counted in skipped
], ids=["theta-X", "translation-anchor", "translation-X", "embedding-X", "embedding-Y"])
def test_a_trial_whose_gate_refuses_every_candidate_is_recorded_and_the_run_goes_on(monkeypatch, name, module, stage,
                                                                                     failure):
    # a planted gate refuses every candidate of the stage-th _first call (of `module`) in trial 5
    chosen, trials = 5, 12
    now = {"trial": None, "calls": 0}  # the trial drawn one candidate at a time, and its _first calls so far

    if name == "order-embedding":  # draws each trial whole, starting with its dimension
        rand_dim, count = shear._rand_dim, itertools.count()
        monkeypatch.setattr(shear, "_rand_dim", lambda *a: (now.update(trial=next(count), calls=0), rand_dim(*a))[1])
    else:  # trial 5's speculative draw raises, so that it is drawn again one candidate at a time
        trial_rows = shear._trial_rows

        def rows(rng, trials, draw, gate, finish):
            def planted(t, first):
                if first and t == chosen:
                    raise MatOrderError("drawn again one candidate at a time")
                if not first:
                    now.update(trial=t, calls=0)
                return draw(t, first)
            return trial_rows(rng, trials, planted, gate, finish)

        monkeypatch.setattr(shear, "_trial_rows", rows)
    first = module._first

    def planted_first(attempts, draw, accept):
        call, now["calls"] = now["calls"], now["calls"] + 1
        return first(attempts, draw, (lambda cand: False) if (now["trial"], call) == (chosen, stage) else accept)

    monkeypatch.setattr(module, "_first", planted_first)
    checked, check, check_residual = [], suites._Recorder.check, suites._Recorder.check_residual
    monkeypatch.setattr(suites._Recorder, "check",
                        lambda self, ok, t, *a, **w: (checked.append(t), check(self, ok, t, *a, **w))[1])
    monkeypatch.setattr(suites._Recorder, "check_residual", lambda self, v, bound, t, *a, **w: (
        checked.append(t), check_residual(self, v, bound, t, *a, **w))[1])
    report = run_suite(name, seed=3, trials=trials)
    # every other trial reaches its checks, the last one included
    assert sorted(set(checked)) == [t for t in range(trials) if t != chosen]
    if failure:
        assert [(f["trial"], f["description"], sorted(f["witnesses"])) for f in report.failures] == [(chosen, *failure)]
    else:
        assert report.failures == [] and report.details["skipped"] == 1
