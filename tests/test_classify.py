"""Block maps, bordered embeddings, class census, and effect automorphisms."""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matorder.classify import (
    BlockMapSpec,
    _as_effect,
    _block_map,
    _bordered_arrangement,
    _bordered_embedding,
    _effect_automorphism,
    _effect_embedding,
    _in_block_domain,
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
    endpoint_continuity,
    enumerate_signatures,
    growth_direction,
    in_block_domain,
    rational_effect_automorphism,
    rational_effect_factors,
    signature_class,
)
from matorder.config import DEFAULT_TOL, ToleranceConfig
from matorder.errors import DomainViolationError, MalformedInputError
from matorder.halfplane import MobiusAutomorphism, _mobius_eval, _shifted, apply_mobius, in_half_plane
from matorder.linalg import herm_part, inertia, loewner_compare, opnorm
from matorder.sampling import (
    random_contraction,
    random_effect,
    random_half_plane,
    random_hermitian,
    random_hermitian_with_spectrum,
    random_invertible,
    random_psd,
    random_unitary,
)


def _domain_sample(rng, spec):
    # build the corner with the prescribed inertia directly; random
    # Hermitians almost never land in the definite-corner classes
    n, m, p = spec.n, spec.m, spec.p
    X = random_hermitian(rng, n)
    if m:
        G = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        U = np.linalg.qr(G)[0]
        vals = np.concatenate([rng.uniform(0.3, 2.0, size=p),
                               -rng.uniform(0.3, 2.0, size=m - p)])
        X[:m, :m] = herm_part(U @ np.diag(vals).astype(complex) @ U.conj().T)
    X = herm_part(X)
    assert in_block_domain(spec, X)
    return X


def test_signature_class_reads_diagonal():
    A = np.diag([2.0, 1.0, -3.0, 0.0]).astype(complex)
    cls = signature_class(A)
    assert (cls.m, cls.p) == (3, 2)
    assert not cls.borderline


def test_class_count_matches_enumeration():
    # oracle: count pairs (m, p) with 0 <= p <= m <= n by brute force
    for n in range(2, 9):
        brute = len([(m, p) for m in range(n + 1) for p in range(m + 1)])
        assert class_count(n) == brute
        assert class_count(n) == (n + 1) * (n + 2) // 2
        assert len(enumerate_signatures(n)) == class_count(n)


def test_enumerated_signatures_are_pairwise_inequivalent():
    for n in (2, 3):
        sigs = enumerate_signatures(n)
        for i, A in enumerate(sigs):
            for j, B in enumerate(sigs):
                assert are_equivalent(A, B) == (i == j)


def test_block_map_worked_2x2_example():
    # hand computation: n=2, m=1, p=1, X = [[2, 1], [1, 3]].
    # corner inverse -1/2 in the corner, Schur complement stays, coupling
    # scales by the corner inverse and picks up the sign split
    X = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
    want = np.array([[-0.5, 0.5j], [-0.5j, 2.5]], dtype=complex)
    got = block_map_apply(BlockMapSpec(2, 1, 1), X)
    assert opnorm(got - want) <= 1e-12


def test_block_map_involution_all_classes():
    rng = np.random.default_rng(50)
    for n in range(2, 5):
        for m in range(n + 1):
            for p in range(m + 1):
                spec = BlockMapSpec(n, m, p)
                X = _domain_sample(rng, spec)
                Y = block_map_apply(spec, X)
                assert in_block_domain(spec.dual, Y)
                back = block_map_apply(spec.dual, Y)
                assert opnorm(back - X) <= 1e-9 * (1.0 + opnorm(X))


def test_block_map_corner_inertia_flips():
    rng = np.random.default_rng(51)
    spec = BlockMapSpec(4, 3, 1)
    X = _domain_sample(rng, spec)
    Y = block_map_apply(spec, X)
    sig = inertia(Y[:3, :3])
    assert (sig.n_pos, sig.n_zero, sig.n_neg) == (2, 0, 1)


def test_block_map_rejects_wrong_corner():
    spec = BlockMapSpec(2, 1, 1)
    X = np.diag([-1.0, 0.5]).astype(complex)  # corner negative, not in U(1,1)
    assert not in_block_domain(spec, X)
    with pytest.raises(DomainViolationError):
        block_map_apply(spec, X)


def test_bordered_embedding_identity_and_inertia():
    # oracle: multiply the embedding by the arranged image and compare to -I
    rng = np.random.default_rng(52)
    for (n, m, p) in [(2, 1, 1), (3, 2, 1), (4, 3, 2), (5, 3, 0)]:
        spec = BlockMapSpec(n, m, p)
        X = _domain_sample(rng, spec)
        E = bordered_embedding(m, X)
        k = 2 * n - m
        assert E.shape == (k, k)
        sig = inertia(E)
        assert (sig.n_pos, sig.n_zero, sig.n_neg) == (n + p - m, 0, n - p)
        R = bordered_arrangement(m, block_map_apply(spec, X))
        assert opnorm(E @ R + np.eye(k)) <= 1e-9 * (1.0 + opnorm(E) * opnorm(R))


def test_growth_directions_have_extremal_ranks():
    rng = np.random.default_rng(53)
    spec = BlockMapSpec(3, 2, 1)
    X = _domain_sample(rng, spec)
    D_pos = growth_direction(spec, X, positive=True)   # PSD
    D_neg = growth_direction(spec, X, positive=False)  # NSD
    sig_pos, sig_neg = inertia(D_pos), inertia(D_neg)
    assert (sig_pos.n_pos, sig_pos.n_neg) == (spec.n + spec.p - spec.m, 0)
    assert (sig_neg.n_pos, sig_neg.n_neg) == (0, spec.n - spec.p)
    # staying directions: adding them never changes the corner inertia
    for t in (0.5, 10.0, 1e4):
        assert in_block_domain(spec, herm_part(X + t * D_pos))
        assert in_block_domain(spec, herm_part(X + t * D_neg))


def test_effect_automorphism_identity_frame_is_identity():
    rng = np.random.default_rng(54)
    spec = EffectAutoSpec(frame=np.eye(3))
    for _ in range(10):
        X = random_effect(rng, 3)
        assert opnorm(effect_automorphism(spec, X) - X) <= 1e-12


def test_effect_automorphism_fixes_endpoints_and_group_law():
    rng = np.random.default_rng(55)
    for _ in range(15):
        T = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)
        S = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)
        phi_T = EffectAutoSpec(frame=T)
        phi_S = EffectAutoSpec(frame=S)
        phi_ST = EffectAutoSpec(frame=S @ T)
        Z = np.zeros((3, 3))
        assert opnorm(effect_automorphism(phi_T, Z)) <= 1e-10
        assert opnorm(effect_automorphism(phi_T, np.eye(3)) - np.eye(3)) <= 1e-10
        X = random_effect(rng, 3)
        # group law: applying T then S equals applying ST
        lhs = effect_automorphism(phi_S, effect_automorphism(phi_T, X))
        rhs = effect_automorphism(phi_ST, X)
        assert opnorm(lhs - rhs) <= 1e-9 * (1.0 + opnorm(rhs))


def test_effect_automorphism_stays_in_interval_and_preserves_order():
    rng = np.random.default_rng(56)
    for _ in range(20):
        T = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)
        spec = EffectAutoSpec(frame=T)
        X = random_effect(rng, 3)
        Y = herm_part(X + 0.5 * (np.eye(3) - X))  # X <= Y inside [0, I]
        FX, FY = effect_automorphism(spec, X), effect_automorphism(spec, Y)
        lam = np.linalg.eigvalsh(FX)
        assert lam[0] >= -1e-8 and lam[-1] <= 1.0 + 1e-8
        assert loewner_compare(FX, FY).leq


def test_effect_automorphism_matches_explicit_inverse_formula():
    rng = np.random.default_rng(59)
    for transpose in (False, True):
        T = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 2 * np.eye(3)
        spec = EffectAutoSpec(frame=T, transpose=transpose)
        for _ in range(5):
            X = random_effect(rng, 3)
            Xp = X.T if transpose else X
            inner = np.linalg.inv(Xp @ (T.conj().T @ T - np.eye(3)) + np.eye(3))
            want = T @ inner @ Xp @ T.conj().T
            assert opnorm(effect_automorphism(spec, X) - want) <= 1e-10 * (1.0 + opnorm(want))


@pytest.mark.parametrize("fpq", [False, True], ids=["frame", "fpq"])
@pytest.mark.parametrize("transpose", [False, True])
def test_inverse_frame_undoes_the_map(fpq, transpose):
    # the map EffectAutoSpec(T, transpose), also an FpqSpec's, is undone by EffectAutoSpec(T^-1),
    # or by EffectAutoSpec(conj(T)^-1, transpose=True) when it transposes
    rng = np.random.default_rng(64)
    for n in range(2, 6):
        if fpq:
            m = FpqSpec(p=float(rng.uniform(0.15, 0.85)), q=-float(rng.uniform(0.3, 3.0)),
                        frame=random_contraction(rng, n), transpose=transpose).automorphism
        else:
            m = EffectAutoSpec(frame=random_invertible(rng, n, max_cond=10.0), transpose=transpose)
        inverse = EffectAutoSpec(np.linalg.inv(m.frame.conj() if transpose else m.frame), transpose)
        for _ in range(5):
            X = random_effect(rng, n)
            back = effect_automorphism(inverse, effect_automorphism(m, X))
            assert opnorm(back - X) <= 1e-9 * (1.0 + opnorm(X))


def test_rational_effect_four_factor_route_agrees():
    # oracle: the composition of the four published factors, built from
    # independent spectral scalings, must equal the frame form
    rng = np.random.default_rng(57)
    for _ in range(15):
        T = random_contraction(rng, 3)
        spec = FpqSpec(p=float(rng.uniform(0.1, 0.9)), q=-float(rng.uniform(0.1, 2.0)), frame=T)
        X = random_effect(rng, 3)
        direct = rational_effect_automorphism(spec, X)
        f1, f2, f3, f4 = rational_effect_factors(spec)
        chained = f4(f3(f2(f1(X))))
        assert opnorm(chained - direct) <= 1e-9 * (1.0 + opnorm(direct))
        lam = np.linalg.eigvalsh(direct)
        assert lam[0] >= -1e-8 and lam[-1] <= 1.0 + 1e-8


def _fpq_resolvent_reference(spec, X):
    """The fpq map by resolvent solves and a 50-digit square root: f_q(S^{-1/2} f_p(T X' T*) S^{-1/2}), S = f_p(TT*)."""
    T, eye = spec.frame, np.eye(spec.frame.shape[0])
    scaling = lambda w, M: np.linalg.solve(w * M + (1.0 - w) * eye, M)  # x -> x/(wx + 1 - w)
    with mpmath.workdps(50):  # S is Hermitian PSD, so its eigenvectors give the principal root
        values, vectors = mpmath.eighe(mpmath.matrix(herm_part(scaling(spec.p, herm_part(T @ T.conj().T))).tolist()))
        root = vectors * mpmath.diag([mpmath.sqrt(v) for v in values]) * vectors.transpose_conj()
        root = np.array(root.tolist(), dtype=complex)
    inner = scaling(spec.p, herm_part(T @ (X.T if spec.transpose else X) @ T.conj().T))
    return herm_part(scaling(spec.q, herm_part(np.linalg.solve(root, inner) @ np.linalg.inv(root))))


@st.composite
def fpq_cases(draw):
    """(spec, X, sigma_min): n from 1 to 8, frames U diag(s) W* with s in [sigma_min, 1], sigma_min from 1e-4 to 1."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma_min = 10.0 ** draw(st.floats(-4.0, 0.0))
    s = rng.uniform(sigma_min, 1.0, n)
    s[0] = sigma_min
    T = (random_unitary(rng, n) * s) @ random_unitary(rng, n)
    spec = FpqSpec(p=draw(st.floats(0.02, 0.98)), q=draw(st.floats(-5.0, -0.02)), frame=T,
                   transpose=draw(st.booleans()))
    values = rng.uniform(0.0, 1.0, n)
    values[: draw(st.integers(0, n))] = draw(st.sampled_from([0.0, 1.0]))  # effects on the boundary of [0, I]
    V = random_unitary(rng, n)
    return spec, herm_part((V * values) @ V.conj().T), sigma_min


@settings(max_examples=300, deadline=None)
@given(fpq_cases())
def test_fpq_frame_form_matches_resolvent_route(case):
    spec, X, sigma_min = case
    got, want = rational_effect_automorphism(spec, X, DEFAULT_TOL), _fpq_resolvent_reference(spec, X)
    rel = opnorm(got - want) / max(opnorm(want), 1e-300)
    assert rel <= (1e-12 if sigma_min >= 0.05 else 1e-6)
    eye = np.eye(spec.frame.shape[0])
    assert opnorm(rational_effect_automorphism(spec, eye) - eye) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(fpq_cases())
def test_fpq_frame_form_closed_forms(case):
    # A = F*F - I = q/(1-q) I + p/((1-p)(1-q)) T*T, and F's singular values
    # lie in [(1-q)^{-1/2}, ((1-p)(1-q))^{-1/2}]
    spec, _, _ = case
    p, q, T, m = spec.p, spec.q, spec.frame, spec.automorphism
    assert m.transpose == spec.transpose and not m.B.any() and not m.C.any()
    F = m.frame
    assert opnorm(m.A - (F.conj().T @ F - np.eye(spec.frame.shape[0]))) <= 1e-14 * (1.0 + opnorm(m.A))
    want = q / (1.0 - q) * np.eye(spec.frame.shape[0]) + p / ((1.0 - p) * (1.0 - q)) * (T.conj().T @ T)
    assert opnorm(m.A - want) <= 1e-13 * (1.0 + opnorm(want))
    s = np.linalg.svd(F, compute_uv=False)
    assert (1.0 - q) ** -0.5 * (1.0 - 1e-14) <= s.min() <= s.max() <= ((1.0 - p) * (1.0 - q)) ** -0.5 * (1.0 + 1e-14)


def test_rational_effect_automorphism_honours_tol():
    spec = FpqSpec(p=0.5, q=-1.0, frame=0.8 * np.eye(2))
    X = np.diag([1.0 + 1e-6, 0.5])  # above I by more than the default psd_tol cushion
    with pytest.raises(DomainViolationError):
        rational_effect_automorphism(spec, X)
    got = rational_effect_automorphism(spec, X, ToleranceConfig(psd_tol=1e-5))
    assert opnorm(got - effect_automorphism(spec.automorphism, np.diag([1.0, 0.5]))) <= 1e-5


def test_fpq_spec_validates_parameters():
    with pytest.raises(MalformedInputError):
        FpqSpec(p=1.5, q=-1.0, frame=np.eye(2))
    with pytest.raises(MalformedInputError):
        FpqSpec(p=0.5, q=0.3, frame=np.eye(2))
    with pytest.raises(MalformedInputError):
        FpqSpec(p=0.5, q=-1.0, frame=2.0 * np.eye(2))


def test_as_effect_accepts_and_rejects():
    assert _as_effect(0.5 * np.eye(2), DEFAULT_TOL) is not None
    with pytest.raises(DomainViolationError):
        _as_effect(1.5 * np.eye(2), DEFAULT_TOL)


@pytest.mark.parametrize("psd_tol, continuous", [(DEFAULT_TOL.psd_tol, False), (1e-5, True)])
def test_endpoint_continuity_reads_psd_tol(psd_tol, continuous):
    # a value 1e-6 above the limit I: the flag used to read a private 1e-8 whatever the tolerances
    spec = EffectEmbeddingSpec(frame=np.eye(2), base=np.zeros((2, 2)), offset=np.zeros((2, 2)),
                               value_at_one=(1.0 + 1e-6) * np.eye(2))
    assert endpoint_continuity(spec, DEFAULT_TOL.replace(psd_tol=psd_tol)) == {"zero": True, "one": continuous}


def test_effect_embedding_fixture_flags():
    fixture = EffectEmbeddingSpec(
        frame=np.eye(2), base=np.zeros((2, 2)), offset=np.zeros((2, 2)),
        value_at_one=2.0 * np.eye(2),
    )
    flags = endpoint_continuity(fixture)
    assert flags == {"zero": True, "one": False}
    rng = np.random.default_rng(58)
    # order is still preserved through the overridden endpoint map
    X = random_effect(rng, 2) * 0.5
    Y = herm_part(X + 0.2 * (np.eye(2) - X))
    FX = effect_embedding_map(fixture, X)
    FY = effect_embedding_map(fixture, Y)
    assert loewner_compare(FX, FY).leq


# ---------------------------------------------------------------------------
# the block map on stacks: member j is bit for bit the map of S[j] alone

# corner eigenvalue placements relative to the rank cutoff psd_tol * (1 + max|lambda|):
# 0.999 counts as zero (wrong inertia), 1.001 keeps its sign, -1 flips it
NEAR_CUT = (-1.001, -0.999, 0.999, 1.001)


@st.composite
def block_stacks(draw):
    """A spec with n from 1 to 10 and m from 0, and a stack of (mostly) domain samples."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(0, n))
    p = draw(st.integers(0, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(draw(st.integers(1, 5))):
        X = random_hermitian(rng, n)
        if m:
            vals = np.concatenate([rng.uniform(0.3, 2.0, size=p), -rng.uniform(0.3, 2.0, size=m - p)])
            near = draw(st.lists(st.sampled_from(NEAR_CUT), max_size=m))
            k = len(near)
            vals[:k] = np.asarray(near) * DEFAULT_TOL.psd_tol * (1.0 + np.abs(vals[k:]).max(initial=0.0))
            V = random_unitary(rng, m)
            X[:m, :m] = herm_part((V * vals) @ V.conj().T)
        members.append(herm_part(X))
    return BlockMapSpec(n, m, p), np.stack(members)


_M0_STACK = np.stack([herm_part(random_hermitian(np.random.default_rng(s), 3)) for s in range(3)])


@settings(max_examples=120, deadline=None)
@given(block_stacks())
@example((BlockMapSpec(3, 0, 0), _M0_STACK))
def test_stacked_block_map_agrees_with_per_matrix_map(case):
    spec, S = case
    singles = []
    for X in S:
        try:
            singles.append(block_map_apply(spec, X))
        except DomainViolationError:
            singles.append(None)
    assert _in_block_domain(spec, S, DEFAULT_TOL).tolist() == [in_block_domain(spec, X) for X in S]
    if any(Y is None for Y in singles):
        with pytest.raises(DomainViolationError):
            _block_map(spec, S, DEFAULT_TOL)
    else:
        stacked = _block_map(spec, S, DEFAULT_TOL)
        for j, Y in enumerate(singles):
            assert stacked[j].tobytes() == Y.tobytes()
    E = _bordered_embedding(spec.m, S)
    R = _bordered_arrangement(spec.m, S)
    for j, X in enumerate(S):
        assert E[j].tobytes() == bordered_embedding(spec.m, X).tobytes()
        assert R[j].tobytes() == bordered_arrangement(spec.m, X).tobytes()


def _frame_form(n, m):
    """The (n, m) block map as a half-plane automorphism: frame diag(I_m, i I_{n-m}), A = B = -E1, C = E1."""
    E1 = np.diag(np.arange(n) < m).astype(complex)
    return MobiusAutomorphism(frame=np.diag(np.where(np.arange(n) < m, 1.0, 1j)), A=-E1, B=-E1, C=E1)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.data())
def test_block_map_equals_its_frame_form(n, data):
    # _domain_sample's corner eigenvalues lie in [0.3, 2], so the corner's condition number is below 7;
    # the frame form adds E1 to the corner and takes it away, so it is accurate to eps at unit scale only
    m = data.draw(st.integers(0, n))
    spec = BlockMapSpec(n, m, data.draw(st.integers(0, m)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    S = np.stack([_domain_sample(rng, spec) for _ in range(data.draw(st.integers(1, 5)))])
    g = _frame_form(n, m)
    W = _shifted(g, S)
    want = herm_part(_mobius_eval(g, W, W @ g.A + np.eye(n)))
    got = _block_map(spec, S, DEFAULT_TOL)
    for j in range(len(S)):
        assert np.linalg.norm(got[j] - want[j]) <= 1e-12 * np.linalg.norm(want[j])


@pytest.mark.parametrize("k", range(-7, 9))
def test_block_map_is_accurate_at_every_scale(k):
    # scaling X by 10^k scales the image corner -X11^{-1} by 10^-k and leaves its condition number (< 7)
    # alone, so the relative error must not grow with |k|; the involution is checked where the image
    # corner clears the gate's absolute floor (psd_tol * (1 + |lambda|max) = 1e-8)
    rng = np.random.default_rng(600 + k)
    s = 10.0**k
    for n in range(1, 6):
        for m in range(1, n + 1):
            for p in range(m + 1):
                spec = BlockMapSpec(n, m, p)
                V = random_unitary(rng, m)
                vals = s * np.concatenate([rng.uniform(0.3, 2.0, size=p), -rng.uniform(0.3, 2.0, size=m - p)])
                X = random_hermitian(rng, n)
                X[:m, :m] = (V * (vals / s)) @ V.conj().T
                X = herm_part(s * X)
                Y = block_map_apply(spec, X)
                want = -(V / vals) @ V.conj().T
                assert opnorm(Y[:m, :m] - want) <= 1e-13 * opnorm(want)
                if k < 8:
                    assert opnorm(block_map_apply(spec.dual, Y) - X) <= 1e-13 * opnorm(X)


@pytest.mark.parametrize("n", range(1, 7))
def test_block_map_frame_form_is_a_half_plane_automorphism(n):
    # the maximal maps are restrictions of automorphisms of the generalized upper half-plane
    rng = np.random.default_rng(n)
    for m in range(n + 1):
        g = _frame_form(n, m)
        for _ in range(20):
            assert in_half_plane(apply_mobius(g, random_half_plane(rng, n)))


def _two_decomposition_gate(spec, S, tol):
    """_block_map's corner gate as it read with two decompositions: eigh's values for the inertia, then an SVD."""
    corner = S[..., : spec.m, : spec.m]
    values = np.linalg.eigh(corner)[0]
    q = spec.m - spec.p
    cut = tol.psd_tol * (1.0 + np.abs(values).max(axis=-1))
    if not np.all((values[..., q - 1] < -cut if q else True) & (values[..., q] > cut if spec.p else True)):
        raise DomainViolationError(f"corner inertia is not ({spec.p}, 0, {q})")
    sv = np.linalg.svd(corner, compute_uv=False)
    if not np.all(sv[..., -1] > tol.inv_margin * (1.0 + sv[..., 0])):
        raise DomainViolationError("corner is numerically singular")


def _raised(body):
    try:
        body()
    except DomainViolationError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_one_decomposition_gate_raises_where_the_two_decomposition_gate_raised(n, data):
    # a member whose corner has a flipped eigenvalue (wrong inertia), an exact zero one (singular and
    # wrong inertia) or one at 1e-6 of its scale (singular at inv_margin 1e-4 only) is planted at any
    # position of a stack of domain samples; psd_tol and inv_margin are set apart in the second tol
    m = data.draw(st.integers(1, n))
    spec = BlockMapSpec(n, m, data.draw(st.integers(0, m)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    S = np.stack([_domain_sample(rng, spec) for _ in range(data.draw(st.integers(1, 6)))])
    kind = data.draw(st.sampled_from(["none", "flipped", "zero", "small"]))
    if kind != "none":
        vals = np.concatenate([rng.uniform(0.3, 2.0, size=spec.p), -rng.uniform(0.3, 2.0, size=m - spec.p)])
        vals[0] = {"flipped": -vals[0], "zero": 0.0, "small": 1e-6 * vals[0]}[kind]
        U = random_unitary(rng, m)
        bad = _domain_sample(rng, spec)
        bad[:m, :m] = herm_part((U * vals) @ U.conj().T)
        j = data.draw(st.integers(0, len(S)))
        S = np.concatenate([S[:j], herm_part(bad)[None], S[j:]])
    for tol in (DEFAULT_TOL, ToleranceConfig(inv_margin=1e-4)):
        want = _raised(lambda: _two_decomposition_gate(spec, S, tol))
        assert _raised(lambda: _block_map(spec, S, tol)) == want
        assert (want is None) == (kind == "none" or (kind == "small" and tol is DEFAULT_TOL))


# ---------------------------------------------------------------------------
# the effect maps on stacks: member j is bit for bit the public map of S[j] alone


@st.composite
def effect_stacks(draw):
    """An effect automorphism, an embedding with or without each override, and a stack (k from 1 to 8,
    n from 1 to 5) of effects with exact 0 and I members mixed in."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = random_invertible(rng, n, max_cond=10.0)
    auto = EffectAutoSpec(frame=frame, transpose=draw(st.booleans()))
    base = random_hermitian_with_spectrum(rng, n, -0.8, 2.0)
    offset = random_hermitian(rng, n, scale=0.5)
    interior = EffectEmbeddingSpec(frame=frame, base=base, offset=offset).interior
    top = _effect_automorphism(interior, np.eye(n), DEFAULT_TOL)
    v0 = herm_part(offset - random_psd(rng, n)) if draw(st.booleans()) else None
    v1 = herm_part(top + random_psd(rng, n)) if draw(st.booleans()) else None
    spec = EffectEmbeddingSpec(frame=frame, base=base, offset=offset, value_at_zero=v0, value_at_one=v1)
    kinds = draw(st.lists(st.sampled_from(["effect", "zero", "one"]), min_size=1, max_size=8))
    points = {"zero": np.zeros((n, n)), "one": np.eye(n)}
    return auto, spec, np.stack([points[kind] if kind in points else random_effect(rng, n) for kind in kinds])


@settings(max_examples=150, deadline=None)
@given(effect_stacks())
def test_stacked_effect_maps_agree_with_per_matrix_maps(case):
    auto, spec, S = case
    autos = _effect_automorphism(auto, S, DEFAULT_TOL)
    embedded = _effect_embedding(spec, S, DEFAULT_TOL)
    for j, X in enumerate(S):
        assert autos[j].tobytes() == effect_automorphism(auto, X).tobytes()
        assert embedded[j].tobytes() == effect_embedding_map(spec, X).tobytes()


@settings(max_examples=60, deadline=None)
@given(effect_stacks(), st.data())
def test_a_stack_with_one_member_outside_the_domain_raises_the_per_matrix_error(case, data):
    auto, spec, S = case
    for m, body in ((auto, lambda T: _effect_automorphism(auto, T, DEFAULT_TOL)),
                    (spec.interior, lambda T: _effect_embedding(spec, T, DEFAULT_TOL))):
        # W A + I = 0 at W = -A^{-1}, W the (transposed) point; the bodies do not ask for an effect
        bad = herm_part(-np.linalg.inv(m.A).T if m.transpose else -np.linalg.inv(m.A))
        with pytest.raises(DomainViolationError) as single:
            body(bad[None])
        j = data.draw(st.integers(0, len(S)))
        with pytest.raises(DomainViolationError, match=f"^{single.value}$"):
            body(np.concatenate([S[:j], bad[None], S[j:]]))
