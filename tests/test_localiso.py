"""Shear maps on matrix domains: inversion, identities, components, recovery."""

from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matorder import localiso
from matorder.config import DEFAULT_TOL
from matorder.errors import DomainViolationError, ModelMismatchError, PathSearchError
from matorder.halfplane import (
    FIT_VALIDATION_POINTS,
    FIT_VALIDATION_SEED,
    MobiusAutomorphism,
    _apply_mobius,
    _fit_canonical,
    apply_mobius,
    fit_canonical,
)
from matorder.linalg import _hermitian_opnorms, herm_part, inertia, loewner_compare, opnorm
from matorder.localiso import (
    DIRECTION_SEED,
    _apply_local_iso,
    PathSearchResult,
    _bfs_over_pool,
    _det_signs,
    _identify_parameters,
    _in_shear_domain,
    _segment_crossings,
    _segment_from,
    _segment_in_shear_domain,
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
from matorder.sampling import _seeded_draws, random_half_plane, random_hermitian, random_invertible, random_psd


def _member(rng, A, scale=0.3):
    # small Hermitian perturbations of 0 stay in the zero component
    for _ in range(100):
        X = random_hermitian(rng, A.shape[0]) * scale
        if in_zero_component(A, X):
            return X
        scale *= 0.7
    raise AssertionError("could not sample a member")


def test_shear_apply_matches_direct_solve():
    # oracle: plain dense solve of (XA + I) W = X
    rng = np.random.default_rng(30)
    for _ in range(50):
        A = random_hermitian(rng, 4)
        X = random_hermitian(rng, 4)
        if not in_shear_domain(A, X):
            continue
        want = np.linalg.solve(X @ A + np.eye(4), X)
        assert opnorm(shear_apply(A, X) - want) <= 1e-10 * (1.0 + opnorm(want))


def test_shear_left_right_formulas_agree():
    rng = np.random.default_rng(31)
    for _ in range(50):
        A = random_hermitian(rng, 3)
        X = random_hermitian(rng, 3)
        if not in_shear_domain(A, X):
            continue
        left = np.linalg.solve(X @ A + np.eye(3), X)
        right = np.linalg.solve((A @ X + np.eye(3)).T, X.T).T
        assert opnorm(left - right) <= 1e-10 * (1.0 + opnorm(X))


def test_shear_mirrored_base_inverts():
    rng = np.random.default_rng(32)
    for _ in range(50):
        A = random_hermitian(rng, 4)
        X = _member(rng, A)
        Y = shear_apply(A, X)
        back = shear_apply(-A, Y)
        assert opnorm(back - X) <= 1e-9 * (1.0 + opnorm(X))


def test_shear_fixes_zero_and_rejects_singular_shift():
    A = np.diag([1.0, -2.0]).astype(complex)
    assert opnorm(shear_apply(A, np.zeros((2, 2)))) == 0.0
    # X A + I singular: X = diag(1, 1/2) makes the second pivot vanish
    X = np.diag([1.0, 0.5]).astype(complex)
    assert not in_shear_domain(A, X)
    with pytest.raises(DomainViolationError):
        shear_apply(A, X)


def test_zero_component_accepts_small_and_rejects_crossers():
    rng = np.random.default_rng(33)
    A = np.diag([2.0, -1.0, 0.5]).astype(complex)
    for _ in range(20):
        X = random_hermitian(rng, 3) * 0.05
        assert in_zero_component(A, X)
    # X with an eigenvalue of XA below -1 has crossed the boundary
    X_far = np.diag([-3.0, 0.0, 0.0]).astype(complex)  # XA eigenvalue -6
    assert in_shear_domain(A, X_far)
    assert not in_zero_component(A, X_far)


def test_exact_segment_test_matches_determinant_scan():
    # oracle: fine scan of det(((1-t)P + tQ)A + I); a sign change or
    # near-vanishing determinant means the segment left the domain
    rng = np.random.default_rng(41)
    seen = {True: 0, False: 0}
    for _ in range(300):
        A = random_hermitian(rng, 3)
        P = _member(rng, A, scale=0.4)
        Q = random_hermitian(rng, 3) * rng.uniform(0.2, 1.5)
        if not in_shear_domain(A, Q):
            continue
        ok = segment_in_shear_domain(A, P, Q)
        ts = np.linspace(0.0, 1.0, 600)
        dets = np.real(np.array([
            np.linalg.det(((1 - t) * P + t * Q) @ A + np.eye(3)) for t in ts
        ]))  # det(XA + I) is real for Hermitian X, A
        flip = bool(np.any(np.sign(dets[:-1]) * np.sign(dets[1:]) < 0))
        graze = float(np.min(np.abs(dets))) < 1e-4 * float(np.max(np.abs(dets)))
        if ok:
            assert not flip, "exact test passed a sign-changing segment"
        else:
            assert flip or graze, "exact test rejected a clean segment"
        seen[ok] += 1
        if min(seen.values()) >= 10:
            break
    assert seen[True] >= 10 and seen[False] >= 10


def test_grid_segment_gate_basics():
    rng = np.random.default_rng(42)
    A = random_hermitian(rng, 3)
    P = _member(rng, A, scale=0.2)
    Q = _member(rng, A, scale=0.2)
    # short segments between small members pass the gate
    assert segment_in_zero_component(A, 0.1 * P, 0.1 * Q)
    X_out = np.diag([-3.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(DomainViolationError):
        segment_in_zero_component(np.diag([2.0, -1.0, 0.5]).astype(complex),
                                  np.zeros((3, 3)), X_out)
    # both endpoints are members, but the segment is singular at t = 0.505 and
    # t = 0.51, between two points of any 32-step grid
    A = np.diag([1.0, -1.0]).astype(complex)
    Y = np.diag([-1.0 / 0.505, 1.0 / 0.51]).astype(complex)
    assert in_zero_component(A, Y)
    assert segment_in_zero_component(A, np.zeros((2, 2)), Y) is False


def test_membership_matches_path_search_oracle():
    # oracle: breadth-first search through random in-domain waypoints
    rng = np.random.default_rng(34)
    agree = 0
    for t in range(40):
        A = random_hermitian(rng, 3)
        X = random_hermitian(rng, 3) * rng.uniform(0.1, 1.5)
        if not in_shear_domain(A, X):
            continue
        crit = in_zero_component(A, X)
        found = path_to_zero(A, X, seed=900 + t,
                             max_nodes=2000 if crit else 96).found
        if crit:
            assert found, "member not reached by path search"
        else:
            assert not found, "claimed non-member reached 0"
        agree += 1
    assert agree >= 25


def _waypoints_per_draw(rng, H, spread, pool):
    """path_to_zero's waypoints drawn one at a time with rng.choice for the scale, the reference for the pool."""
    draws = np.empty((pool,) + H.shape, dtype=complex)
    for i in range(pool):
        kind = rng.integers(0, 3)
        if kind == 0:
            draws[i] = random_hermitian(rng, H.shape[0], scale=spread * rng.choice([0.5, 1.0, 2.0]))
        elif kind == 1:
            draws[i] = rng.uniform(0.1, 0.9) * H + random_hermitian(rng, H.shape[0], scale=0.7 * spread)
        else:
            draws[i] = rng.uniform(-0.5, 1.5) * H * rng.uniform(0.2, 0.8)
    return draws


def _same_bits(P, Q):
    return P.shape == Q.shape and np.array_equal(P.view(np.uint64), Q.view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_waypoint_scale_draw_is_the_choice_draw(seed):
    # indexing the scales with rng.integers(0, 3) gives rng.choice's value and leaves the generator in its state
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(50):
        assert localiso.WAYPOINT_SCALES[rng.integers(0, 3)] == reference.choice([0.5, 1.0, 2.0])
        assert rng.bit_generator.state == reference.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 200), st.sampled_from([1.0, 2.5, 40.0]), st.integers(0, 2**32 - 1))
def test_pool_waypoints_are_the_per_draw_waypoints(n, pool, spread, seed):
    H = random_hermitian(np.random.default_rng(seed), n, scale=spread)
    rng, reference = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    assert _same_bits(localiso._waypoints(rng, H, spread, pool), _waypoints_per_draw(reference, H, spread, pool))
    assert rng.bit_generator.state == reference.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.sampled_from([2.5, 4.0]), st.booleans(),
       st.sampled_from([3, 30, 50, 96, 200, 1000]), st.integers(0, 2**32 - 1))
def test_path_search_replays_the_per_draw_waypoints(n, scale, member, max_nodes, seed):
    # budgets of 3, 30 and 200 nodes cut a pool short (the pools hold 48, 96, 192, ... waypoints); X is
    # drawn until the straight segment from 0 leaves the domain, so that the search draws pools, and
    # until its membership is `member`, so that members are reached through waypoints
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, n, scale=1.5)
    for _ in range(300):
        X = random_hermitian(rng, n, scale=scale)
        if not segment_in_shear_domain(A, np.zeros((n, n)), X) and in_zero_component(A, X) == member:
            break
    got = path_to_zero(A, X, seed=seed, max_nodes=max_nodes)
    with mock.patch.object(localiso, "_waypoints", _waypoints_per_draw):
        want = path_to_zero(A, X, seed=seed, max_nodes=max_nodes)
    assert (got.found, got.nodes_used) == (want.found, want.nodes_used)
    assert (got.path is None) == (want.path is None)
    if got.path is not None:
        assert len(got.path) == len(want.path)
        assert all(_same_bits(P, Q) for P, Q in zip(got.path, want.path))


def test_stacked_shear_map_is_the_per_matrix_map():
    rng = np.random.default_rng(12)
    A = random_hermitian(rng, 3)
    S = np.stack([random_hermitian(rng, 3, scale=0.4) for _ in range(6)])
    got = localiso._shear_apply(A, S, DEFAULT_TOL)
    assert all(_same_bits(Y, shear_apply(A, X)) for X, Y in zip(S, got))
    # one member on the singular set: the stack raises with the shell's message
    S[4] = -np.linalg.inv(A)
    with pytest.raises(DomainViolationError, match="outside the shear domain"):
        localiso._shear_apply(A, S, DEFAULT_TOL)


def _bfs_per_node(nodes, crossed):
    """Reference search: one crossing row crossed(v, others) per frontier node v, against the nodes unvisited
    at that moment."""
    visited = {0}
    parents = {0: -1}
    frontier = [0]
    while frontier:
        next_frontier = []
        for v in frontier:
            others = [i for i in range(len(nodes)) if i not in visited]
            if not others:
                break
            for idx, crossing in zip(others, crossed(v, np.array(others))):
                if crossing or idx in visited:
                    continue
                visited.add(idx)
                parents[idx] = v
                if idx == 1:
                    path = [1]
                    while parents[path[-1]] != -1:
                        path.append(parents[path[-1]])
                    return path[::-1]
                next_frontier.append(idx)
        frontier = next_frontier
    return None


def _certified_crossings(base, stacked, shifts, signs, starts, ends):
    """Crossing table of the segments stacked[starts[i]] -> stacked[ends[j]], given each node's shift
    stacked[k] base + I and the nodes' _det_signs: ends of opposite sign are a crossing (t -> det((P + tD)
    base + I) is real and changes sign on [0, 1]), the rest go to the exact eigenvalue test."""
    crossings = signs[starts][:, None] != signs[ends][None, :]
    i, j = np.nonzero(~crossings)
    if i.size:
        crossings[i, j] = _segment_crossings(base, stacked[starts[i]], stacked[ends[j]], shifts[starts[i]])
    return crossings


def _path_to_zero_unfiltered(A, H, seed, max_nodes):
    """path_to_zero without the sign certificate of X and the sign filter of the pools: every waypoint that
    passes the shear gate joins its pool's search, whose crossing rows are certified by the nodes' signs."""
    zero = np.zeros_like(H)
    if not _in_shear_domain(A, H, DEFAULT_TOL):
        return PathSearchResult(False, None, 0)
    if _segment_in_shear_domain(A, zero, H, DEFAULT_TOL):
        return PathSearchResult(True, [zero, H], 2)
    rng = np.random.default_rng(seed)
    spread = max(1.0, float(_hermitian_opnorms(H)))
    used, pool = 2, localiso.PATH_POOL_SIZE
    while used < max_nodes:
        pool = min(pool, max_nodes - used)
        draws = localiso._waypoints(rng, H, spread, pool)
        used += pool
        stacked = np.concatenate([np.stack([zero, H]), draws[_in_shear_domain(A, draws, DEFAULT_TOL)]])
        shifts = stacked @ A + np.eye(A.shape[0])
        signs = _det_signs(shifts)
        order = _bfs_per_node(stacked, lambda v, others: _certified_crossings(A, stacked, shifts, signs,
                                                                              np.array([v]), others)[0])
        if order is not None:
            return PathSearchResult(True, [stacked[i] for i in order], used)
        pool *= 2
    return PathSearchResult(False, None, used)


@pytest.mark.parametrize("seed", [1, 7, 64, 2048])
def test_level_batched_search_returns_the_per_node_path(seed):
    # The search expands its frontier level by level, one node's row at a time.
    # Targets alternate between members whose straight path from 0 leaves the
    # shear domain (so a path needs waypoints) and non-members (unreachable).
    rng = np.random.default_rng(seed)
    hops = unreachable = 0
    for case in range(16):
        member = case % 2 == 0
        while True:
            n = int(rng.integers(2, 5))
            A = random_hermitian(rng, n)
            H = random_hermitian(rng, n) * rng.uniform(0.5, 3.0)
            if (in_shear_domain(A, H) and in_zero_component(A, H) == member
                    and not segment_in_shear_domain(A, np.zeros((n, n)), H)):
                break
        draws = [rng.uniform(-0.5, 1.5) * H + random_hermitian(rng, n) * rng.uniform(0.1, 1.5)
                 for _ in range(int(rng.integers(10, 80)))]
        nodes = [np.zeros((n, n), dtype=complex), H] + [W for W in draws if in_shear_domain(A, W)]
        stacked = np.stack(nodes)
        shifts = stacked @ A + np.eye(n)
        want = _bfs_per_node(nodes, lambda v, others: _segment_crossings(A, nodes[v], stacked[others], shifts[v]))
        assert _bfs_over_pool(A, stacked, shifts) == want
        hops += want is not None and len(want) > 2
        unreachable += want is None and not member
    assert hops >= 5 and unreachable == 8


def test_pool_search_tests_one_start_per_call():
    # no frontier x pool crossing table is built: each segment test has one start and at most the pool as ends;
    # X is a non-member of 0's determinant sign, so that both pools (48 and 96 waypoints) are searched in full
    rng = np.random.default_rng(36)
    while True:
        A, X = random_hermitian(rng, 3), random_hermitian(rng, 3, scale=2.5)
        if in_shear_domain(A, X) and not in_zero_component(A, X) and _det_signs(X @ A + np.eye(3)):
            break
    with mock.patch.object(localiso, "_segment_crossings", wraps=_segment_crossings) as crossings, \
            mock.patch.object(localiso, "_bfs_over_pool", wraps=_bfs_over_pool) as search:
        assert path_to_zero(A, X, max_nodes=146) == (False, None, 146)
    pool = max(len(call.args[1]) for call in search.call_args_list)
    assert pool >= 40 and crossings.call_count >= pool
    for call in crossings.call_args_list:
        _, P, Qs, M = call.args
        assert P.ndim == 2 and M.ndim == 2 and Qs[..., 0, 0].size <= pool


@pytest.mark.parametrize("seed", [1, 3, 50, 2048])
def test_level_batched_search_replays_the_per_node_claims_on_random_graphs(seed):
    # Node i is the 1x1 matrix [i], node 0 has 0's positive determinant sign and
    # each other node a random one, and a random symmetric adjacency table, which
    # crosses wherever the signs differ, stands in for the segment test. The
    # whole graph is searched node by node, as the search did before it kept
    # only the nodes of 0's sign; path_to_zero, given nodes 2.. as one pool,
    # must filter them to the same claims, so that searches run many levels
    # deep, claims race inside a level, and negative nodes and X drop out.
    rng = np.random.default_rng(seed)
    deep = unreachable = mixed = negative_x = 0
    for _ in range(300):
        size = int(rng.integers(2, 60))
        signs = rng.random(size) < 0.9
        signs[0] = True
        upper = np.triu(rng.random((size, size)) < rng.uniform(0.02, 0.3), 1)
        adjacent = (upper | upper.T) & (signs[:, None] == signs[None, :])
        stacked = np.arange(size, dtype=complex).reshape(size, 1, 1)

        def tested(base, P, Qs, M):
            # only segments between positive nodes are tested, each from its start's shift [i + 1]
            i, j = P[..., 0, 0].real.astype(int), Qs[..., 0, 0].real.astype(int)
            assert (signs[i] & signs[j]).all() and (M[..., 0, 0] == i + 1).all()
            return ~adjacent[i, j]

        want = _bfs_per_node(stacked, lambda v, others: ~adjacent[v, others])
        sign_of_shift = lambda shifts: signs[shifts[..., 0, 0].real.astype(int) - 1]
        with mock.patch.object(localiso, "_segment_crossings", tested), \
                mock.patch.object(localiso, "_det_signs", sign_of_shift), \
                mock.patch.object(localiso, "_waypoints", lambda rng, H, spread, pool: stacked[2:2 + pool]), \
                mock.patch.object(localiso, "PATH_POOL_SIZE", size - 2):
            got = path_to_zero(np.eye(1), stacked[1], max_nodes=size)
        assert got.found is (want is not None)
        assert got.nodes_used == (size if signs[1] and want != [0, 1] else 2)
        if want is not None:
            assert [int(P[0, 0].real) for P in got.path] == want
        deep += want is not None and len(want) >= 5
        unreachable += want is None
        mixed += bool(not signs.all())
        negative_x += not signs[1]
    assert deep >= 10 and unreachable >= 10 and mixed >= 10 and negative_x >= 5


def test_a_negative_determinant_sign_settles_a_non_member_before_any_draw():
    # det(X A + I) < 0 while det(0 A + I) = 1: no path from 0 reaches X, and the search says so at once
    rng = np.random.default_rng(40)
    settled = 0
    with mock.patch.object(localiso, "_waypoints", mock.Mock(side_effect=AssertionError("a waypoint was drawn"))):
        assert path_to_zero(np.eye(2), np.diag([-2.0, 0.5])) == (False, None, 2)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            A, X = random_hermitian(rng, n), random_hermitian(rng, n, scale=2.5)
            if in_shear_domain(A, X) and np.linalg.det(X @ A + np.eye(n)).real < 0:
                assert path_to_zero(A, X, seed=int(rng.integers(1000)), max_nodes=3000) == (False, None, 2)
                assert not in_zero_component(A, X)
                settled += 1
    assert settled >= 40


def _target_kind(A, X):
    """member, a non-member of positive determinant sign, or a non-member of negative sign (or outside)."""
    if in_zero_component(A, X):
        return "member"
    return "positive" if in_shear_domain(A, X) and _det_signs(X @ A + np.eye(A.shape[0])) else "negative"


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.sampled_from([2.5, 4.0]), st.sampled_from(["member", "positive", "negative"]),
       st.sampled_from([30, 96, 200, 400]), st.integers(0, 2**32 - 1))
def test_sign_filtered_search_replays_the_unfiltered_search(n, scale, kind, max_nodes, seed):
    # X is drawn until the straight segment from 0 leaves the domain, so that pools are drawn, with both
    # determinant signs among their waypoints, and until it is of the kind asked for; wherever X's sign is
    # positive the filtered search must find the path the unfiltered one finds, to the bit, after as many
    # nodes, or exhaust the same budget
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, n, scale=1.5)
    for _ in range(300):
        X = random_hermitian(rng, n, scale=scale)
        if not segment_in_shear_domain(A, np.zeros((n, n)), X) and _target_kind(A, X) == kind:
            break
    got = path_to_zero(A, X, seed=seed, max_nodes=max_nodes)
    want = _path_to_zero_unfiltered(A, X, seed, max_nodes)
    if _target_kind(A, X) == "negative" and in_shear_domain(A, X):
        assert got == (False, None, 2) and not want.found
        return
    assert (got.found, got.nodes_used) == (want.found, want.nodes_used)
    assert (got.path is None) == (want.path is None)
    if got.path is not None:
        assert len(got.path) == len(want.path)
        assert all(_same_bits(P, Q) for P, Q in zip(got.path, want.path))


def test_stacked_shear_gate_keeps_what_the_single_gate_keeps():
    # members near the singular set -A^{-1} put the gate's margin to work
    rng = np.random.default_rng(38)
    kept = rejected = 0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        A = random_hermitian(rng, n)
        edge = -np.linalg.inv(A)
        W = np.stack([random_hermitian(rng, n) * rng.uniform(0.2, 2.0) if j % 2
                      else herm_part(edge + 10.0 ** rng.uniform(-14, -4) * random_hermitian(rng, n))
                      for j in range(12)])
        got = _in_shear_domain(A, W, DEFAULT_TOL)
        want = [in_shear_domain(A, M) for M in W]
        assert got.tolist() == want
        kept += sum(want)
        rejected += len(want) - sum(want)
    assert kept >= 40 and rejected >= 40


def _relative_sigma_min(M):
    sv = np.linalg.svd(M, compute_uv=False)
    return sv[-1] / (1.0 + sv[0])


def _near_singular_pool(n, seed):
    """A base and the nodes of a pool that pass the shear gate: 0, nodes 1e-14..1e-4 from the
    singular point -A^{-1}, and far nodes."""
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, n)
    edge = -np.linalg.inv(A)
    near = np.stack([herm_part(edge + 10.0 ** rng.uniform(-14, -4) * random_hermitian(rng, n)) for _ in range(12)])
    far = np.stack([random_hermitian(rng, n) * rng.uniform(0.2, 3.0) for _ in range(12)])
    nodes = np.concatenate([np.zeros((1, n, n), dtype=complex), near, far])
    return A, nodes[_in_shear_domain(A, nodes, DEFAULT_TOL)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(3, 187)
def test_determinant_certificate_matches_the_eigen_test(n, seed):
    # The example has a start 1.8e-8 from singular (relative sigma_min) where
    # the eigen test misses crossings: G's eigenvalue near -3e7 + 4.7i fails the
    # REAL_EIG_MARGIN realness test, while the 50-digit determinants of the
    # ends have opposite signs.
    A, nodes = _near_singular_pool(n, seed)
    shifts = nodes @ A + np.eye(n)
    signs = _det_signs(shifts)
    every = np.arange(len(nodes))
    plain = _segment_crossings(A, nodes[:, None], nodes, shifts[:, None])
    certified = _certified_crossings(A, nodes, shifts, signs, every, every)
    opposite = signs[:, None] != signs[None, :]
    assert (certified[~opposite] == plain[~opposite]).all() and certified[opposite].all()
    # oracle: the 50-digit determinant of the same double entries
    with mpmath.workdps(50):
        exact = [mpmath.re(mpmath.det(mpmath.matrix(X.tolist()) * mpmath.matrix(A.tolist()) + mpmath.eye(n))) > 0
                 for X in nodes]
    assert signs.tolist() == exact
    # the eigen test reports every certified crossing but those at an end
    # within 1e-6 of singular
    margins = [_relative_sigma_min(X @ A + np.eye(n)) for X in nodes]
    assert all(min(margins[i], margins[j]) < 1e-6 for i, j in zip(*np.nonzero(opposite & ~plain)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(3, 187)
def test_a_lone_segment_is_decided_as_the_certified_table_decides_it(n, seed):
    # every node passed the shear gate, so the lone-segment kernels must give the table's entries
    A, nodes = _near_singular_pool(n, seed)
    every = np.arange(len(nodes))
    shifted = nodes @ A + np.eye(n)
    crossings = _certified_crossings(A, nodes, shifted, _det_signs(shifted), every, every)
    for i, P in enumerate(nodes):
        for j, Q in enumerate(nodes):
            assert _segment_in_shear_domain(A, P, Q, DEFAULT_TOL) is (not crossings[i, j])
            assert _segment_from(A, P, shifted[i], Q, DEFAULT_TOL) is (not crossings[i, j])
    # a far end outside the gate ends the test before any sign is read
    edge = herm_part(-np.linalg.inv(A)) if abs(np.linalg.det(A)) > 1e-12 else None
    if edge is not None and not _in_shear_domain(A, edge, DEFAULT_TOL):
        assert not _segment_in_shear_domain(A, nodes[0], edge, DEFAULT_TOL)
        assert not _segment_in_shear_domain(A, edge, nodes[0], DEFAULT_TOL)


def test_public_segment_test_reports_the_crossings_the_eigen_test_misses():
    # in the certificate test's pinned pool the bare eigen test misses 11
    # segments whose ends differ in determinant sign; the public test decides
    # them through the certificate
    A, nodes = _near_singular_pool(3, 187)
    shifts = nodes @ A + np.eye(3)
    signs = _det_signs(shifts)
    plain = _segment_crossings(A, nodes[:, None], nodes, shifts[:, None])
    missed = list(zip(*np.nonzero((signs[:, None] != signs[None, :]) & ~plain)))
    assert len(missed) == 11
    assert [segment_in_shear_domain(A, nodes[i], nodes[j]) for i, j in missed] == [False] * 11


def test_order_iso_preserves_order_on_members():
    rng = np.random.default_rng(35)
    checked = 0
    for _ in range(60):
        A = random_hermitian(rng, 3)
        X = _member(rng, A, scale=0.2)
        step = random_psd(rng, 3) * 0.05
        Y = herm_part(X + step)
        if not (in_zero_component(A, Y) and segment_in_zero_component(A, X, Y)):
            continue
        P, Q = order_iso_apply(A, X), order_iso_apply(A, Y)
        assert loewner_compare(P, Q).leq
        checked += 1
    assert checked >= 20


def test_translated_base_identity():
    # difference of shifted values equals the translated-base map up to congruence
    rng = np.random.default_rng(36)
    for _ in range(30):
        A = random_hermitian(rng, 3)
        X0 = _member(rng, A, scale=0.2)
        X = random_hermitian(rng, 3) * 0.1
        if not (in_shear_domain(A, herm_part(X0 + X))):
            continue
        M = X0 @ A + np.eye(3)
        A2 = translated_base(A, X0)
        if not in_shear_domain(A2, X):
            continue
        Mi = np.linalg.inv(M)
        lhs = shear_apply(A, herm_part(X0 + X)) - shear_apply(A, X0)
        rhs = Mi @ shear_apply(A2, X) @ Mi.conj().T
        assert opnorm(lhs - rhs) <= 1e-9 * (1.0 + opnorm(lhs))


def test_conjugated_base_identity():
    rng = np.random.default_rng(37)
    for _ in range(30):
        A = random_hermitian(rng, 3)
        T = random_invertible(rng, 3)
        S = np.linalg.inv(T.conj().T)
        A2 = conjugated_base(A, T)
        X = _member(rng, A, scale=0.2)
        Y = herm_part(S @ X @ S.conj().T)
        if not in_shear_domain(A2, Y):
            continue
        lhs = shear_apply(A2, Y)
        rhs = S @ shear_apply(A, X) @ S.conj().T
        assert opnorm(lhs - rhs) <= 1e-9 * (1.0 + opnorm(lhs))


def test_congruence_orbit_reproduces_image():
    rng = np.random.default_rng(38)
    done = 0
    for _ in range(40):
        A = random_hermitian(rng, 3)
        X = _member(rng, A, scale=0.25)
        if not in_zero_component(A, X):
            continue
        T = congruence_orbit(A, X)
        want = shear_apply(X, A)  # base and argument swapped on purpose
        got = herm_part(T @ A @ T.conj().T)
        assert opnorm(got - want) <= 1e-8 * (1.0 + opnorm(A))
        assert tuple(inertia(got)) == tuple(inertia(herm_part(want)))
        # T is the principal square root of (AX + I)^{-1}
        assert opnorm(T @ T @ (A @ X + np.eye(3)) - np.eye(3)) <= 1e-10
        assert np.all(np.linalg.eigvals(T).real > 0.0)
        done += 1
    assert done >= 15


@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-6, 5e-7])
def test_congruence_orbit_near_the_branch_cut(delta):
    # AX has eigenvalues -2 +- i delta, next to the cut (-inf, -1] that the straight path must avoid;
    # the product form of Denman-Beavers misses the 1e-8 congruence bound here from delta = 1e-5
    A, X = np.diag([1.0, -1.0]), np.array([[-2.0, delta], [delta, 2.0]])
    T = congruence_orbit(A, X)
    assert opnorm(T @ (A @ X + np.eye(2)) @ T - np.eye(2)) <= 1e-10
    assert opnorm(herm_part(T @ A @ T.conj().T) - shear_apply(X, A)) <= 1e-8 * (1.0 + opnorm(A))
    assert np.all(np.linalg.eigvals(T).real > 0.0)


def test_congruence_orbit_on_a_nilpotent_product():
    # AX = [[0, 1], [0, 0]] is a Jordan block: (AX + I)^{-1} = I - AX, whose root is I - AX/2
    T = congruence_orbit(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.max(np.abs(T - np.array([[1.0, -0.5], [0.0, 1.0]]))) <= 1e-15


def test_congruence_orbit_fails_exactly_where_the_straight_path_leaves():
    rng = np.random.default_rng(41)
    seen = {True: 0, False: 0}
    for _ in range(400):
        A = random_hermitian(rng, 3)
        X = random_hermitian(rng, 3) * rng.uniform(0.5, 4.0)
        if not in_zero_component(A, X):
            continue
        straight = segment_in_shear_domain(A, np.zeros((3, 3)), X)
        try:
            congruence_orbit(A, X)
            raised = False
        except PathSearchError:
            raised = True
        assert raised == (not straight)
        seen[straight] += 1
    assert seen[True] >= 50 and seen[False] >= 5


def test_interval_below_criterion_matches_sampling():
    # oracle: dense sampling of the scalar path t*X, t in [0, 1], a numpy-only
    # recomputation of the lowest eigenvalue of X^{1/2} A X^{1/2}, and X's own
    # membership, which the criterion equals for PSD X
    rng = np.random.default_rng(39)
    tested = refuted = 0
    for _ in range(120):
        A = random_hermitian(rng, 3)
        X = random_psd(rng, 3) * rng.uniform(0.1, 2.0)
        w, V = np.linalg.eigh(herm_part(X))
        R = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
        lam = float(np.linalg.eigvalsh(herm_part(R @ A @ R))[0])
        if abs(lam + 1.0) < 1e-3:
            continue  # borderline, both answers defensible
        crit = interval_below_criterion(A, X)
        assert crit == (lam > -1.0) == in_zero_component(A, X)
        if crit:
            assert all(
                in_zero_component(A, herm_part(t * X))
                for t in np.linspace(0.0, 1.0, 50)
            )
        tested += 1
        refuted += not crit
    assert tested >= 40 and refuted >= 5


def test_interval_criterion_refuses_a_psd_point_outside_the_component():
    # X^{1/2} A X^{1/2} = diag(-2, 0): the interval [0, X] crosses the singular set at X/2, so X lies outside
    A, X = np.diag([-2.0, 1.0]), np.diag([1.0, 0.0])
    assert not in_zero_component(A, X)
    assert interval_below_criterion(A, X) is False  # used to raise DomainViolationError
    with pytest.raises(DomainViolationError, match=r"^X must lie in the zero component$"):
        congruence_orbit(A, X)


def test_interval_criterion_quotes_the_lowest_eigenvalue_of_an_indefinite_x():
    with pytest.raises(DomainViolationError, match=r"not PSD: min eigenvalue -5\.000e-01$"):
        interval_below_criterion(np.eye(2), np.diag([1.0, -0.5]))


def test_psd_points_beyond_the_crossing_leave_the_component():
    # the flip side of the criterion: a PSD X whose compressed form
    # X^{1/2} A X^{1/2} dips below -1 cannot sit in the zero component,
    # because eigenvalues of the membership pencil move monotonically
    # along PSD rays and each can cross zero at most once
    rng = np.random.default_rng(43)
    found = 0
    for _ in range(400):
        A = random_hermitian(rng, 3)
        X = random_psd(rng, 3) * rng.uniform(0.5, 6.0)
        w, V = np.linalg.eigh(herm_part(X))
        R = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
        lam = float(np.linalg.eigvalsh(herm_part(R @ A @ R))[0])
        if lam >= -1.0 - 1e-3:
            continue
        assert not in_zero_component(A, X), lam
        found += 1
        if found >= 40:
            break
    assert found >= 40


def test_identify_parameters_recovers_planted_spec():
    rng = np.random.default_rng(40)
    base = random_hermitian(rng, 2) * 0.5
    frame = random_invertible(rng, 2)
    spec = MobiusAutomorphism(frame=frame, A=base, transpose=False)
    fn = lambda X: apply_local_iso(spec, X)
    got = identify_parameters(fn, 2)
    for _ in range(10):
        X = random_hermitian(rng, 2) * 0.1
        assert opnorm(apply_local_iso(got, X) - fn(X)) <= 1e-6 * (1.0 + opnorm(fn(X)))


def test_identify_parameters_rejects_non_model():
    crooked = lambda X: X + 0.05 * (X @ X)
    with pytest.raises(ModelMismatchError):
        identify_parameters(crooked, 2)


def test_apply_local_iso_raises_outside_the_zero_component():
    rng = np.random.default_rng(41)
    A = random_psd(rng, 3) + 0.5 * np.eye(3)
    m = MobiusAutomorphism(frame=random_invertible(rng, 3), A=A)
    # X A + I = -I is invertible, but X lies in another component than 0
    with pytest.raises(DomainViolationError):
        apply_local_iso(m, herm_part(-2.0 * np.linalg.inv(A)))


@pytest.mark.parametrize("transpose", [False, True])
def test_apply_local_iso_matches_congruence_of_order_iso(transpose):
    rng = np.random.default_rng(42)
    A = random_hermitian(rng, 3) * 0.5
    m = MobiusAutomorphism(frame=random_invertible(rng, 3), A=A, B=random_hermitian(rng, 3) * 0.1,
                           C=random_hermitian(rng, 3), transpose=transpose)
    for _ in range(10):
        E = random_hermitian(rng, 3) * 0.1
        X = (m.B + E).T if transpose else m.B + E  # X' - B = E
        want = m.C + m.frame @ order_iso_apply(A, E) @ m.frame.conj().T
        assert opnorm(apply_local_iso(m, X) - want) <= 1e-12 * (1.0 + opnorm(want))


def test_identify_parameters_recovers_planted_spec_in_dimension_one():
    spec = MobiusAutomorphism(frame=[[0.8 * np.exp(-1.1j)]], A=[[1.3]])
    got = identify_parameters(lambda X: apply_local_iso(spec, X), 1)
    assert opnorm(got.A - spec.A) <= 1e-5 * (1.0 + opnorm(spec.A))
    assert abs(got.frame[0, 0] - 0.8) <= 1e-5
    assert not got.transpose


def test_identify_parameters_gates_with_the_tolerances_passed():
    # the response at e1 of X -> 1e-7 X has norm 1e-7: above the default inv_margin 1e-8, below 1e-6
    got = identify_parameters(lambda X: 1e-7 * X, 2, DEFAULT_TOL)
    assert opnorm(got.frame - np.sqrt(1e-7) * np.eye(2)) <= 1e-12
    with pytest.raises(ModelMismatchError, match=r"^probe response at e1 is degenerate$"):
        identify_parameters(lambda X: 1e-7 * X, 2, DEFAULT_TOL.replace(inv_margin=1e-6))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
def test_stacked_local_iso_body_matches_each_member(n, k, transpose, seed):
    rng = np.random.default_rng(seed)
    m = MobiusAutomorphism(frame=random_invertible(rng, n), A=random_hermitian(rng, n) * 0.5,
                           B=random_hermitian(rng, n) * 0.3, C=random_hermitian(rng, n), transpose=transpose)
    assert np.any(m.B) and np.any(m.C)
    # X' - B = E, small enough that the segment from 0 to E stays in the shear domain
    Es = np.stack([random_hermitian(rng, n) * 0.05 for _ in range(k)])
    Xs = (m.B + Es).swapaxes(-1, -2).copy() if transpose else m.B + Es
    got = _apply_local_iso(m, Xs, DEFAULT_TOL)
    assert got.shape == Xs.shape
    for j in range(k):
        assert got[j].tobytes() == apply_local_iso(m, Xs[j]).tobytes()


@pytest.mark.parametrize("transpose", [False, True])
def test_stacked_local_iso_body_raises_where_one_member_fails(transpose):
    rng = np.random.default_rng(43)
    A = random_psd(rng, 3) + 0.5 * np.eye(3)
    m = MobiusAutomorphism(frame=random_invertible(rng, 3), A=A, B=random_hermitian(rng, 3) * 0.2, transpose=transpose)
    Xs = np.stack([m.B + random_hermitian(rng, 3) * 0.05 for _ in range(4)])
    # X' - B = -2 A^{-1}: X A + I = -I is invertible, but X lies in another component than 0
    Xs[2] = m.B + herm_part(-2.0 * np.linalg.inv(A))
    if transpose:
        Xs = Xs.swapaxes(-1, -2).copy()
    with pytest.raises(DomainViolationError, match=r"^X' - B is outside the zero component of A$"):
        apply_local_iso(m, Xs[2])
    with pytest.raises(DomainViolationError, match=r"^X' - B is outside the zero component of A$"):
        _apply_local_iso(m, Xs, DEFAULT_TOL)
    _apply_local_iso(m, Xs[[0, 1, 3]], DEFAULT_TOL)


@pytest.mark.parametrize("anchored", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_public_recovery_matches_the_stacked_route(n, anchored):
    rng = np.random.default_rng(60 + n)
    m = MobiusAutomorphism(frame=random_invertible(rng, n, max_cond=8.0), A=random_hermitian(rng, n) * 0.5,
                           transpose=bool(rng.integers(2)))
    full = MobiusAutomorphism(frame=m.frame, A=m.A, B=random_hermitian(rng, n) * 0.3,
                              C=random_hermitian(rng, n), transpose=m.transpose) if anchored else m
    X0 = random_hermitian(rng, n) * 0.1
    anchor = (X0, herm_part(apply_mobius(full, X0))) if anchored else None
    pairs = [
        (identify_parameters(lambda X: apply_local_iso(m, X), n),
         _identify_parameters(lambda X: _apply_local_iso(m, X, DEFAULT_TOL), n, DEFAULT_TOL)),
        (fit_canonical(lambda Z: apply_mobius(full, Z), n, anchor),
         _fit_canonical(lambda Z: _apply_mobius(full, Z, DEFAULT_TOL), n, anchor, DEFAULT_TOL)),
    ]
    for public, stacked in pairs:
        for key in ("frame", "A", "B", "C"):
            assert getattr(public, key).tobytes() == getattr(stacked, key).tobytes(), key
        assert public.transpose == stacked.transpose


def _congruence_probes(n):
    """e1e1*, then H = e1ej* + eje1* and K = i(e1ej* - eje1*) for j = 2..n."""
    probes = [np.zeros((n, n), dtype=complex)]
    probes[0][0, 0] = 1.0
    for j in range(1, n):
        H, K = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
        H[0, j] = H[j, 0] = 1.0
        K[0, j], K[j, 0] = 1j, -1j
        probes += [H, K]
    return probes


def _multiset(points):
    # + 0.0 turns -0 into +0
    return sorted((np.asarray(Z, dtype=complex) + 0.0).tobytes() for Z in points)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_per_matrix_evaluator_sees_one_call_per_point(n):
    rng = np.random.default_rng(70 + n)
    m = MobiusAutomorphism(frame=random_invertible(rng, n, max_cond=8.0), A=random_hermitian(rng, n) * 0.5)
    eye = np.eye(n, dtype=complex)
    probes = _congruence_probes(n)

    seen = []
    fit_canonical(lambda Z: seen.append(Z) or apply_mobius(m, Z), n)
    samples = _seeded_draws(random_half_plane, FIT_VALIDATION_SEED, n, FIT_VALIDATION_POINTS)
    want = [1j * eye] + [1j * eye + E for E in probes] + list(samples)
    assert len(seen) == 1 + (2 * n - 1) + 20
    assert _multiset(seen) == _multiset(want)

    seen = []
    identify_parameters(lambda X: seen.append(X) or apply_local_iso(m, X), n)
    h = 1e-4 * (1.0 + float(np.linalg.norm(apply_local_iso(m, 1e-6 * eye))) / 1e-6)
    c = 5.0 * h
    direction = _seeded_draws(random_hermitian, DIRECTION_SEED, n, 1)[0]
    direction = direction / max(opnorm(direction), 1e-12)
    want = [1e-6 * eye, np.zeros((n, n))] + [s * h * E for E in probes for s in (1.0, -1.0, 2.0, -2.0)]
    want += [c * np.eye(n), c * (np.eye(n) + 0.6 * direction)]
    assert len(seen) == 2 + 4 * (2 * n - 1) + 2
    assert _multiset(seen) == _multiset(want)


# ---------------------------------------------------------------------------
# stacked bases: member j of every answer is the single call on member j of each argument

STACKS = [(1,), (2,), (7,), (50,), (3, 2)]


def _gaussian_hermitians(rng, shape, n, scale=1.0):
    return herm_part(rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))) * scale


def _base_stack(rng, shape, n):
    """Hermitian bases with some eigenvalues exactly zero, so that their compressions keep different ranks."""
    vals = rng.uniform(0.3, 2.5, shape + (n,)) * rng.choice([-1.0, 1.0], shape + (n,))
    vals *= rng.random(shape + (n,)) > 0.3
    Q, _ = np.linalg.qr(rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n)))
    return herm_part((Q * vals[..., None, :]) @ Q.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("members", STACKS)
def test_stacked_base_kernels_are_the_single_calls(members):
    rng = np.random.default_rng(len(members) * 100 + members[0])
    tol = DEFAULT_TOL
    verdicts = set()
    for n in range(1, 9):
        A = _base_stack(rng, members, n)
        X, Y = (_gaussian_hermitians(rng, members, n, 0.02) for _ in range(2))
        T = np.eye(n) + _gaussian_hermitians(rng, members, n, 0.1)
        shifted = X @ A + np.eye(n)
        stacked = {
            "shear": localiso._shear_apply(A, X, tol),
            "domain": localiso._in_shear_domain(A, X, tol),
            "translated": localiso._translated_base(A, X, tol),
            "conjugated": localiso._conjugated_base(A, T, tol),
            "segment": localiso._segment_from(A, X, shifted, Y, tol),
            "map": localiso._order_iso_map(A, X),
        }
        for index in np.ndindex(*members):
            single = {
                "shear": shear_apply(A[index], X[index], tol),
                "domain": in_shear_domain(A[index], X[index], tol),
                "translated": translated_base(A[index], X[index], tol),
                "conjugated": conjugated_base(A[index], T[index], tol),
                "segment": segment_in_shear_domain(A[index], X[index], Y[index], tol),
                "map": order_iso_apply(A[index], X[index], tol),
            }
            for name, value in single.items():
                assert np.array_equal(stacked[name][index], value), (name, n, index)
        # zero components under stacked compressions of one rank, each base keeping its own positive count; the
        # points of bases[j] are H[j] (2, n, n)
        bases, H = A.reshape(-1, n, n), np.stack([X, 100.0 * Y], axis=-3).reshape(-1, 2, n, n)
        points = X.reshape(-1, n, n)
        compressions = [localiso._range_compression(B, tol) for B in bases]
        for rank in {lam.size for _, lam in compressions}:
            same = [j for j, (_, lam) in enumerate(compressions) if lam.size == rank]
            V, lam = (np.stack(c) for c in zip(*(compressions[j] for j in same)))
            inside = localiso._in_zero_component((V[:, None], lam[:, None]), H[same], tol)
            assert inside.shape == (len(same), 2)
            verdicts.update(inside.flat)
            assert localiso._in_zero_component((V, lam), H[same, 1], tol).tolist() == inside[:, 1].tolist()
            mapped = localiso._order_iso_apply(bases[same], (V, lam), points[same], tol)
            for row, j in enumerate(same):
                assert inside[row].tolist() == [in_zero_component(bases[j], P, tol) for P in H[j]]
                assert np.array_equal(mapped[row], order_iso_apply(bases[j], points[j], tol))
    assert verdicts == {True, False}


@pytest.mark.parametrize("kernel, shell, message", [
    (lambda A, X, T, tol: localiso._shear_apply(A, X, tol), lambda A, X, T, tol: shear_apply(A, X, tol),
     "X is outside the shear domain of this base"),
    (lambda A, X, T, tol: localiso._translated_base(A, X, tol), lambda A, X, T, tol: translated_base(A, X, tol),
     "X0 is outside the shear domain of this base"),
    (lambda A, X, T, tol: localiso._conjugated_base(A, T, tol), lambda A, X, T, tol: conjugated_base(A, T, tol),
     "frame must be invertible"),
])
def test_a_stack_of_bases_raises_its_second_members_message(kernel, shell, message):
    rng = np.random.default_rng(5)
    A = _base_stack(rng, (3,), 3)
    X = _gaussian_hermitians(rng, (3,), 3, 0.02)
    T = np.eye(3) + _gaussian_hermitians(rng, (3,), 3, 0.1)
    A[1] = np.diag([2.0, 1.0, -1.0]).astype(complex)
    X[1] = np.diag([-0.5, 0.0, 0.0]).astype(complex)  # X A + I is singular
    T[1] = np.diag([1.0, 0.0, 1.0]).astype(complex)
    with pytest.raises(DomainViolationError) as single:
        shell(A[1], X[1], T[1], DEFAULT_TOL)
    assert str(single.value) == message
    with pytest.raises(DomainViolationError, match=f"^{message}$"):
        kernel(A, X, T, DEFAULT_TOL)


def test_a_stack_of_bases_refuses_its_second_members_point_outside_the_zero_component():
    A = np.array([np.diag([0.5, -1.0]), np.diag([1.0, 2.0])], dtype=complex)
    # the second point is past the singular surface of X A + I
    X = np.array([0.1 * np.eye(2), np.diag([-2.0, 0.1])], dtype=complex)
    with pytest.raises(DomainViolationError) as single:
        order_iso_apply(A[1], X[1])
    V, lam = (np.stack(c) for c in zip(*(localiso._range_compression(B, DEFAULT_TOL) for B in A)))
    # one positive eigenvalue in the first base, two in the second: each member decides on its own count
    assert localiso._in_zero_component((V, lam), X, DEFAULT_TOL).tolist() == [True, False]
    with pytest.raises(DomainViolationError, match=f"^{single.value}$"):
        localiso._order_iso_apply(A, (V, lam), X, DEFAULT_TOL)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
def test_the_negated_compression_decides_as_the_negated_base(n, zero, seed):
    # (V, -lam) is -A's compression: A's kept eigenvectors and A's cut, since |-lam| = |lam|; on mixed-rank bases,
    # the zero base and singular ones included, it gives the verdicts of -A's own compression at every scale, alone
    # and as a stack of one compression
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n), dtype=complex) if zero else _base_stack(rng, (), n)
    H = _gaussian_hermitians(rng, (5, 4), n) * np.array([0.01, 0.1, 1.0, 10.0, 100.0])[:, None, None, None]
    V, lam = localiso._range_compression(A, DEFAULT_TOL)
    want = localiso._in_zero_component(localiso._range_compression(-A, DEFAULT_TOL), H, DEFAULT_TOL).tolist()
    assert localiso._in_zero_component((V, -lam), H, DEFAULT_TOL).tolist() == want
    assert localiso._in_zero_component((V[None], -lam[None]), H, DEFAULT_TOL).tolist() == want
