"""map-stream: one public map or predicate call at a time, as a library user makes them.

Inputs are drawn from the seed with numpy alone before the clock starts,
mixed over n in {2, 4, 8}. For every function one argument in six lies
outside its domain: the maps must raise DomainViolationError there and the
membership predicates must answer False (signature_class has no outside;
its two extra draws per n lie inside).
Outcome classes and predicate verdicts are judged on every call; the values
returned by the maps are checked after the timed loop against independent
numpy oracles.

The mix is an assumed, synthetic one: no record of how the library is
called exists to weight it by. Every function and every n get the same
number of calls, so that a change to any one of them moves the figures by a
known share (1/30 of the calls per function and n). Per function and n, two
calls lie outside the domain, so that each rejection path is timed on more
than one input, and ten lie inside, so that accepted calls, the usual case,
stay the large majority and decide ``op_p50_ms``. ``breakdown`` reports the
median latency per n and inside and outside the domain, so a change
confined to the rejection path or to n=8 can be read off without the weights.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List

import numpy as np

from matorder import classify, halfplane, localiso, monotone
from matorder.errors import DomainViolationError

DIMS = (2, 4, 8)
INSIDE, OUTSIDE = 10, 2
SMOKE_INSIDE, SMOKE_OUTSIDE = 1, 1
REJECT = "reject"
ORACLE_TOL = 1e-8


def _cgauss(g, n, m=None):
    m = n if m is None else m
    return (g.standard_normal((n, m)) + 1j * g.standard_normal((n, m))) / np.sqrt(2.0)


def _herm(M):
    return (M + M.conj().T) / 2.0


def _unitary(g, n):
    Q, R = np.linalg.qr(_cgauss(g, n))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _with_spectrum(g, values):
    U = _unitary(g, len(values))
    return _herm((U * np.asarray(values, dtype=float)) @ U.conj().T)


def _signs(g, n, lo=0.5, hi=2.0):
    return g.uniform(lo, hi, n) * g.choice([-1.0, 1.0], n)


def _spectral(H, f):
    w, V = np.linalg.eigh(H)
    return _herm((V * f(w)) @ V.conj().T)


# ---------------------------------------------------------------------------
# input generators: (module, function name, args, expected, oracle)
# expected is REJECT, a predicate verdict, or None for "returns a value".


def _zero_component(g, n, inside, fn):
    if inside:
        A = _herm(_cgauss(g, n))
        H = _herm(_cgauss(g, n))
        # ||X A|| < 1 on the whole segment [0, X], so X is in the component of 0.
        X = g.uniform(0.1, 0.9) * H / (np.linalg.norm(A, 2) * np.linalg.norm(H, 2))
    else:
        A = _with_spectrum(g, g.uniform(0.5, 2.0, n))
        X = _herm(-2.0 * np.linalg.inv(A))  # X A + I = -I: invertible, wrong component
    if fn == "in_zero_component":
        return localiso, fn, (A, X), inside, None
    return localiso, fn, (A, X), None if inside else REJECT, ("mirror", A, X)


def _shear(g, n, inside):
    A = _with_spectrum(g, _signs(g, n))
    if inside:
        G = _cgauss(g, n)
        X = g.uniform(0.1, 0.9) * G / (np.linalg.norm(A, 2) * np.linalg.norm(G, 2))
    else:
        X = -np.linalg.inv(A)  # X A + I = 0
    return localiso, "shear_apply", (A, X), None if inside else REJECT, ("mirror", A, X)


def _block_input(g, n, inside, fn):
    m = int(g.integers(1, n + 1))
    p = int(g.integers(0, m + 1))
    positives = p if inside else (p + 1 if p < m else p - 1)
    corner = _with_spectrum(g, np.concatenate([g.uniform(0.5, 2.0, positives),
                                               -g.uniform(0.5, 2.0, m - positives)]))
    X = _herm(_cgauss(g, n))
    X[:m, :m] = corner
    spec = classify.BlockMapSpec(n, m, p)
    if fn == "in_block_domain":
        return classify, fn, (spec, X), inside, None
    return classify, fn, (spec, X), None if inside else REJECT, ("block", m, X)


def _half_plane_point(g, n, lo=0.2):
    return _herm(_cgauss(g, n)) + 1j * _with_spectrum(g, g.uniform(lo, 1.5, n))


def _in_half_plane(g, n, inside):
    Z = _half_plane_point(g, n) if inside else (
        _herm(_cgauss(g, n)) + 1j * _with_spectrum(g, np.r_[-0.5, g.uniform(0.2, 1.5, n - 1)]))
    return halfplane, "in_half_plane", (Z,), inside, None


def _mobius(g, n, inside):
    frame = _unitary(g, n) @ np.diag(g.uniform(0.5, 2.0, n)) @ _unitary(g, n)
    A, B, C = (0.5 * _herm(_cgauss(g, n)) for _ in range(3))
    transpose = bool(g.integers(0, 2))
    mob = halfplane.MobiusAutomorphism(frame=frame, A=A, B=B, C=C, transpose=transpose)
    Z = _half_plane_point(g, n) if inside else (B.T if transpose else B)  # Z' - B = 0
    return halfplane, "apply_mobius", (mob, Z), None if inside else REJECT, ("mobius", mob, Z)


def _fpq(g, n, inside):
    frame = _unitary(g, n) @ np.diag(g.uniform(0.3, 0.9, n)) @ _unitary(g, n)
    spec = classify.FpqSpec(p=float(g.uniform(0.2, 0.8)), q=float(-g.uniform(0.3, 2.0)),
                            frame=frame, transpose=bool(g.integers(0, 2)))
    values = g.uniform(0.02, 0.98, n)
    if not inside:
        values[0] = 1.3  # not an effect
    X = _with_spectrum(g, values)
    return (classify, "rational_effect_automorphism", (spec, X),
            None if inside else REJECT, ("fpq", spec, X))


def _signature(g, n, inside):
    kinds = g.integers(0, 3, n)  # 0: zero, 1: positive, 2: negative eigenvalue
    values = np.where(kinds == 0, 0.0, g.uniform(0.5, 2.0, n) * np.where(kinds == 1, 1.0, -1.0))
    expected = (int(np.sum(kinds != 0)), int(np.sum(kinds == 1)))
    return classify, "signature_class", (_with_spectrum(g, values),), expected, None


def _pick(g, n, inside):
    rep = monotone.PickRepresentation(
        c=float(g.standard_normal()), d=float(g.uniform(0.0, 1.0)),
        atoms=((-3.0, float(g.uniform(0.5, 1.5))), (2.5, float(g.uniform(0.5, 1.5)))),
        interval=(-1.0, 1.0))
    values = g.uniform(-0.9, 0.9, n)
    if not inside:
        values[0] = 1.4
    X = _with_spectrum(g, values)
    return monotone, "pick_eval", (rep, X), None if inside else REJECT, ("pick", rep, X)


GENERATORS = (
    lambda g, n, i: _zero_component(g, n, i, "in_zero_component"),
    lambda g, n, i: _zero_component(g, n, i, "order_iso_apply"),
    _shear,
    lambda g, n, i: _block_input(g, n, i, "in_block_domain"),
    lambda g, n, i: _block_input(g, n, i, "block_map_apply"),
    _in_half_plane,
    _mobius,
    _fpq,
    _signature,
    _pick,
)


class Inputs:
    def __init__(self, calls, dims) -> None:
        self.calls = calls
        self.dims = dims  # n of each call
        self.results = [None] * len(calls)


def make_inputs(workload: str, seed: int, smoke: bool) -> Inputs:
    g = np.random.default_rng(seed)
    inside, outside = (SMOKE_INSIDE, SMOKE_OUTSIDE) if smoke else (INSIDE, OUTSIDE)
    calls, dims = [], []
    for n in DIMS:
        for gen in GENERATORS:
            calls += [gen(g, n, True) for _ in range(inside)]
            calls += [gen(g, n, False) for _ in range(outside)]
            dims += [n] * (inside + outside)
    order = g.permutation(len(calls))
    return Inputs([calls[i] for i in order], [dims[i] for i in order])


def breakdown(inputs: Inputs, times: List[List[float]]) -> Dict[str, dict]:
    """Item count and median per-item latency (ms) per n and inside or outside the domain."""
    groups: Dict[str, List[float]] = {}
    for (_, _, _, expected, _), n, t in zip(inputs.calls, inputs.dims, times):
        # Outside: a map must raise or a membership predicate must answer False.
        side = "outside" if expected is REJECT or expected is False else "inside"
        for key in (f"n{n}", side):
            groups.setdefault(key, []).append(statistics.median(t) * 1e3)
    return {key: {"items": len(v), "p50_ms": statistics.median(v)} for key, v in sorted(groups.items())}


def items(inputs: Inputs, traced: bool) -> List[Callable[[], bool]]:
    def make(i: int, module, name: str, args, expected) -> Callable[[], bool]:
        results = inputs.results

        def item() -> bool:
            # Looked up per call so that a traced run goes through the wrapper.
            fn = getattr(module, name)
            try:
                out = fn(*args)
            except DomainViolationError:
                results[i] = REJECT
                return expected is REJECT
            results[i] = out
            if expected is None:
                return True
            if isinstance(expected, tuple):
                return (out.m, out.p) == expected and not out.borderline
            return expected is not REJECT and bool(out) == expected
        return item

    return [make(i, mod, name, args, exp) for i, (mod, name, args, exp, _) in enumerate(inputs.calls)]


# ---------------------------------------------------------------------------
# oracles


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b, 2) / (1.0 + np.linalg.norm(b, 2)))


def _block_formula(m, H):
    """The corner-inverting map in plain numpy; for the dual class it undoes itself."""
    X11, X12, X22 = H[:m, :m], H[:m, m:], H[m:, m:]
    inv = np.linalg.inv(X11)
    K = inv @ X12
    return np.block([[-inv, 1j * K], [-1j * K.conj().T, X22 - X12.conj().T @ K]])


def _oracle_ok(oracle, out) -> bool:
    kind = oracle[0]
    if kind == "mirror":  # the mirrored base inverts the shear: Theta_{-A}(Theta_A(X)) = X
        _, A, X = oracle
        back = np.linalg.solve(out @ (-A) + np.eye(A.shape[0]), out)
        return _rel(back, X) <= ORACLE_TOL
    if kind == "block":  # the map of the dual class sends the image back
        _, m, X = oracle
        back = _block_formula(m, out)
        return _rel(back, X) <= ORACLE_TOL
    if kind == "mobius":  # solve form (I + W A)^{-1} W of ((Z' - B)^{-1} + A)^{-1}
        _, mob, Z = oracle
        W = (Z.T if mob.transpose else Z) - mob.B
        inner = np.linalg.solve(np.eye(W.shape[0]) + W @ mob.A, W)
        want = mob.frame @ inner @ mob.frame.conj().T + mob.C
        imag_min = np.linalg.eigvalsh((out - out.conj().T) / 2j)[0]
        return _rel(out, want) <= ORACLE_TOL and imag_min > 0.0
    if kind == "fpq":  # four-factor spectral route
        _, spec, X = oracle
        T = spec.frame
        fp = lambda x: x / (spec.p * x + 1.0 - spec.p)
        fq = lambda x: x / (spec.q * x + 1.0 - spec.q)
        Y = _herm(T @ (X.T if spec.transpose else X) @ T.conj().T)
        Y = _spectral(Y, fp)
        R = _spectral(_spectral(_herm(T @ T.conj().T), fp), lambda x: 1.0 / np.sqrt(x))
        want = _spectral(_herm(R @ Y @ R), fq)
        return _rel(out, want) <= ORACLE_TOL
    if kind == "pick":  # scalar function through the eigendecomposition
        _, rep, X = oracle
        f = lambda x: rep.c + rep.d * x + sum(w * (1.0 + x * y) / (y - x) for y, w in rep.atoms)
        return _rel(out, _spectral(X, f)) <= ORACLE_TOL
    raise ValueError(kind)


def check(inputs: Inputs):
    attempted = failed = 0
    for (_, _, _, expected, oracle), out in zip(inputs.calls, inputs.results):
        if oracle is None or expected is REJECT:
            continue
        attempted += 1
        failed += out is None or isinstance(out, str) or not _oracle_ok(oracle, np.asarray(out))
    return attempted, failed, {"map_calls_per_pass": len(inputs.calls), "oracle_checks": attempted}
