"""Command-line interface.

Subcommands:
    classify        signature class (m, p) of a Hermitian base matrix
    apply           apply one of the named maps to a matrix file
    check-monotone  fixed-order matrix monotonicity verdict for a scalar function
    verify          run named verification suites (all by default)
    gen             emit a random matrix of a requested kind

Matrix files are JSON {"rows": n, "cols": m, "data": [[[re, im], ...], ...]}
with numbers at 17 significant digits. Exit codes: 0 success, 1 property
failure, 2 usage or parse error, 3 domain violation. The environment
variable MATORDER_TOLERANCES ("psd_tol=1e-7,inv_margin=1e-9") overrides
numerical cushions. Each handler imports the library modules it calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig, _checked_int, parse_tolerance_overrides
from .errors import DomainViolationError, MalformedInputError, PathSearchError
from .fileio import matrix_to_payload, matrix_to_text, parse_matrix_file, read_json_file, write_matrix_file

__all__ = ["main"]

# gen's --dim and check-monotone's --order are checked before anything is drawn: a 1024 x 1024 draw
# already writes 45 MB, and far larger ones fail to allocate
MAX_DIM = 1024

# gen's kinds, the choices of --kind: kind -> (draw(sampling, rng, dim, scale), whether it reads --scale)
GEN_KINDS = {
    "hermitian": (lambda sampling, rng, dim, scale: sampling.random_hermitian(rng, dim, scale=scale), True),
    "psd": (lambda sampling, rng, dim, scale: sampling.random_psd(rng, dim, scale=scale), True),
    "effect": (lambda sampling, rng, dim, scale: sampling.random_effect(rng, dim), False),
    "halfplane": (lambda sampling, rng, dim, scale: sampling.random_half_plane(rng, dim), False),
}


def _emit_matrix(M: np.ndarray, out: Optional[str]) -> None:
    """Write M to out, or to stdout; a non-finite result (an overflow inside a map) is a domain error."""
    if not np.isfinite(M).all():
        raise DomainViolationError("the result overflows: it has non-finite entries")
    if out:
        write_matrix_file(out, M)
    else:
        sys.stdout.write(matrix_to_text(M))


def _cmd_classify(args, tol: ToleranceConfig) -> int:
    from .classify import signature_class
    A = parse_matrix_file(args.matrix)
    cls = signature_class(A, tol)
    dim = int(A.shape[0])
    print(json.dumps({
        "dim": dim,
        "m": cls.m,
        "p": cls.p,
        "borderline": cls.borderline,
        "inertia": [cls.p, dim - cls.m, cls.m - cls.p],
    }, sort_keys=True))
    return 0


def _require(value, flag: str, map_name: str):
    if value is None:
        raise MalformedInputError(f"--map {map_name} requires {flag}")
    return value


def _cmd_apply(args, tol: ToleranceConfig) -> int:
    from .linalg import as_hermitian, inertia  # every map's module loads linalg
    X = parse_matrix_file(args.matrix)
    if args.map == "theta":
        from .localiso import shear_apply
        base = parse_matrix_file(_require(args.base, "--base", "theta"))
        out = shear_apply(base, as_hermitian(X, tol, "X"), tol)
    elif args.map == "phi":
        from .localiso import order_iso_apply
        base = parse_matrix_file(_require(args.base, "--base", "phi"))
        out = order_iso_apply(base, X, tol)
    elif args.map == "phi-mp":
        from .classify import BlockMapSpec, block_map_apply
        m = _require(args.corner, "--corner", "phi-mp")
        X = as_hermitian(X, tol, "X")
        n = X.shape[0]
        if not 0 <= m <= n:
            raise MalformedInputError(f"--corner must lie in [0, {n}]")
        if args.positive is None:
            p = inertia(X[:m, :m], tol).n_pos if m else 0
        else:
            p = args.positive
        out = block_map_apply(BlockMapSpec(n, m, p), X, tol)
    elif args.map in ("effect", "fpq"):
        from .classify import EffectAutoSpec, FpqSpec, effect_automorphism
        frame = parse_matrix_file(_require(args.frame, "--frame", args.map))
        if args.map == "effect":
            m = EffectAutoSpec(frame=frame, transpose=args.transpose)
        else:
            m = FpqSpec(p=_require(args.p, "--p", "fpq"), q=_require(args.q, "--q", "fpq"), frame=frame,
                        transpose=args.transpose).automorphism
        out = effect_automorphism(m, X, tol)
    elif args.map == "mobius":
        from .halfplane import MobiusAutomorphism, apply_mobius
        frame = parse_matrix_file(_require(args.frame, "--frame", "mobius"))
        n = frame.shape[0]
        # validated under MATORDER_TOLERANCES here; the map type checks them with the defaults
        A, B, C = (None if path is None else as_hermitian(parse_matrix_file(path), tol, name)
                   for path, name in ((args.base, "A"), (args.shift_in, "B"), (args.shift_out, "C")))
        mob = MobiusAutomorphism(frame=frame, A=np.zeros((n, n)) if A is None else A, B=B, C=C,
                                 transpose=args.transpose)
        out = apply_mobius(mob, X, tol)
    else:  # "pick", the last of --map's choices
        from .monotone import pick_eval
        rep = _load_pick(_require(args.rep, "--rep", "pick"))
        out = np.atleast_2d(pick_eval(rep, X, tol))
    _emit_matrix(np.asarray(out, dtype=complex), args.out)
    return 0


def _load_pick(path: str):
    from .monotone import PickRepresentation
    def decode(payload) -> PickRepresentation:
        rep = {"c": 0.0, "d": 0.0, "atoms": [], **payload}  # a TypeError unless payload is an object
        return PickRepresentation(c=float(rep["c"]), d=float(rep["d"]), atoms=rep["atoms"],
                                  interval=(float(rep["interval"][0]), float(rep["interval"][1])))
    return read_json_file(path, "representation", decode)


def _cmd_check_monotone(args, tol: ToleranceConfig) -> int:
    if not 1 <= args.order <= MAX_DIM:
        raise MalformedInputError(f"--order must lie in [1, {MAX_DIM}], got {args.order}")
    from .monotone import builtin_function, is_matrix_monotone
    f = builtin_function(args.fn)
    report = is_matrix_monotone(f, args.order, trials=args.trials, seed=args.seed, tol=tol)
    payload = {
        "function": report.function,
        "order": report.order,
        "verdict": "PASS" if report.passed else "FAIL",
        "conclusive": report.conclusive,
        "node_trials": report.node_trials,
        "pair_trials": report.pair_trials,
        "min_loewner_eigenvalue": report.min_loewner_eigenvalue,
        "seed": report.seed,
    }
    if report.witness_nodes is not None:
        payload["witness_nodes"] = list(report.witness_nodes)
    if report.witness_pair is not None:
        X, Y = report.witness_pair
        payload["witness_pair"] = {"X": matrix_to_payload(X), "Y": matrix_to_payload(Y)}
    print(json.dumps(payload, sort_keys=True))
    return 0 if report.passed else 1


def _cmd_verify(args, tol: ToleranceConfig) -> int:
    from .suites import run_suite, suite_description, suite_names
    if args.list:
        for name in suite_names():
            print(f"{name:26s} {suite_description(name)}")
        return 0
    names = args.suites or suite_names()
    failed = 0
    for name in names:
        report = run_suite(name, seed=args.seed, trials=args.trials, tol=tol)
        print(report.to_json(include_timing=not args.no_timing))
        if not report.passed:
            failed += 1
    print(json.dumps({"suites": len(names), "failed": failed}, sort_keys=True, separators=(",", ":")))
    return 0 if failed == 0 else 1


def _cmd_gen(args, tol: ToleranceConfig) -> int:
    from . import sampling
    rng = np.random.default_rng(_checked_int(args.seed, "--seed", 0))
    if not 1 <= args.dim <= MAX_DIM:
        raise MalformedInputError(f"--dim must lie in [1, {MAX_DIM}], got {args.dim}")
    draw, scaled = GEN_KINDS[args.kind]
    if args.scale is not None and not scaled:
        raise MalformedInputError(f"--kind {args.kind} reads no --scale")
    if args.scale is not None and not 0.0 < args.scale < np.inf:
        raise MalformedInputError(f"--scale must be finite and positive, got {args.scale}")
    _emit_matrix(draw(sampling, rng, args.dim, 1.0 if args.scale is None else args.scale), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matorder",
        description="Order isomorphisms on matrix domains: maps, classification, monotonicity, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="signature class (m, p) of a Hermitian base matrix")
    p_cls.add_argument("matrix", help="matrix JSON file")
    p_cls.set_defaults(func=_cmd_classify)

    p_apply = sub.add_parser("apply", help="apply a named map to a matrix file")
    p_apply.add_argument("--map", required=True,
                         choices=["theta", "phi", "phi-mp", "effect", "fpq", "mobius", "pick"])
    p_apply.add_argument("matrix", help="input matrix JSON file")
    p_apply.add_argument("--base", help="base matrix file (theta, phi, mobius)")
    p_apply.add_argument("--frame", help="frame matrix file (effect, fpq, mobius)")
    p_apply.add_argument("--corner", type=int, help="corner size m (phi-mp)")
    p_apply.add_argument("--positive", type=int,
                         help="corner positive count p (phi-mp; default: read off the corner)")
    p_apply.add_argument("--p", type=float, help="first reweighting parameter (fpq)")
    p_apply.add_argument("--q", type=float, help="second reweighting parameter (fpq)")
    p_apply.add_argument("--shift-in", help="input shift matrix file (mobius)")
    p_apply.add_argument("--shift-out", help="output shift matrix file (mobius)")
    p_apply.add_argument("--transpose", action="store_true", help="pre-transpose the argument")
    p_apply.add_argument("--rep", help="integral representation JSON file (pick)")
    p_apply.add_argument("--out", help="write the result here instead of stdout")
    p_apply.set_defaults(func=_cmd_apply)

    p_mono = sub.add_parser("check-monotone", help="matrix monotonicity verdict for a scalar function")
    p_mono.add_argument("--fn", required=True,
                        help="sqrt | log | square | fp:<p> | rational:<r> | table:<path>")
    p_mono.add_argument("--order", type=int, required=True, help="matrix order to test")
    p_mono.add_argument("--trials", type=int, default=500)
    p_mono.add_argument("--seed", type=int, default=0)
    p_mono.set_defaults(func=_cmd_check_monotone)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suites", nargs="*", help="suite names (default: all)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=None,
                          help="override the per-suite default trial count")
    p_verify.add_argument("--list", action="store_true", help="list suite names and exit")
    p_verify.add_argument("--no-timing", action="store_true",
                          help="omit the timing field for byte-comparable output")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="emit a random matrix")
    p_gen.add_argument("--kind", required=True, choices=list(GEN_KINDS))
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--scale", type=float, help="spread of the draw (hermitian, psd; default: 1)")
    p_gen.add_argument("--out", help="write the matrix here instead of stdout")
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = parse_tolerance_overrides(os.environ.get("MATORDER_TOLERANCES", ""), DEFAULT_TOL)
        # an overflow is judged by the checks on what it reaches (apply refuses a non-finite result), so
        # numpy's RuntimeWarning lines would only be noise ahead of the one-line outcome
        with np.errstate(all="ignore"):
            return args.func(args, tol)
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainViolationError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except PathSearchError as exc:
        print(f"search failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
