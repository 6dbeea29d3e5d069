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
numerical cushions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from .classify import (
    BlockMapSpec,
    EffectAutoSpec,
    FpqSpec,
    block_map_apply,
    effect_automorphism,
    signature_class,
)
from .config import DEFAULT_TOL, ToleranceConfig, parse_tolerance_overrides
from .errors import DomainViolationError, MalformedInputError, PathSearchError
from .fileio import matrix_to_payload, matrix_to_text, parse_matrix_file, read_text_file, write_matrix_file
from .halfplane import MobiusAutomorphism, apply_mobius
from .linalg import as_hermitian, inertia
from .localiso import order_iso_apply, shear_apply
from .monotone import PickRepresentation, builtin_function, is_matrix_monotone, pick_eval
from .sampling import random_effect, random_half_plane, random_hermitian, random_psd
from .suites import run_suite, suite_description, suite_names

__all__ = ["main"]


def _emit_matrix(M: np.ndarray, out: Optional[str]) -> None:
    if out:
        write_matrix_file(out, M)
    else:
        sys.stdout.write(matrix_to_text(M))


def _cmd_classify(args, tol: ToleranceConfig) -> int:
    A = parse_matrix_file(args.matrix)
    cls = signature_class(A, tol)
    sig = inertia(A, tol)
    print(json.dumps({
        "dim": int(A.shape[0]),
        "m": cls.m,
        "p": cls.p,
        "borderline": cls.borderline,
        "inertia": [sig.n_pos, sig.n_zero, sig.n_neg],
    }, sort_keys=True))
    return 0


def _require(value, flag: str, map_name: str):
    if value is None:
        raise MalformedInputError(f"--map {map_name} requires {flag}")
    return value


def _cmd_apply(args, tol: ToleranceConfig) -> int:
    X = parse_matrix_file(args.matrix)
    if args.map == "theta":
        base = parse_matrix_file(_require(args.base, "--base", "theta"))
        out = shear_apply(base, as_hermitian(X, tol, "X"), tol)
    elif args.map == "phi":
        base = parse_matrix_file(_require(args.base, "--base", "phi"))
        out = order_iso_apply(base, X, tol)
    elif args.map == "phi-mp":
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
        frame = parse_matrix_file(_require(args.frame, "--frame", args.map))
        if args.map == "effect":
            m = EffectAutoSpec(frame=frame, transpose=args.transpose)
        else:
            m = FpqSpec(p=_require(args.p, "--p", "fpq"), q=_require(args.q, "--q", "fpq"), frame=frame,
                        transpose=args.transpose).automorphism
        out = effect_automorphism(m, X, tol)
    elif args.map == "mobius":
        frame = parse_matrix_file(_require(args.frame, "--frame", "mobius"))
        n = frame.shape[0]
        # validated under MATORDER_TOLERANCES here; the map type checks them with the defaults
        A, B, C = (None if path is None else as_hermitian(parse_matrix_file(path), tol, name)
                   for path, name in ((args.base, "A"), (args.shift_in, "B"), (args.shift_out, "C")))
        mob = MobiusAutomorphism(frame=frame, A=np.zeros((n, n)) if A is None else A, B=B, C=C,
                                 transpose=args.transpose)
        out = apply_mobius(mob, X, tol)
    elif args.map == "pick":
        rep = _load_pick(_require(args.rep, "--rep", "pick"))
        out = np.atleast_2d(pick_eval(rep, X, tol))
    else:  # pragma: no cover - argparse restricts choices
        raise MalformedInputError(f"unknown map {args.map}")
    _emit_matrix(np.asarray(out, dtype=complex), args.out)
    return 0


def _load_pick(path: str) -> PickRepresentation:
    text = read_text_file(path)
    try:
        payload = json.loads(text)
        return PickRepresentation(
            c=float(payload.get("c", 0.0)),
            d=float(payload.get("d", 0.0)),
            atoms=tuple((float(y), float(w)) for y, w in payload.get("atoms", [])),
            interval=(float(payload["interval"][0]), float(payload["interval"][1])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad representation file {path}: {exc}") from exc


def _cmd_check_monotone(args, tol: ToleranceConfig) -> int:
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
    rng = np.random.default_rng(args.seed)
    if args.dim < 1:
        raise MalformedInputError("--dim must be positive")
    if args.kind == "hermitian":
        M = random_hermitian(rng, args.dim, scale=args.scale)
    elif args.kind == "psd":
        M = random_psd(rng, args.dim, scale=args.scale)
    elif args.kind == "effect":
        M = random_effect(rng, args.dim)
    elif args.kind == "halfplane":
        M = random_half_plane(rng, args.dim)
    else:  # pragma: no cover - argparse restricts choices
        raise MalformedInputError(f"unknown kind {args.kind}")
    _emit_matrix(M, args.out)
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
    p_gen.add_argument("--kind", required=True, choices=["hermitian", "psd", "effect", "halfplane"])
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--scale", type=float, default=1.0)
    p_gen.add_argument("--out", help="write the matrix here instead of stdout")
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = parse_tolerance_overrides(os.environ.get("MATORDER_TOLERANCES", ""), DEFAULT_TOL)
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
