"""Suites of matrix files and of the reports themselves."""

from __future__ import annotations

import numpy as np

from ..errors import MalformedInputError
from ..fileio import matrix_to_text, parse_matrix_text
from ..linalg import as_hermitian
from ..sampling import random_hermitian
from . import _suite, run_suite


@_suite(300, "matrix files round-trip bit-exactly; malformed inputs are rejected")
def _suite_serialization_roundtrip(rng, trials, tol, rec):
    for t in range(trials):
        rows = int(rng.integers(1, 9))
        cols = rows if t % 2 else int(rng.integers(1, 9))
        M = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
        M = M * 10.0 ** rng.uniform(-9.0, 6.0)
        if t % 7 == 0:
            M[0, 0] = 0.0
        back = parse_matrix_text(matrix_to_text(M))
        rec.check(back.shape == M.shape and bool(np.array_equal(back, M)), t,
                  "serialization is not bit-exact", M=M)
        if rows == cols:
            H = random_hermitian(rng, rows)
            back_h = as_hermitian(parse_matrix_text(matrix_to_text(H)), tol)
            rec.check(bool(np.array_equal(back_h, H)), t, "Hermitian round trip not exact", H=H)
    for bad, label in [
        ('{"rows": 1, "cols": 1', "truncated JSON"),
        ('{"rows": 2, "cols": 2, "data": [[[1, 0]], [[1, 0], [2, 0]]]}', "ragged rows"),
        ('{"rows": 1, "cols": 1, "data": [[[Infinity, 0]]]}', "non-finite entry"),
        ('{"rows": 1, "cols": 1, "data": [[[1, 0, 0]]]}', "triple entry"),
        ('{"rows": 1, "cols": 1}', "missing data"),
    ]:
        try:
            parse_matrix_text(bad)
            rec.fail(0, f"malformed input accepted: {label}")
        except MalformedInputError:
            pass


@_suite(4, "replayed suite runs serialize identically apart from timing")
def _suite_report_determinism(rng, trials, tol, rec):
    names = ["halfplane-roundtrip", "rank-one-trace", "inertia-congruence", "class-count"]
    for t in range(trials):
        name = names[t % len(names)]
        seed = int(rng.integers(0, 2**31))
        small = 1 if name == "class-count" else 20
        replay = lambda: run_suite(name, seed=seed, trials=small, tol=tol).to_json(include_timing=False)
        rec.check(replay() == replay(), t, f"replayed report for '{name}' differs")
