"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from matorder.cli import main
from matorder.fileio import matrix_to_text, parse_matrix_text, write_matrix_file

CLI = [sys.executable, "-m", "matorder.cli"]


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("MATORDER_TOLERANCES", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env, cwd=cwd)


def test_gen_then_classify_pipeline(tmp_path):
    a = tmp_path / "a.json"
    r = run_cli("gen", "--kind", "psd", "--dim", "3", "--seed", "7", "--out", str(a))
    assert r.returncode == 0
    r = run_cli("classify", str(a))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["dim"] == 3
    assert payload["inertia"] == [3, 0, 0]
    assert (payload["m"], payload["p"]) == (3, 3)


def test_gen_is_deterministic(tmp_path):
    r1 = run_cli("gen", "--kind", "hermitian", "--dim", "4", "--seed", "5")
    r2 = run_cli("gen", "--kind", "hermitian", "--dim", "4", "--seed", "5")
    assert r1.stdout == r2.stdout and r1.returncode == 0


def test_apply_theta_round_trip(tmp_path):
    a, x, y = (tmp_path / k for k in ("a.json", "x.json", "y.json"))
    assert run_cli("gen", "--kind", "psd", "--dim", "3", "--seed", "21", "--out", str(a)).returncode == 0
    assert run_cli("gen", "--kind", "hermitian", "--dim", "3", "--seed", "22", "--out", str(x)).returncode == 0
    assert run_cli("apply", "--map", "theta", "--base", str(a), str(x), "--out", str(y)).returncode == 0
    A = parse_matrix_text(a.read_text())
    write_matrix_file(tmp_path / "nega.json", -A)
    r = run_cli("apply", "--map", "theta", "--base", str(tmp_path / "nega.json"), str(y))
    assert r.returncode == 0
    X = parse_matrix_text(x.read_text())
    back = parse_matrix_text(r.stdout)
    assert np.linalg.norm(back - X) <= 1e-9 * (1.0 + np.linalg.norm(X))


def test_apply_block_map_reads_corner(tmp_path):
    x = tmp_path / "x.json"
    write_matrix_file(x, np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex))
    r = run_cli("apply", "--map", "phi-mp", "--corner", "1", str(x))
    assert r.returncode == 0
    got = parse_matrix_text(r.stdout)
    want = np.array([[-0.5, 0.5j], [-0.5j, 2.5]])
    assert np.linalg.norm(got - want) <= 1e-10


def test_apply_pick_single_atom(tmp_path):
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"c": 0.0, "d": 0.0, "atoms": [[0.0, 1.0]],
                               "interval": [0.4, 2.5]}))
    x = tmp_path / "x.json"
    write_matrix_file(x, np.diag([0.5, 2.0]).astype(complex))
    r = run_cli("apply", "--map", "pick", "--rep", str(rep), str(x))
    assert r.returncode == 0
    got = parse_matrix_text(r.stdout)
    assert np.linalg.norm(got - np.diag([-2.0, -0.5])) <= 1e-10


def test_check_monotone_exit_codes():
    ok = run_cli("check-monotone", "--fn", "sqrt", "--order", "3",
                 "--trials", "80", "--seed", "2")
    assert ok.returncode == 0
    payload = json.loads(ok.stdout)
    assert payload["verdict"] == "PASS" and payload["conclusive"]
    bad = run_cli("check-monotone", "--fn", "square", "--order", "2",
                  "--trials", "200", "--seed", "2")
    assert bad.returncode == 1
    payload = json.loads(bad.stdout)
    assert payload["verdict"] == "FAIL"
    assert "witness_pair" in payload or "witness_nodes" in payload


def test_verify_runs_and_is_deterministic():
    args = ("verify", "class-count", "halfplane-roundtrip",
            "--seed", "3", "--trials", "40", "--no-timing")
    r1, r2 = run_cli(*args), run_cli(*args)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    lines = r1.stdout.strip().splitlines()
    assert len(lines) == 3  # one per suite plus the summary
    assert json.loads(lines[-1]) == {"failed": 0, "suites": 2}


def test_verify_reports_identical_modulo_timing():
    args = ("verify", "rank-one-trace", "--seed", "8", "--trials", "60")
    out1, out2 = run_cli(*args).stdout, run_cli(*args).stdout
    rep1, rep2 = (json.loads(o.strip().splitlines()[0]) for o in (out1, out2))
    rep1.pop("elapsed_seconds"), rep2.pop("elapsed_seconds")
    assert rep1 == rep2


def test_verify_runs_on_past_a_suite_that_raises():
    # at inv_margin=0.5 a _spectral_apply guard in spectral-composition raised out of verify, which printed the
    # first three reports, "domain error: ..." and exit 3; the other 28 suites never ran
    r = run_cli("verify", "--trials", "5", "--no-timing", env_extra={"MATORDER_TOLERANCES": "inv_margin=0.5"})
    assert (r.returncode, r.stderr) == (1, "")
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 32 and json.loads(lines[-1]) == {"failed": 20, "suites": 31}
    report = json.loads(lines[3])
    assert report["suite"] == "spectral-composition" and report["failure_count"] == 1
    assert report["failures"] == [{"trial": -1, "witnesses": {}, "description": "suite stopped by "
                                   "DomainViolationError: eigenvalue 0.372265 within margin of domain edge 0.0"}]


def test_verify_list_names_all_suites():
    r = run_cli("verify", "--list")
    assert r.returncode == 0
    names = [line.split()[0] for line in r.stdout.strip().splitlines()]
    assert "theta-inversion" in names and "class-count" in names
    assert len(names) == 31


def test_exit_code_2_on_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 2, "cols"')
    assert run_cli("classify", str(bad)).returncode == 2
    assert run_cli("verify", "no-such-suite").returncode == 2
    assert run_cli("apply", "--map", "theta", str(bad)).returncode == 2
    r = run_cli("classify", str(tmp_path / "missing.json"))
    assert r.returncode == 2 and "no such file" in r.stderr


def test_exit_code_2_on_an_empty_matrix(tmp_path):
    # the library's domains have dimension n >= 1; a 0 x 0 matrix used to classify as inertia [0, 0, 0]
    empty = _file(tmp_path, "empty.json", '{"rows": 0, "cols": 0, "data": []}')
    r = run_cli("classify", empty)
    assert r.returncode == 2 and "A is empty" in r.stderr and r.stdout == ""


def _file(tmp_path, name, content):
    path = tmp_path / name
    (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
    return str(path)


def _pick_call(tmp_path, rep):
    x = tmp_path / "x.json"
    write_matrix_file(x, np.diag([0.5, 2.0]).astype(complex))
    return ["apply", "--map", "pick", "--rep", rep, str(x)], "rep.json"


def _table_call(tmp_path, name, content=None):
    path = str(tmp_path / name) if content is None else _file(tmp_path, name, content)
    return ["check-monotone", "--fn", "table:" + path, "--order", "2"], name


NOT_UTF8 = b'{"rows": 1, "cols": 1, "data": [[[1, 0]]]}\xff\n'

# (command line, the file name the error must show) for files that cannot be
# read or parsed; each must exit 2 like any malformed input, not end in a traceback
UNREADABLE_FILES = {
    "directory": lambda tmp: (["classify", str(tmp)], str(tmp)),
    "non-utf8 matrix": lambda tmp: (["classify", _file(tmp, "m.json", NOT_UTF8)], "m.json"),
    "non-utf8 rep": lambda tmp: _pick_call(tmp, _file(tmp, "rep.json", NOT_UTF8)),
    "missing table": lambda tmp: _table_call(tmp, "missing.json"),
    "non-numeric table": lambda tmp: _table_call(tmp, "t.csv", "a,b\n1,2\n"),
    "table without y": lambda tmp: _table_call(tmp, "t.json", json.dumps({"x": [0.0, 1.0]})),
    "ragged table": lambda tmp: _table_call(tmp, "t.csv", "0,0\n1,1,1\n2\n"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
def test_exit_code_2_on_unreadable_files(tmp_path, case):
    args, named = UNREADABLE_FILES[case](tmp_path)
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and named in r.stderr


# (command line, the path the error must show) for outputs that cannot be written
UNWRITABLE_OUTPUTS = {
    "gen into a directory": lambda tmp: (["gen", "--kind", "psd", "--dim", "2", "--out", str(tmp)], str(tmp)),
    "gen into a missing directory": lambda tmp: (
        ["gen", "--kind", "psd", "--dim", "2", "--out", str(tmp / "missing" / "x.json")], "missing"),
    "apply into a directory": lambda tmp: (
        ["apply", "--map", "effect", "--frame", _file(tmp, "t.json", matrix_to_text(np.eye(2))),
         _file(tmp, "x.json", matrix_to_text(0.5 * np.eye(2))), "--out", str(tmp)], str(tmp)),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_exit_code_2_on_unwritable_outputs(tmp_path, case):
    args, named = UNWRITABLE_OUTPUTS[case](tmp_path)
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: cannot write ") and named in r.stderr
    assert "Traceback" not in r.stderr


def test_exit_code_2_on_usage_errors():
    assert run_cli("apply", "--map", "nosuch", "x.json").returncode == 2
    assert run_cli().returncode == 2


def test_exit_code_3_on_domain_violation(tmp_path):
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"c": 0.0, "d": 0.0, "atoms": [[0.0, 1.0]],
                               "interval": [0.4, 2.5]}))
    x = tmp_path / "x.json"
    write_matrix_file(x, np.diag([5.0, 9.0]).astype(complex))  # spectrum outside
    r = run_cli("apply", "--map", "pick", "--rep", str(rep), str(x))
    assert r.returncode == 3
    assert "domain" in r.stderr


def test_tolerance_env_override(tmp_path):
    a = tmp_path / "a.json"
    run_cli("gen", "--kind", "psd", "--dim", "2", "--seed", "1", "--out", str(a))
    ok = run_cli("classify", str(a), env_extra={"MATORDER_TOLERANCES": "psd_tol=1e-6"})
    assert ok.returncode == 0
    bad = run_cli("classify", str(a), env_extra={"MATORDER_TOLERANCES": "nope=1"})
    assert bad.returncode == 2


def test_non_finite_tolerance_is_a_usage_error():
    # 1e999 parses as inf, under which every invertibility gate is meaningless
    r = run_cli("verify", "class-count", "--no-timing", env_extra={"MATORDER_TOLERANCES": "inv_margin=1e999"})
    assert r.returncode == 2
    assert "inv_margin must be strictly positive and finite" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("dim", ["0", "-3", "1025", "100000000"])
def test_gen_refuses_a_dimension_outside_its_range(dim):
    # the cap is checked before anything is drawn, so no matrix of this size is allocated
    r = run_cli("gen", "--kind", "psd", "--dim", dim)
    assert r.returncode == 2
    assert f"--dim must lie in [1, 1024], got {dim}" in r.stderr and "Traceback" not in r.stderr
    assert r.stdout == ""


MONOTONE = ["check-monotone", "--fn", "sqrt", "--order", "2"]
GEN = ["gen", "--kind", "hermitian", "--dim", "2"]


@pytest.mark.parametrize("args, message", [
    # numpy used to raise `ValueError: expected non-negative integer` from its generator
    (MONOTONE + ["--seed", "-1"], "seed must be non-negative"),
    (["verify", "class-count", "--seed", "-1"], "seed must be non-negative"),
    (GEN + ["--seed", "-1"], "--seed must be non-negative"),
    # numpy's ValueError or OverflowError for psd, NaN entries written with exit 0 for hermitian
    (["gen", "--kind", "psd", "--dim", "2", "--scale", "-1"], "--scale must be finite and positive, got -1.0"),
    (["gen", "--kind", "psd", "--dim", "2", "--scale", "inf"], "--scale must be finite and positive, got inf"),
    (GEN + ["--scale", "nan"], "--scale must be finite and positive, got nan"),
    (GEN + ["--scale", "0"], "--scale must be finite and positive, got 0.0"),
    # refused before anything is drawn: an order this large used to end in numpy's _ArrayMemoryError
    (["check-monotone", "--fn", "sqrt", "--order", "100000"], "--order must lie in [1, 1024], got 100000"),
    (["check-monotone", "--fn", "sqrt", "--order", "0"], "--order must lie in [1, 1024], got 0"),
    # used to print a vacuous PASS with "node_trials": -3
    (MONOTONE + ["--trials", "-3"], "trials must be positive"),
    (["verify", "class-count", "--trials", "-3"], "trials must be positive"),
])
def test_integer_and_scale_arguments_out_of_range_are_usage_errors(capsys, args, message):
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("fn, message", [
    # each used to end in a ValueError traceback with exit 1, the code of a property failure
    ("rational:abc", "bad rational parameter 'abc': ValueError: could not convert string to float: 'abc'"),
    ("fp:abc", "bad fp parameter 'abc': ValueError: could not convert string to float: 'abc'"),
    # the pole sits near -/+1e300, where the sampling window holds one double: a RuntimeError traceback
    ("rational:1e-300", "cannot draw 2 distinct nodes in the sampling window "
                        "[-9.999999999999999e+299, -9.999999999999999e+299]"),
])
def test_check_monotone_refuses_a_parameter_it_cannot_read_or_sample(capsys, fn, message):
    assert main(["check-monotone", "--fn", fn, "--order", "2", "--trials", "20"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("r", ["-1e200", "-1.7e308"])
def test_check_monotone_gives_a_verdict_at_a_huge_rational_parameter(capsys, r):
    # the derivative's square (r x + 1 - r)**2 used to raise OverflowError: a traceback with exit 1
    assert main(["check-monotone", "--fn", f"rational:{r}", "--order", "2", "--trials", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "PASS"


# files named in the command lines below: 1 x 1 matrices at the edge of the doubles, a 2 x 2 argument,
# and a Pick representation with a finite linear coefficient d = 1e308
EDGE_MATRICES = {"big": [[1.7e308]], "huge": [[1e300]], "zero": [[0.0]], "small": [[0.5]],
                 "diag": [[0.5, 0.0], [0.0, 2.0]]}
OVERFLOW = "domain error: the result overflows: it has non-finite entries"


@pytest.mark.parametrize("args, code, message", [
    # the first printed inertia [0, 1, 0] with exit 0, the next two wrote [[nan, nan]], the fourth inf:
    # herm_part's sum of two entries above half the largest double overflowed
    (["classify", "big"], 2, "error: A has entries of modulus above 8.988e+307"),
    (["apply", "--map", "phi", "--base", "zero", "big"], 2, "error: X has entries of modulus above 8.988e+307"),
    (["apply", "--map", "phi", "--base", "big", "small"], 2, "error: base has entries of modulus above 8.988e+307"),
    (["apply", "--map", "mobius", "--frame", "big", "small"], 2,
     "error: frame has entries of modulus above 8.988e+307"),
    # valid entries whose product overflows, written as inf and NaN with exit 0: frame X frame* is 5e599, d X 2e308
    (["apply", "--map", "mobius", "--frame", "huge", "small"], 3, OVERFLOW),
    (["apply", "--map", "pick", "--rep", "rep", "diag"], 3, OVERFLOW),
])
def test_entries_at_the_edge_of_the_doubles_exit_with_a_message(tmp_path, capsys, args, code, message):
    for name, rows in EDGE_MATRICES.items():
        write_matrix_file(tmp_path / name, np.array(rows, dtype=complex))
    (tmp_path / "rep").write_text('{"d": 1e308, "interval": [0, 3]}')
    out_path = tmp_path / "out.json"
    argv = [str(tmp_path / a) if a in EDGE_MATRICES or a == "rep" else a for a in args]
    argv += ["--out", str(out_path)] if args[0] == "apply" else []
    assert main(argv) == code
    assert capsys.readouterr() == ("", message + "\n")
    assert not out_path.exists()


def test_an_overflowing_map_prints_its_one_line_error_alone(tmp_path):
    # numpy's "RuntimeWarning: overflow encountered in matmul" and its source line used to come first
    write_matrix_file(tmp_path / "big.json", np.array([[1e300]], dtype=complex))
    write_matrix_file(tmp_path / "one.json", np.array([[1.0]], dtype=complex))
    r = run_cli("apply", "--map", "mobius", "--frame", str(tmp_path / "big.json"), str(tmp_path / "one.json"))
    assert (r.returncode, r.stdout, r.stderr) == (3, "", OVERFLOW + "\n")


@pytest.mark.parametrize("kind", ["effect", "halfplane"])
def test_gen_scale_is_refused_by_a_kind_that_reads_none(capsys, kind):
    # both kinds used to accept any valid --scale and ignore it
    assert main(["gen", "--kind", kind, "--dim", "2", "--scale", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: --kind {kind} reads no --scale\n")


@pytest.mark.parametrize("kind", ["hermitian", "psd", "effect", "halfplane"])
def test_gen_without_scale_draws_as_before(capsys, kind):
    # --scale defaults to "not given"; the kinds that read it draw at scale 1 then, as before
    args = ["gen", "--kind", kind, "--dim", "3", "--seed", "4"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    if kind in ("hermitian", "psd"):
        assert main(args + ["--scale", "1"]) == 0 and capsys.readouterr().out == plain
        assert main(args + ["--scale", "2"]) == 0 and capsys.readouterr().out != plain
    assert parse_matrix_text(plain).shape == (3, 3)


def test_matrix_stdout_round_trip(tmp_path):
    r = run_cli("gen", "--kind", "hermitian", "--dim", "3", "--seed", "13")
    M = parse_matrix_text(r.stdout)
    assert matrix_to_text(M) == r.stdout


def test_apply_mobius_default_shifts_and_domain_exit(tmp_path):
    frame, base, shift, z = (tmp_path / k for k in ("t.json", "a.json", "b.json", "z.json"))
    T = np.array([[1.0, 0.5j], [0.0, 2.0]])
    A = np.array([[0.3, 0.1], [0.1, -0.4]], dtype=complex)
    B = np.array([[0.2, 0.1j], [-0.1j, 0.5]])
    Z = np.array([[0.1, 0.2], [0.2, -0.3]]) + 1j * np.eye(2)
    for path, M in ((frame, T), (base, A), (shift, B), (z, Z)):
        write_matrix_file(path, M)
    # omitted --shift-in / --shift-out act as zero shifts
    r = run_cli("apply", "--map", "mobius", "--frame", str(frame), "--base", str(base), str(z))
    assert r.returncode == 0
    want = T @ np.linalg.inv(np.linalg.inv(Z) + A) @ T.conj().T
    assert np.linalg.norm(parse_matrix_text(r.stdout) - want) <= 1e-12 * (1.0 + np.linalg.norm(want))
    # Z = B: Z - B is singular, a domain violation
    r = run_cli("apply", "--map", "mobius", "--frame", str(frame), "--base", str(base),
                "--shift-in", str(shift), str(shift))
    assert r.returncode == 3


def test_tolerance_env_reaches_matrix_file_validation(tmp_path):
    near = tmp_path / "near.json"
    X = np.diag([1.0, -2.0]).astype(complex)
    X[0, 1] = 1e-8  # ||X - X*||_F = 1.4e-8
    write_matrix_file(near, X)
    strict = run_cli("classify", str(near))
    assert strict.returncode == 2 and "A is not Hermitian" in strict.stderr
    loose = run_cli("classify", str(near), env_extra={"MATORDER_TOLERANCES": "herm_tol=1e-6"})
    assert loose.returncode == 0
    assert json.loads(loose.stdout)["inertia"] == [1, 0, 1]


def test_a_non_hermitian_matrix_too_large_for_its_frobenius_norm_is_refused(tmp_path, capsys):
    # both Frobenius norms of the hermiticity test overflowed to inf: classify printed inertia [2, 0, 0], exit 0
    path = tmp_path / "big.json"
    write_matrix_file(path, np.array([[1e300, 1e300], [0.0, 1e300]], dtype=complex))
    assert main(["classify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: A is not Hermitian")


def test_tolerance_env_reaches_mobius_parameter_files(tmp_path):
    frame, near, z = (tmp_path / k for k in ("t.json", "near.json", "z.json"))
    A = np.diag([0.3, -0.4]).astype(complex)
    A[0, 1] = 1e-8  # ||A - A*||_F = 1.4e-8
    write_matrix_file(frame, np.eye(2))
    write_matrix_file(near, A)
    write_matrix_file(z, np.array([[0.1, 0.2], [0.2, -0.3]]) + 1j * np.eye(2))
    strict = run_cli("apply", "--map", "mobius", "--frame", str(frame), "--base", str(near), str(z))
    assert strict.returncode == 2 and "A is not Hermitian" in strict.stderr
    loose = run_cli("apply", "--map", "mobius", "--frame", str(frame), "--base", str(near),
                    "--shift-in", str(near), "--shift-out", str(near), str(z),
                    env_extra={"MATORDER_TOLERANCES": "herm_tol=1e-6"})
    assert loose.returncode == 0, loose.stderr
