"""Any command line reaches the CLI's exit codes, never a traceback.

Hypothesis draws the subcommand, its flags and their values together:
valid, invalid and missing files, directories and unwritable paths in input
and output position, --fn names (table: paths included), integer arguments
on both sides of their ranges and MATORDER_TOLERANCES strings. Every run,
in process through cli.main, exits 0, 2 (usage or malformed input), 3 (a
value outside a domain) or 1 with a FAIL verdict on stdout, and prints no
numpy RuntimeWarning (an overflow is refused with a message, not warned
about). Dimensions stay small: a dimension above MAX_DIM is refused before
anything is drawn, so the cap is tested by that error.
"""

import contextlib
import io
import json
import os
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matorder.cli import MAX_DIM, main
from matorder.fileio import write_matrix_file

MATRICES = {
    "x.json": np.diag([0.5, 2.0]),
    "base.json": np.diag([1.0, -1.0]),
    "effect.json": np.diag([0.3, 0.7]),
    "frame.json": np.array([[0.6, 0.2j], [0.1, 0.5]]),
    "halfplane.json": np.diag([0.5, 2.0]) + 1j * np.eye(2),
    "three.json": np.array([[1.0, 0.5, 0.0], [0.5, -2.0, 0.25j], [0.0, -0.25j, 0.5]]),
    # files at the edge of the doubles
    "small.json": np.array([[0.5]]),
    "zero.json": np.array([[0.0]]),
    "big.json": np.array([[1.7e308]]),
    "huge.json": np.array([[1e300]]),
    "huge2.json": np.array([[1e200, 3e199], [3e199, -2e200]]),
}
OTHER_FILES = {
    "rep.json": json.dumps({"c": 0.0, "d": 1.0, "atoms": [[-1.0, 0.5]], "interval": [0.0, 3.0]}),
    "table.json": json.dumps({"x": [0.25, 1.0, 4.0, 9.0], "y": [0.5, 1.0, 2.0, 3.0]}),
    "table.csv": "0,0\n1,1\n2,4\n",
    "text.json": "not json",
}
SUITES = ["class-count", "report-determinism", "order-embedding", "mobius-closure", "parameter-recovery",
          "no-such-suite"]
TOLERANCE_FIELDS = ["herm_tol", "eig_tol", "psd_tol", "inv_margin", "rank_tol"]  # the last is no field


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("command_lines")
    for name, M in MATRICES.items():
        write_matrix_file(path / name, M.astype(complex))
    for name, text in OTHER_FILES.items():
        (path / name).write_text(text)
    (path / "out").mkdir()
    return path


def inputs(work):
    """A file a command reads: any of the pool, the directory, a missing file, a path below a file."""
    return st.sampled_from(sorted(MATRICES) + sorted(OTHER_FILES) + [".", "missing.json", "x.json/below.json"]).map(
        lambda name: str(work / name))


def outputs(work):
    """A path a command writes: a fresh file, a directory, a path below a file or below a missing directory."""
    return st.sampled_from(["out/result.json", "out", "x.json/below.json", "missing/result.json"]).map(
        lambda name: str(work / name))


NUMBERS = st.sampled_from(["0", "-1", "0.5", "1.5", "nan", "inf", "-inf", "1e308", "x", ""]) | st.floats().map(repr)
NOT_INTS = st.sampled_from(["x", "1.5", ""])
# dimensions and orders: small ones, and ones past the cap, which are refused before anything is drawn
INTS = st.integers(-2, 3) | st.sampled_from([MAX_DIM + 1, 10**12, -10**12]) | NOT_INTS
# trial counts: a large count is valid and only slow
TRIALS = st.integers(-1, 3) | NOT_INTS
SEEDS = st.integers(-2, 3) | st.sampled_from([2**64, -(2**64)])
FN_NAMES = st.one_of(
    st.sampled_from(["sqrt", "log", "square", "exp", "", "table:", "fp:", "rational:"]),
    st.builds("{}:{}".format, st.sampled_from(["fp", "rational"]), NUMBERS),
    st.text(max_size=6),
)
TOLERANCES = st.one_of(
    st.just(""),
    st.lists(st.builds("{}={}".format, st.sampled_from(TOLERANCE_FIELDS), NUMBERS), max_size=3).map(",".join),
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=8),  # what an environment can hold
)


def flags(**options):
    """argv pieces: each option, when drawn, as its flag and its value (None for a switch)."""
    return st.fixed_dictionaries({}, optional=options).map(
        lambda chosen: [piece for flag, value in chosen.items()
                        for piece in ([flag] if value is None else [flag, str(value)])])


def command_lines(work):
    files, outs = inputs(work), outputs(work)
    fn = FN_NAMES | inputs(work).map("table:{}".format)
    return st.one_of(
        st.tuples(st.just(["classify"]), files.map(lambda f: [f])),
        st.tuples(
            st.sampled_from(["theta", "phi", "phi-mp", "effect", "fpq", "mobius", "pick", "nope"]).map(
                lambda m: ["apply", "--map", m]),
            st.tuples(files.map(lambda f: [f]), flags(**{
                "--base": files, "--frame": files, "--corner": INTS, "--positive": INTS, "--p": NUMBERS,
                "--q": NUMBERS, "--shift-in": files, "--shift-out": files, "--transpose": st.none(),
                "--rep": files, "--out": outs,
            })).map(lambda parts: parts[0] + parts[1]),
        ),
        st.tuples(
            st.just(["check-monotone"]),
            st.tuples(fn, INTS, TRIALS, SEEDS).map(
                lambda p: ["--fn", p[0], "--order", str(p[1]), "--trials", str(p[2]), "--seed", str(p[3])]),
        ),
        st.tuples(
            st.just(["verify"]),
            # --trials is always given, so that no draw runs every suite at its default count
            st.tuples(st.lists(st.sampled_from(SUITES), min_size=1, max_size=2), TRIALS,
                      flags(**{"--seed": SEEDS, "--no-timing": st.none(), "--list": st.none()})).map(
                lambda p: p[0] + ["--trials", str(p[1])] + p[2]),
        ),
        st.tuples(
            st.just(["gen"]),
            st.tuples(st.sampled_from(["hermitian", "psd", "effect", "halfplane", "nope"]), INTS,
                      flags(**{"--seed": SEEDS, "--scale": NUMBERS, "--out": outs})).map(
                lambda p: ["--kind", p[0], "--dim", str(p[1])] + p[2]),
        ),
    ).map(lambda parts: parts[0] + parts[1])


def run(argv, tolerances):
    """(exit code, stdout, stderr) of main(argv); stderr ends with the warnings a CLI process would print."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"MATORDER_TOLERANCES": tolerances}), warnings.catch_warnings(record=True) \
            as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)  # any other exception escaping main is a traceback, and fails the test
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return code, out.getvalue(), err.getvalue() + shown


def is_fail_verdict(argv, out):
    lines = out.strip().splitlines()
    if argv[0] == "check-monotone":
        return json.loads(lines[-1])["verdict"] == "FAIL"
    return argv[0] == "verify" and json.loads(lines[-1])["failed"] > 0


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), tolerances=TOLERANCES)
def test_any_command_line_exits_with_a_cli_code(work, data, tolerances):
    argv = data.draw(command_lines(work))
    code, out, err = run(argv, tolerances)
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err, (argv, err)
    if code == 1:
        assert is_fail_verdict(argv, out), (argv, err)
        return
    assert code in (0, 2, 3), (argv, code, err)
    if code:  # argparse's own errors name the program first
        assert re.match(r"(matorder[\w -]*: )?(domain )?error: ", err.splitlines()[-1]), (argv, err)
    if code == 0 and "--out" in argv:
        assert os.path.isfile(argv[argv.index("--out") + 1])
