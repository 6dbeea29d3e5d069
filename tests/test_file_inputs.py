"""Every matrix, representation and table file reaches the CLI's exit codes, never a traceback.

Input files decode under one rule (fileio.decoding): whatever JSON value, or
non-JSON text or bytes, a file holds, the CLI exits 0, 2 (the file is
malformed) or 3 (the value lies outside a domain). A table is the one input
whose well-formed values may also exit 1: check-monotone's FAIL verdict.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorder.cli import main
from matorder.fileio import write_matrix_file

# JSON leaves, the awkward ones included: null, strings, integers too large for a float, NaN, infinities
LEAVES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.sampled_from(["1", "x", "nan", "1e999"]),
    st.integers(-3, 3), st.integers(-10**400, 10**400), st.floats(-4.0, 4.0), st.floats(),
)
KEYS = st.sampled_from(["rows", "cols", "data", "c", "d", "atoms", "interval", "x", "y"]) | st.text(max_size=2)
# any JSON value: top-level lists, numbers and strings, and lists of every depth
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=4),
                      max_leaves=12)
NUMBERS = st.lists(st.integers(-3, 3) | st.floats(-4.0, 4.0) | LEAVES, max_size=5)
# near-valid files, so that drawn values also reach the checks behind the top-level fields
MATRIX_LIKE = st.fixed_dictionaries({
    "rows": st.integers(-1, 3) | LEAVES,
    "cols": st.integers(-1, 3) | LEAVES,
    "data": st.lists(st.lists(NUMBERS, max_size=3), max_size=3) | VALUES,
})
REP_LIKE = st.fixed_dictionaries(
    {"interval": NUMBERS | VALUES},
    optional={"c": LEAVES, "d": LEAVES, "atoms": st.lists(NUMBERS, max_size=3) | VALUES},
)
TABLE_LIKE = st.fixed_dictionaries({"x": NUMBERS | VALUES, "y": NUMBERS | VALUES})
CONTENTS = st.one_of(
    st.one_of(VALUES, MATRIX_LIKE, REP_LIKE, TABLE_LIKE).map(json.dumps),
    st.text(max_size=12),  # malformed JSON, and for tables comma-separated rows
    st.binary(max_size=8),  # not UTF-8 text, as often as not
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    write_matrix_file(path / "x.json", np.diag([0.5, 2.0]).astype(complex))
    return path


def commands(kind: str, work, path) -> list:
    return {
        "matrix": ["classify", str(path)],
        "representation": ["apply", "--map", "pick", "--rep", str(path), str(work / "x.json")],
        "table": ["check-monotone", "--fn", f"table:{path}", "--order", "2", "--trials", "3"],
    }[kind]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping main is a traceback, and fails the test
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(kind, code, out, err):
    if kind == "table" and code == 1:
        assert json.loads(out)["verdict"] == "FAIL"
        return
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code:
        assert out == "" and err.startswith(("error: ", "domain error: ")) and err.count("\n") == 1, err


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["matrix", "representation", "table"]), content=CONTENTS)
def test_any_file_content_exits_with_a_cli_code(work, kind, content):
    path = work / "input.json"
    (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
    assert_clean_exit(kind, *run(commands(kind, work, path)))


@pytest.mark.parametrize("kind, content, message", [
    ("matrix", '{"rows": 1, "cols": 1, "data": [[[null, 0]]]}', "matrix has non-finite entries"),
    ("matrix", '{"rows": 1, "cols": 1, "data": [[["x", 0]]]}', "ValueError: could not convert string to float: 'x'"),
    ("matrix", '{"rows": 1, "cols": 1, "data": 5}', "matrix data of shape () is not 1x1 [re, im] pairs"),
    ("matrix", '{"rows": 1, "cols": 1, "data": [[[1' + "0" * 400 + ', 0]]]}',
     "OverflowError: int too large to convert to float"),
    ("representation", '{"interval": [1]}', "IndexError: list index out of range"),
    ("representation", '[{"interval": [0, 3]}]', "TypeError: 'list' object is not a mapping"),
])
def test_files_that_used_to_end_in_a_traceback_exit_2(work, kind, content, message):
    # each used to end in a traceback with exit 1, the code of a property failure
    path = work / f"{kind}.json"
    path.write_text(content)
    code, out, err = run(commands(kind, work, path))
    assert (code, out, err) == (2, "", f"error: bad {kind} file {path}: {message}\n")


def test_a_file_nested_too_deeply_for_the_parser_exits_2(work):
    # the JSON parser's RecursionError used to end in a traceback
    path = work / "deep.json"
    path.write_text("[" * 100000)
    for kind in ("matrix", "representation", "table"):
        code, out, err = run(commands(kind, work, path))
        assert (code, out) == (2, "") and err.startswith(f"error: bad {kind} file {path}: RecursionError: "), err


@pytest.mark.parametrize("content, message", [
    # a NaN atom used to end in numpy's LinAlgError, the other values in NaN matrices written with exit 0
    ('{"d": 1, "atoms": [[NaN, 1]], "interval": [0, 3]}', "atom location nan must be finite and outside the interval"),
    ('{"d": 1, "atoms": [[5, Infinity]], "interval": [0, 3]}', "atom weights must be positive and finite"),
    ('{"c": NaN, "interval": [0, 3]}', "need a finite c and a finite linear coefficient d >= 0"),
    ('{"d": Infinity, "interval": [0, 3]}', "need a finite c and a finite linear coefficient d >= 0"),
])
def test_a_representation_with_a_non_finite_number_exits_2(work, content, message):
    path = work / "rep.json"
    path.write_text(content)
    code, out, err = run(commands("representation", work, path))
    assert (code, out, err) == (2, "", f"error: bad representation file {path}: {message}\n")


@pytest.mark.parametrize("content, message", [
    # the first two ended in tracebacks once scipy stopped checking tables (ZeroDivisionError under scipy
    # for the first); a two-dimensional y ended in a TypeError traceback with exit 1
    ('{"x": [null, 0], "y": null}', "table needs x and y of one length >= 2, got shapes (2,) and ()"),
    ('{"x": [0, null], "y": []}', "table needs x and y of one length >= 2, got shapes (2,) and (0,)"),
    ('{"x": [0, 1, 2], "y": [[0, 1], [1, 2], [2, 3]]}',
     "table needs x and y of one length >= 2, got shapes (3,) and (3, 2)"),
    ('{"x": [0, NaN], "y": [0, 1]}', "table needs finite values, x strictly increasing over a finite span"),
    ('{"x": [0, 1], "y": [0, Infinity]}', "table needs finite values, x strictly increasing over a finite span"),
    ('{"x": [0, 1, 1], "y": [0, 1, 2]}', "table needs finite values, x strictly increasing over a finite span"),
    # x's span overflowed the node sampler's uniform draw: an OverflowError traceback
    ('{"x": [-1e308, 1e308], "y": [0, 1]}', "table needs finite values, x strictly increasing over a finite span"),
    ('{"x": [0, 1e-320], "y": [0, 1e300]}', "table's secant slopes or interpolant are not finite"),
])
def test_a_table_outside_the_table_rule_exits_2(work, content, message):
    path = work / "table.json"
    path.write_text(content)
    code, out, err = run(commands("table", work, path))
    assert (code, out, err) == (2, "", f"error: bad table file {path}: {message}\n")
