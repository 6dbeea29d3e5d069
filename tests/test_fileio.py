"""Matrix file format: lossless round trips and malformed-input rejection."""

import json

import numpy as np
import pytest

from matorder.errors import MalformedInputError
from matorder.fileio import (
    _payload_to_matrix,
    matrix_to_payload,
    matrix_to_text,
    parse_matrix_file,
    parse_matrix_text,
    write_matrix_file,
)
from matorder.linalg import as_hermitian
from matorder.sampling import random_hermitian


def test_identity_payload_round_trip():
    I = np.eye(2, dtype=complex)
    M = _payload_to_matrix(matrix_to_payload(I))
    assert np.array_equal(M, I)


def test_text_round_trip_is_bit_identical():
    # oracle: strict equality of floats and of the serialized text itself
    rng = np.random.default_rng(70)
    for n in (1, 3, 6):
        X = random_hermitian(rng, n) * rng.uniform(1e-8, 1e8)
        text = matrix_to_text(X)
        Y = parse_matrix_text(text)
        assert np.array_equal(X, Y)
        assert matrix_to_text(Y) == text


def test_seventeen_digit_serialization():
    third = np.array([[1.0 / 3.0]], dtype=complex)
    text = matrix_to_text(third)
    assert "0.33333333333333331" in text
    assert np.array_equal(parse_matrix_text(text), third)


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    X = random_hermitian(rng, 4)
    path = tmp_path / "x.json"
    write_matrix_file(path, X)
    assert np.array_equal(parse_matrix_file(path), X)


def _per_entry_reference(payload: dict) -> np.ndarray:
    """The decoder as an entry-by-entry loop: complex(float(re), float(im)) per [re, im] pair."""
    out = np.zeros((payload["rows"], payload["cols"]), dtype=complex)
    for i, row in enumerate(payload["data"]):
        for j, (re, im) in enumerate(row):
            out[i, j] = complex(float(re), float(im))
    return out


def test_decoding_gives_the_bits_of_the_per_entry_loop():
    # -0.0, subnormals, integers and the extremes of the doubles, as JSON numbers or their 17-digit text
    rng = np.random.default_rng(72)
    specials = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 3, -7, 1e22]
    for rows, cols in ((1, 1), (2, 3), (4, 4), (0, 0), (0, 2), (2, 0)):
        values = rng.choice(specials + list(rng.standard_normal(8) * 10.0 ** rng.uniform(-300, 300, 8)),
                            size=(rows, cols, 2))
        payload = {"rows": rows, "cols": cols, "data": [[[v for v in pair] for pair in row] for row in values]}
        for text in (json.dumps(payload), matrix_to_text(_per_entry_reference(payload))):
            got, want = parse_matrix_text(text), _per_entry_reference(json.loads(text))
            assert got.shape == want.shape == (rows, cols) and got.tobytes() == want.tobytes()


def test_parse_reports_line_and_column():
    with pytest.raises(MalformedInputError) as err:
        parse_matrix_text('{"rows": 2,\n "cols"')
    assert "line 2" in str(err.value)


def test_rejects_shape_mismatch():
    with pytest.raises(MalformedInputError):
        parse_matrix_text('{"rows": 2, "cols": 2, "data": [[[1.0, 0.0]]]}')


def test_rejects_bad_pairs_and_nonfinite():
    with pytest.raises(MalformedInputError):
        parse_matrix_text('{"rows": 1, "cols": 1, "data": [[[1.0]]]}')
    with pytest.raises(MalformedInputError):
        parse_matrix_text('{"rows": 1, "cols": 1, "data": [[[NaN, 0.0]]]}')


def test_rejects_missing_file():
    with pytest.raises(MalformedInputError):
        parse_matrix_file("/nonexistent/matrix.json")


def test_parsing_leaves_hermitian_validation_to_as_hermitian(tmp_path):
    Z = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex)
    path = tmp_path / "z.json"
    write_matrix_file(path, Z)
    parsed = parse_matrix_file(path)
    assert parsed.tobytes() == Z.tobytes()
    with pytest.raises(MalformedInputError, match="Z is not Hermitian"):
        as_hermitian(parsed, name="Z")
