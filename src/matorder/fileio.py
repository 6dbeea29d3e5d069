"""Matrix file serialization for the CLI and the suite reports.

UTF-8 JSON, schema {"rows": n, "cols": m, "data": [[[re, im], ...], ...]}
row-major, numbers written with 17 significant digits so doubles round-trip
bit-exactly. Parsing checks the format only; the function a parsed matrix
is passed to decides whether it is square, Hermitian and of its dimension.
Every input file (matrix, Pick representation, table) decodes under one
rule, `decoding`'s: DECODE_ERRORS are the file's fault, never a traceback.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import Callable, Iterable, Union

import numpy as np

from .errors import MalformedInputError, MatOrderError

__all__ = [
    "matrix_to_payload",
    "matrix_to_text",
    "parse_matrix_text",
    "write_matrix_file",
    "parse_matrix_file",
    "read_text_file",
    "read_json_file",
    "decoding",
]

# what decoding an input file may raise: JSONDecodeError is a ValueError, nesting too deep a RecursionError
DECODE_ERRORS = (KeyError, IndexError, TypeError, ValueError, OverflowError, RecursionError)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def matrix_to_payload(M: Iterable) -> dict:
    """Nested [re, im] payload (plain floats; used inside suite reports)."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise MalformedInputError(f"expected a 2-d matrix, got shape {A.shape}")
    return {
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "data": [[[z.real, z.imag] for z in row] for row in A.tolist()],
    }


def _payload_to_matrix(payload: dict) -> np.ndarray:
    rows, cols = int(payload["rows"]), int(payload["cols"])
    values = np.asarray(payload["data"], dtype=float)
    # a matrix without entries lists no [re, im] pairs, so its listing cannot show their depth
    if values.shape != (rows, cols, 2) and not (min(rows, cols) == 0 == values.size and len(values) == rows):
        raise MalformedInputError(f"matrix data of shape {values.shape} is not {rows}x{cols} [re, im] pairs")
    if not np.isfinite(values).all():
        raise MalformedInputError("matrix has non-finite entries")
    return values.reshape(rows, cols, 2).view(complex)[..., 0]


def matrix_to_text(M: Iterable) -> str:
    """matrix_to_payload serialized, with every number at 17 significant digits."""
    payload = matrix_to_payload(M)
    rows = (",".join(f"[{_fmt(re)},{_fmt(im)}]" for re, im in row) for row in payload["data"])
    body = ",".join(f"[{cells}]" for cells in rows)
    return f'{{"rows": {payload["rows"]}, "cols": {payload["cols"]}, "data": [{body}]}}\n'


@contextlib.contextmanager
def decoding(what: str):
    """The one rule for input files: DECODE_ERRORS within are the input's fault, a MalformedInputError naming `what`."""
    try:
        yield
    except DECODE_ERRORS as exc:
        cause = exc if isinstance(exc, MatOrderError) else f"{type(exc).__name__}: {exc}"
        raise MalformedInputError(f"bad {what}: {cause}") from exc


def parse_matrix_text(text: str) -> np.ndarray:
    with decoding("matrix"):
        return _payload_to_matrix(json.loads(text))


def write_matrix_file(path: Union[str, Path], M: Iterable) -> None:
    """Write M's text to path; MalformedInputError naming the path if it cannot be written."""
    text = matrix_to_text(M)
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise MalformedInputError(f"cannot write {path}: {exc.strerror}") from exc


def read_text_file(path: Union[str, Path]) -> str:
    """The UTF-8 text of the file at path; MalformedInputError naming the path if it cannot be read as such."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise MalformedInputError(f"no such file: {path}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc.strerror}") from exc


def read_json_file(path: Union[str, Path], what: str, decode: Callable):
    """decode(the JSON value of the file at path) under the decoding rule, as a bad `what` file."""
    text = read_text_file(path)
    with decoding(f"{what} file {path}"):
        return decode(json.loads(text))


def parse_matrix_file(path: Union[str, Path]) -> np.ndarray:
    return read_json_file(path, "matrix", _payload_to_matrix)
