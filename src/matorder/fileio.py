"""Matrix file serialization for the CLI and the suite reports.

UTF-8 JSON, schema {"rows": n, "cols": m, "data": [[[re, im], ...], ...]}
row-major, numbers written with 17 significant digits so doubles round-trip
bit-exactly. Parsing checks the format only; the function a parsed matrix
is passed to decides whether it is square, Hermitian and of its dimension.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .errors import MalformedInputError

__all__ = [
    "matrix_to_payload",
    "matrix_to_text",
    "parse_matrix_text",
    "write_matrix_file",
    "parse_matrix_file",
    "read_text_file",
]


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
        "data": [[[float(z.real), float(z.imag)] for z in row] for row in A],
    }


def _payload_to_matrix(payload: dict) -> np.ndarray:
    try:
        rows = int(payload["rows"])
        cols = int(payload["cols"])
        data = payload["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"matrix payload missing/invalid field: {exc}") from exc
    if rows < 0 or cols < 0 or len(data) != rows:
        raise MalformedInputError(f"matrix payload shape mismatch: {rows}x{cols} vs {len(data)} rows")
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        if len(row) != cols:
            raise MalformedInputError(f"row {i} has {len(row)} entries, expected {cols}")
        for j, entry in enumerate(row):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise MalformedInputError(f"entry ({i},{j}) must be an [re, im] pair")
            out[i, j] = complex(float(entry[0]), float(entry[1]))
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise MalformedInputError("matrix has non-finite entries")
    return out


def matrix_to_text(M: Iterable) -> str:
    """Serialize with every number at 17 significant digits."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise MalformedInputError(f"expected a 2-d matrix, got shape {A.shape}")
    rows = []
    for row in A:
        cells = ",".join(f"[{_fmt(z.real)},{_fmt(z.imag)}]" for z in row)
        rows.append(f"[{cells}]")
    body = ",".join(rows)
    return f'{{"rows": {A.shape[0]}, "cols": {A.shape[1]}, "data": [{body}]}}\n'


def parse_matrix_text(text: str) -> np.ndarray:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"matrix parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return _payload_to_matrix(payload)


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


def parse_matrix_file(path: Union[str, Path]) -> np.ndarray:
    return parse_matrix_text(read_text_file(path))
