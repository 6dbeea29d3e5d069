"""Tolerance configuration, and the one rule for integer arguments.

Every numerical gate in the library threads through a ToleranceConfig so
defaults can be overridden globally (CLI environment variable) or per call.
`_checked_int` guards every dimension, seed, order and trial count; it is
pure Python, so a CLI command that checks one loads no numerical module.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from typing import Optional

from .errors import MalformedInputError


@dataclasses.dataclass(frozen=True)
class ToleranceConfig:
    """Numerical cushions used by membership tests and validators.

    herm_tol    relative hermiticity cushion ||X - X*||_F <= herm_tol*(1+||X||_F)
    eig_tol     eigendecomposition residual/unitarity bound (relative)
    psd_tol     relative eigenvalue cutoff for order comparisons and rank
    inv_margin  invertible iff sigma_min > inv_margin*(1+sigma_max); absolute half-plane/guard margin
    """

    herm_tol: float = 1e-10
    eig_tol: float = 1e-10
    psd_tol: float = 1e-8
    inv_margin: float = 1e-8

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not (value > 0.0 and math.isfinite(value)):
                raise MalformedInputError(f"{field.name} must be strictly positive and finite, got {value}")

    def replace(self, **kwargs: float) -> "ToleranceConfig":
        return dataclasses.replace(self, **kwargs)


DEFAULT_TOL = ToleranceConfig()


def parse_tolerance_overrides(text: str, base: ToleranceConfig = DEFAULT_TOL) -> ToleranceConfig:
    """Parse a "key=value,key=value" override list (CLI environment variable).

    Unknown keys raise MalformedInputError; empty text returns `base`.
    """
    text = text.strip()
    if not text:
        return base
    allowed = {field.name for field in dataclasses.fields(ToleranceConfig)}
    overrides: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in allowed:
            raise MalformedInputError(f"unknown tolerance override {item!r}")
        try:
            overrides[key] = float(value)
        except ValueError as exc:
            raise MalformedInputError(f"bad tolerance value in {item!r}") from exc
    return base.replace(**overrides)


def _checked_int(value, name: str, minimum: Optional[int] = None) -> int:
    """value as an int; MalformedInputError naming the argument for a non-integer, or for one below a
    `minimum` of 0 (non-negative) or 1 (positive)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise MalformedInputError(f"{name} must be an integer, got {type(value).__name__}") from None
    if minimum is not None and value < minimum:
        raise MalformedInputError(f"{name} must be {'positive' if minimum else 'non-negative'}")
    return value
