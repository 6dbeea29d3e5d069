"""Tolerance configuration: every field is positive, finite and settable through the override list."""

import dataclasses
import math

import pytest

from matorder.config import DEFAULT_TOL, ToleranceConfig, parse_tolerance_overrides
from matorder.errors import MalformedInputError

FIELDS = [field.name for field in dataclasses.fields(ToleranceConfig)]


def test_overrides_accept_every_field():
    text = ", ".join(f"{name}={k + 2}e-7" for k, name in enumerate(FIELDS))
    got = parse_tolerance_overrides(text)
    assert [getattr(got, name) for name in FIELDS] == [(k + 2) * 1e-7 for k in range(len(FIELDS))]
    assert parse_tolerance_overrides("  ") is DEFAULT_TOL


@pytest.mark.parametrize("text", ["nope=1", "psd_tol", "psd_tol=small"])
def test_overrides_reject_unknown_keys_and_bad_values(text):
    with pytest.raises(MalformedInputError):
        parse_tolerance_overrides(text)


@pytest.mark.parametrize("name", FIELDS)
def test_every_field_must_be_positive(name):
    with pytest.raises(MalformedInputError, match=f"{name} must be strictly positive and finite"):
        ToleranceConfig(**{name: 0})


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_every_field_must_be_finite(name, value):
    with pytest.raises(MalformedInputError, match=f"{name} must be strictly positive and finite"):
        ToleranceConfig(**{name: value})


@pytest.mark.parametrize("text", ["inv_margin=1e999", "psd_tol=inf", "herm_tol=nan"])
def test_overrides_reject_non_finite_values(text):
    with pytest.raises(MalformedInputError, match=text.partition("=")[0]):
        parse_tolerance_overrides(text)
