"""Arithmetic backend selection and summation order for distribution computations."""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from typing import Union

Scalar = Union[float, Fraction]

FLOAT64 = "float64"
EXACT = "exact"

_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)")
# The decimal exponent of a string entry.  Fraction's parse time grows with
# its magnitude, which (unlike the digit count) Python does not bound.
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def canonical_backend(name: str) -> str:
    if name not in (FLOAT64, EXACT):
        raise ValueError(f"unknown backend {name!r}; expected 'float64' or 'exact'")
    return name


def ordered_sum(values, start=0):
    """start + values[0] + values[1] + ..., strictly left to right, as the builtin sum() was
    until Python 3.12 made float sums compensated.  Every sum that can see floats uses it, so
    float output is the same on every interpreter; Fractions add exactly, as with sum()."""
    for v in values:
        start = start + v
    return start


def is_integer(value) -> bool:
    """True for an int-like value, whose type defines `__index__`, other than a bool.

    Floats, Fractions and bools are refused, so 2.0 and True are reported where
    they are passed instead of failing later inside a loop.
    """
    return hasattr(type(value), "__index__") and not isinstance(value, bool)


def check_count(value, name: str, minimum: int = 0) -> None:
    """Raise ValueError unless value `is_integer` and is at least minimum."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}")


def check_size(value, name: str) -> None:
    """check_count, and refuse a value above sys.maxsize, the longest a sequence can be."""
    check_count(value, name)
    if value > sys.maxsize:
        raise ValueError(f"{name} must be at most {sys.maxsize}")


def exponent_beyond_limit(value) -> bool:
    """True for a string whose decimal exponent exceeds the int-to-str digit limit."""
    if not isinstance(value, str) or ("e" not in value and "E" not in value):
        return False
    limit = sys.get_int_max_str_digits()
    match = _EXPONENT.search(value) if limit else None
    return match is not None and (len(match[1]) > limit or int(match[1]) > limit)


def to_number(value, backend: str) -> Scalar:
    """Convert a raw parameter (string, int, float, Fraction) to the backend type.

    In exact mode decimal strings parse to exact rationals ("0.05" -> 1/20);
    floats convert by their exact binary value, so prefer strings or Fractions
    when exactness of decimal inputs matters.  In float64 mode a plain decimal
    within the int-to-str digit limit is read by float(), which rounds
    correctly; zero (Fraction has no -0.0), overflow and any other string go
    through float(Fraction(value)), refusals included.  A string whose
    decimal exponent exceeds the int-to-str digit limit is refused on either
    backend before it is parsed, since the parse time grows with the exponent.
    """
    if exponent_beyond_limit(value):
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{value!r} has a decimal exponent above {limit} in magnitude")
    if canonical_backend(backend) == EXACT:
        return Fraction(value)
    if not isinstance(value, str):
        return float(value)
    if _DECIMAL.fullmatch(value) and not 0 < sys.get_int_max_str_digits() < len(value):
        number = float(value)
        if number and isfinite(number):
            return number
    return float(Fraction(value))


@dataclass(frozen=True)
class NumericConfig:
    """Backend and depth of a distribution computation.

    backend: "float64" (fast, with the same bits on every interpreter; the
        recurrence breaks down at the first strictly negative value, and
        its digits can end before that, see `series`) or "exact" (rational
        arithmetic, never breaks down).
    k_max: largest queue length whose probability is computed.
    """

    backend: str = FLOAT64
    k_max: int = 200

    def __post_init__(self):
        canonical_backend(self.backend)
        check_size(self.k_max, "k_max")

    @property
    def is_exact(self) -> bool:
        return self.backend == EXACT
