"""Arithmetic backend selection for distribution computations."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[float, Fraction]

FLOAT64 = "float64"
EXACT = "exact"


def canonical_backend(name: str) -> str:
    if name not in (FLOAT64, EXACT):
        raise ValueError(f"unknown backend {name!r}; expected 'float64' or 'exact'")
    return name


def check_count(value, name: str, minimum: int = 0) -> None:
    """Raise ValueError unless value is an integer (int-like) >= minimum.

    `operator.index` refuses floats and Fractions, so 2.0 is reported here
    instead of failing later inside a loop.
    """
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}")


def to_number(value, backend: str) -> Scalar:
    """Convert a raw parameter (string, int, float, Fraction) to the backend type.

    In exact mode decimal strings parse to exact rationals ("0.05" -> 1/20);
    floats convert by their exact binary value, so prefer strings or Fractions
    when exactness of decimal inputs matters.
    """
    if canonical_backend(backend) == EXACT:
        return Fraction(value)
    return float(Fraction(value)) if isinstance(value, str) else float(value)


@dataclass(frozen=True)
class NumericConfig:
    """Backend and depth of a distribution computation.

    backend: "float64" (fast; the recurrence breaks down at the first
        strictly negative value once true coefficients sink below rounding
        error) or "exact" (rational arithmetic, never breaks down).
    k_max: largest queue length whose probability is computed.
    """

    backend: str = FLOAT64
    k_max: int = 200

    def __post_init__(self):
        canonical_backend(self.backend)
        check_count(self.k_max, "k_max")

    @property
    def is_exact(self) -> bool:
        return self.backend == EXACT
