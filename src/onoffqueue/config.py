"""Arithmetic backend selection for distribution computations."""

from __future__ import annotations

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
        if self.k_max < 0:
            raise ValueError("k_max must be nonnegative")

    @property
    def is_exact(self) -> bool:
        return self.backend == EXACT
