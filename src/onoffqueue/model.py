"""Model definition for the discrete-time on/off batch-arrival queue.

The arrival side is a finite Markov chain with one off state and on states
that count down deterministically: from off, the chain stays off with
probability f[0] or begins an on period of exactly i slots with probability
f[i].  Every on slot delivers a batch of work with size drawn from g
(sizes 1..m); the server completes one unit of work per slot.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from decimal import Decimal
from itertools import accumulate
from typing import Sequence

from .config import (
    EXACT, FLOAT64, NumericConfig, Scalar, canonical_backend, exponent_beyond_limit, to_number,
)
from .errors import NonStochasticVector, NotErgodic, Unstable, ValidationError

# Float-mode slack for user-entered decimals; vectors inside it are
# renormalized so downstream identities hold tightly.
PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ModelSpec:
    """On/off arrival model parameters.

    f: index 0..n; f[i] is the probability that an off slot is followed by
       an on period of exactly i slots (f[0] = remain off).
    g: batch-size probabilities for sizes 1..m; g[k] is the probability
       that a batch has size k + 1.  Size 0 never occurs in an on slot.
    """

    f: tuple
    g: tuple

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "g", tuple(self.g))

    @property
    def n(self) -> int:
        """Longest possible on period."""
        return len(self.f) - 1

    @property
    def m(self) -> int:
        """Largest possible batch size."""
        return len(self.g)


@dataclass(frozen=True)
class MomentSummary:
    """Scalar quantities derived from a validated spec.

    f_bar/f2_bar: first and second moments of the on-period length (slots).
    g_bar/g2_bar: first and second moments of the batch size (work units).
    rho: utilization; lam: mean arrival rate (equal here, unit-rate server).
    pi0: equilibrium probability of the off state.
    b0: boundary probability that the queue is empty and the chain is off,
        which is exactly the server-idle probability 1 - rho (the server
        idles in a slot iff nothing is queued and nothing arrives).
    """

    f_bar: Scalar
    f2_bar: Scalar
    g_bar: Scalar
    g2_bar: Scalar
    rho: Scalar
    lam: Scalar
    pi0: Scalar
    b0: Scalar


def coerce(spec: ModelSpec, backend: str = FLOAT64) -> ModelSpec:
    """Convert the spec's parameters to the backend's number type.

    Exact mode renormalizes each vector by its exact sum: float-validated
    vectors convert to rationals summing to 1 +- 1e-17, and running the
    exact recurrences on such a sub-stochastic model would poison the far
    tail.  For inputs that already sum to exactly 1 this is the identity.
    A float64 spec whose entries are all floats is returned as it is.
    """
    if backend == FLOAT64 and all(type(v) is float for v in spec.f + spec.g):
        return spec
    f = tuple(to_number(v, backend) for v in spec.f)
    g = tuple(to_number(v, backend) for v in spec.g)
    if canonical_backend(backend) == EXACT:
        fs, gs = sum(f), sum(g)
        if fs > 0:
            f = tuple(v / fs for v in f)
        if gs > 0:
            g = tuple(v / gs for v in g)
    return ModelSpec(f, g)


def _parse_vector(name, values, backend, violations):
    """Convert every entry to the backend type; None if any entry is malformed.

    Each entry that is not a finite number (text such as "nan" or "abc",
    a boolean, a nested list, a division by zero) is recorded as its own
    violation, and so is a decimal exponent too large to expand.
    """
    out = []
    for i, v in enumerate(values):
        try:
            if isinstance(v, bool):
                raise TypeError("a boolean is not a probability")
            out.append(to_number(v, backend))
        except (ValueError, TypeError, ArithmeticError):
            problem = "is not a finite number"
            if exponent_beyond_limit(v):  # refused by to_number before parsing
                problem = f"has a decimal exponent above {sys.get_int_max_str_digits()} in magnitude"
            violations.append(NonStochasticVector(f"{name}[{i}] = {v!r} {problem}"))
    return tuple(out) if len(out) == len(values) else None


def _show(value, digits=6) -> str:
    """A parameter to `digits` significant digits, also a rational beyond float range."""
    try:
        return f"{float(value):.{digits}g}"
    except OverflowError:
        return f"{Decimal(value.numerator) / value.denominator:.{digits}g}"


def _check_vector(name, values, exact, violations):
    """Range/sum checks for one probability vector.

    Returns (vector, ok); float mode renormalizes by the sum when ok.
    """
    if not values:
        violations.append(NonStochasticVector(f"{name} must not be empty"))
        return values, False
    ok = True
    for i, v in enumerate(values):
        if not 0 <= v <= 1:  # also catches NaN
            violations.append(
                NonStochasticVector(f"{name}[{i}] = {_show(v)} is outside [0, 1]")
            )
            ok = False
    total = sum(values)
    if exact:
        if total != 1:
            violations.append(
                NonStochasticVector(f"{name} sums to {_show(total, 9)}, expected exactly 1")
            )
            ok = False
    elif abs(total - 1) > PROB_SUM_TOL:
        violations.append(
            NonStochasticVector(f"{name} sums to {float(total):.9g}, expected 1 within {PROB_SUM_TOL}")
        )
        ok = False
    if ok and not exact:
        values = tuple(v / total for v in values)
    return values, ok


def validate(spec: ModelSpec, config: NumericConfig = NumericConfig()) -> ModelSpec:
    """Check every model requirement and return the canonical spec.

    All violations are collected into a single ValidationError rather than
    failing on the first.  In float mode, probability vectors within the sum
    tolerance are renormalized; in exact mode they must sum to exactly 1.
    """
    exact = config.backend == EXACT
    violations = []
    f = _parse_vector("f", spec.f, config.backend, violations)
    g = _parse_vector("g", spec.g, config.backend, violations)
    f_ok = g_ok = False
    if f is not None:
        f, f_ok = _check_vector("f", f, exact, violations)
    if g is not None:
        g, g_ok = _check_vector("g", g, exact, violations)
    if f_ok and not 0 < f[0] < 1:
        violations.append(
            NotErgodic(f"f[0] = {float(f[0]):.6g} must lie strictly between 0 and 1")
        )
    if f_ok and g_ok:
        checked = ModelSpec(f, g)
        try:
            check_stable(moments(checked).rho)
        except Unstable as exc:
            violations.append(exc)
    if violations:
        raise ValidationError(violations)
    return checked  # f_ok and g_ok hold here: each way to miss one records a violation


def check_stable(rho) -> None:
    """Raise Unstable unless the utilization rho is below 1."""
    if rho >= 1:
        raise Unstable(f"utilization rho = {float(rho):.6g} must be below 1")


def from_strings(f: Sequence, g: Sequence, backend: str = FLOAT64) -> ModelSpec:
    """Parse parameter vectors (typically decimal strings) and validate."""
    return validate(ModelSpec(tuple(f), tuple(g)), NumericConfig(backend=backend))


def moments(spec: ModelSpec) -> MomentSummary:
    """Derived scalars for a validated spec; pure and deterministic."""
    f_bar = sum(i * p for i, p in enumerate(spec.f))
    f2_bar = sum(i * i * p for i, p in enumerate(spec.f))
    g_bar = sum(i * p for i, p in enumerate(spec.g, start=1))
    g2_bar = sum(i * i * p for i, p in enumerate(spec.g, start=1))
    rho = g_bar * f_bar / (1 + f_bar)
    return MomentSummary(
        f_bar=f_bar,
        f2_bar=f2_bar,
        g_bar=g_bar,
        g2_bar=g2_bar,
        rho=rho,
        lam=rho,
        pi0=1 / (1 + f_bar),
        b0=1 - rho,
    )


def suffix_sums(f: Sequence) -> tuple:
    """F[j] = sum(f[j:]) for every j, accumulated from the last entry."""
    return tuple(accumulate(reversed(f)))[::-1]


def stationary_distribution(spec: ModelSpec) -> tuple:
    """Equilibrium distribution of the on/off chain.

    pi[i] = pi[0] * sum(f[i:]) with pi[0] = 1 / (1 + f_bar); the suffix-sum
    form follows from the countdown structure of the chain.
    """
    pi0 = moments(spec).pi0
    return tuple(pi0 * F if i else pi0 for i, F in enumerate(suffix_sums(spec.f)))
