"""Queue-length distribution by formal power-series division.

The generating function of the equilibrium queue length has the closed form
E[z^Q] = b0 * N(z) / D(z) with

    N(z) = (z - 1) * sum_i f[i] * sum_{j<=i} (g(z)/z)^j
    D(z) = z - sum_i f[i] * (g(z)/z)^i

so P(Q=k) is the coefficient of z^k in the quotient.  Dividing the two
power series term by term yields a short recurrence for P(Q=k) driven by
the coefficient table G[i][j] of (g(z)/z)^j.  N and D are polynomials of
degree n*(m-1)+1, so the tables stop at that degree whatever k_max is, and
the division treats every later coefficient as zero.

Binary floats are fast but the recurrence eventually produces negative
values once the true coefficients sink below accumulated rounding error
(expected behavior, reported as breakdown diagnostics).  Exact rationals
never break down: N and D are scaled to integers and divided with an
integer-only recurrence, so a Fraction is reduced once per emitted value
rather than on every operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Optional, Sequence

from .config import NumericConfig, Scalar
from .errors import PoleNear, Unstable
from .model import ModelSpec, coerce, moments, suffix_sums, validate

# Slack on the cumulative-probability guard in float mode.
MASS_EXCESS_TOL = 1e-9

# |D(z)| below this refuses float evaluation near the z=1 pole.
POLE_TOL = 1e-12


@dataclass(frozen=True)
class QueueDistribution:
    """Computed queue-length probabilities with numerical-health diagnostics.

    p[k] = P(Q=k) for k up to k_effective; tail[k] = P(Q>k).  In float mode
    k_effective is the last index before breakdown (the first strictly
    negative coefficient or cumulative mass above 1 + 1e-9); in exact mode
    it always equals k_max and breakdown_detected is False.
    """

    p: tuple
    k_effective: int
    breakdown_detected: bool
    breakdown_index: Optional[int]
    breakdown_value: Optional[Scalar]
    breakdown_reason: Optional[str]
    mass_accounted: Scalar
    tail: tuple


def g_coefficients(spec: ModelSpec, k_max: int) -> tuple:
    """Coefficient table G[i][j] of (g(z)/z)^j, 0 <= i <= k_max, 0 <= j <= n.

    Column 0 is the delta seed (1 at i = 0); each next column convolves the
    previous one with the shifted batch distribution:
    G[i][j+1] = sum_k G[k][j] * g_{i+1-k}.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    n, m = spec.n, spec.m
    g = spec.g
    zero = g[0] * 0
    one = zero + 1
    G = [[zero] * (n + 1) for _ in range(k_max + 1)]
    G[0][0] = one
    for j in range(n):
        for i in range(k_max + 1):
            # g_{i+1-k} is stored at g[i-k]; nonzero only for i+1-k in 1..m
            acc = zero
            for k in range(max(0, i + 1 - m), i + 1):
                acc += G[k][j] * g[i - k]
            G[i][j + 1] = acc
    return tuple(tuple(row) for row in G)


def series_coefficients(spec: ModelSpec, G: Sequence) -> tuple:
    """Coefficient vectors (N, D) of the numerator and denominator series.

    One coefficient per row of the G table:
    D[i] = delta_{i-1} - sum_j f[j] * G[i][j]
    N[0] = -sum_j G[0][j] * F[j],  N[i>0] = sum_j (G[i-1][j] - G[i][j]) * F[j]
    where F = suffix_sums(f).
    """
    f = spec.f
    F = suffix_sums(f)
    zero = f[0] * 0
    N = []
    D = []
    for i, row in enumerate(G):
        d = (1 if i == 1 else 0) - sum(p * c for p, c in zip(f, row))
        if i == 0:
            nu = -sum(c * s for c, s in zip(row, F))
        else:
            nu = sum((a - c) * s for a, c, s in zip(G[i - 1], row, F))
        D.append(d + zero)
        N.append(nu + zero)
    return tuple(N), tuple(D)


def _wrap_distribution(p, running, breakdown):
    one = (p[0] * 0 + 1) if p else 1
    tail = [one - cum for cum in accumulate(p)]
    index, value, reason = breakdown if breakdown else (None, None, None)
    return QueueDistribution(
        p=tuple(p),
        k_effective=len(p) - 1,
        breakdown_detected=breakdown is not None,
        breakdown_index=index,
        breakdown_value=value,
        breakdown_reason=reason,
        mass_accounted=running,
        tail=tuple(tail),
    )


def _divide_series(b0, N, D, config: NumericConfig) -> QueueDistribution:
    """Float division recurrence with the breakdown scan.

    P(Q=k) = (1/D[0]) * [N[k]*b0 - sum_{i<k} P(Q=i)*D[k-i]], seeded by
    P(Q=0) = b0*N[0]/D[0], with N[k] = 0 past the end of N.  The
    convolution only needs the trailing nonzero window of D.
    """
    d0 = D[0]
    zero = d0 * 0
    window = max(1, max(i for i, c in enumerate(D) if c))
    p = []
    running = zero
    breakdown = None
    for k in range(config.k_max + 1):
        acc = N[k] * b0 if k < len(N) else 0.0
        for i in range(max(0, k - window), k):
            acc -= p[i] * D[k - i]
        pk = acc / d0
        if pk < zero:
            breakdown = (k, pk, "negative")
            break
        if running + pk > 1 + MASS_EXCESS_TOL:
            breakdown = (k, pk, "mass")
            break
        p.append(pk)
        running = running + pk
    return _wrap_distribution(p, running, breakdown)


def _divide_exact(b0: Fraction, N, D, k_max: int) -> QueueDistribution:
    """Exact division recurrence over integers, one reduction per emitted value.

    With N and D scaled by the lcm of their denominators to integers n_k
    and d_k, and w the last nonzero index of d, the integers
    R_k = d0^(k+1) * P(Q=k) / b0 satisfy

        R_k = n_k*d0^k - sum_{j=1..w} R_{k-j} * d_j*d0^(j-1)

    (n_k = 0 past the end of N), and C_k = C_{k-1}*d0 + R_k carries the
    cumulative sum, so P(Q=k) = b0*R_k/d0^(k+1) and P(Q>k) =
    1 - b0*C_k/d0^(k+1).
    """
    scale = lcm(*(c.denominator for c in N + D))
    n = [c.numerator * (scale // c.denominator) for c in N]
    d = [c.numerator * (scale // c.denominator) for c in D]
    d0 = d[0]
    w = max(i for i, c in enumerate(d) if c)
    weights = [d[j] * d0 ** (j - 1) for j in range(1, w + 1)]
    num, den = b0.numerator, b0.denominator
    R = []
    p = []
    tail = []
    cum = 0
    power = 1  # d0^k
    for k in range(k_max + 1):
        acc = n[k] * power if k < len(n) else 0
        for j, weight in enumerate(weights[:k], start=1):
            acc -= R[k - j] * weight
        R.append(acc)
        cum = cum * d0 + acc
        power *= d0
        scaled = den * power
        p.append(Fraction(num * acc, scaled))
        tail.append(Fraction(scaled - num * cum, scaled))
    return QueueDistribution(
        p=tuple(p),
        k_effective=k_max,
        breakdown_detected=False,
        breakdown_index=None,
        breakdown_value=None,
        breakdown_reason=None,
        mass_accounted=Fraction(num * cum, den * power),
        tail=tuple(tail),
    )


def queue_distribution(spec: ModelSpec, config: NumericConfig = NumericConfig()) -> QueueDistribution:
    """Full queue-length distribution up to config.k_max.

    The spec must already be validated; its parameters are coerced to the
    configured backend before any arithmetic.
    """
    spec = coerce(spec, config.backend)
    mom = moments(spec)
    if mom.rho >= 1:
        raise Unstable(f"utilization rho = {float(mom.rho):.6g} must be below 1")
    degree = spec.n * (spec.m - 1) + 1  # of N(z); D(z) has no higher term
    N, D = series_coefficients(spec, g_coefficients(spec, min(config.k_max, degree)))
    if config.is_exact:
        return _divide_exact(mom.b0, N, D, config.k_max)
    return _divide_series(mom.b0, N, D, config)


def queue_distribution_constant_batch(
    f: Sequence, r: int, config: NumericConfig = NumericConfig()
) -> QueueDistribution:
    """Queue-length distribution when every batch has the same size r.

    Runs the specialized recurrence (the general one with g degenerate at r,
    where G[i][j] collapses to a single Kronecker delta per column):

        P(Q=0) = b0 / f[0]
        P(Q=k) = (1/f[0]) * [ P(Q=k-1)
                              - sum_j f[j] * P(Q = k - j*(r-1))
                              - b0 * F[(k-1)/(r-1)]   (when r-1 divides k-1)
                              + b0 * F[k/(r-1)] ]     (when r-1 divides k)

    with F[J] = sum(f[J:]) and every out-of-range term zero.  Matches the
    general path term for term; r = 1 yields the trivial distribution.
    """
    if r < 1 or r != int(r):
        raise ValueError("batch size r must be an integer >= 1")
    spec = validate(coerce(ModelSpec(tuple(f), (1,)), config.backend), config)
    fv = spec.f
    n = spec.n
    zero = fv[0] * 0
    one = zero + 1
    f_bar = sum(i * p for i, p in enumerate(fv))
    rho = r * f_bar / (1 + f_bar)
    if rho >= 1:
        raise Unstable(f"utilization rho = {float(rho):.6g} must be below 1")
    if r == 1:
        p = [one] + [zero] * config.k_max
        return _wrap_distribution(p, one, None)
    b0 = (1 + f_bar - r * f_bar) / (1 + f_bar)
    step = r - 1
    F = suffix_sums(fv) + (zero,) * (config.k_max // step)  # F[J] = 0 past J = n
    float_mode = not config.is_exact
    p = [b0 / fv[0]]
    running = p[0]
    breakdown = None
    for k in range(1, config.k_max + 1):
        acc = p[k - 1]
        for j in range(1, min(n, k // step) + 1):
            acc -= fv[j] * p[k - j * step]
        if (k - 1) % step == 0:
            acc -= b0 * F[(k - 1) // step]
        if k % step == 0:
            acc += b0 * F[k // step]
        pk = acc / fv[0]
        if float_mode:
            if pk < zero:
                breakdown = (k, pk, "negative")
                break
            if running + pk > 1 + MASS_EXCESS_TOL:
                breakdown = (k, pk, "mass")
                break
        p.append(pk)
        running = running + pk
    return _wrap_distribution(p, running, breakdown)


def pgf_eval(spec: ModelSpec, z) -> Scalar:
    """Evaluate E[z^Q] = b0*N(z)/D(z) directly at a point z in [0, 1).

    Independent of the coefficient recurrence, so the truncated series
    sum(p[k] * z^k) can be checked against it.  g(z)/z is evaluated as the
    polynomial sum_i g_i z^(i-1), which is exact at z = 0.
    """
    if z < 0 or z >= 1:
        raise ValueError("z must lie in [0, 1)")
    mom = moments(spec)
    ratio = sum(p * z ** (i - 1) for i, p in enumerate(spec.g, start=1))
    n = spec.n
    powers = [ratio * 0 + 1]
    for _ in range(n):
        powers.append(powers[-1] * ratio)
    den = z - sum(spec.f[i] * powers[i] for i in range(n + 1))
    if isinstance(den, float):
        if abs(den) < POLE_TOL:
            raise PoleNear(f"|D(z)| = {abs(den):.3e} at z = {z!r}")
    elif den == 0:
        raise PoleNear(f"D(z) = 0 at z = {z!r}")
    partial = powers[0] * 0
    num_sum = partial
    for i in range(n + 1):
        partial = partial + powers[i]
        num_sum = num_sum + spec.f[i] * partial
    num = (z - 1) * num_sum
    return mom.b0 * num / den
