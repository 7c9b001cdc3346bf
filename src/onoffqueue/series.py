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
(expected behavior, reported as breakdown diagnostics).  The breakdown
does not mark where the digits end: table1 rows 27-40 are off by >1e-6
relative before it comes at 41, and table2 to k = 200 is off from row
149 with none; use `--backend exact` for the tail.  The float division
slides a window over the last w values, w the last nonzero index of D, and
subtracts them in the order of the plain convolution, bit for bit.  Exact
rationals never break down: N and D are scaled to integers and divided
with an integer-only recurrence, whose values are reduced over the few
primes of den*d0 alone (see `_divide_exact`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from numbers import Rational
from operator import mul, sub
from typing import NamedTuple, Optional, Sequence

from .config import NumericConfig, Scalar, check_count
from .model import ModelSpec, check_stable, coerce, moments, suffix_sums, validate

# Slack on the cumulative-probability guard in float mode.
MASS_EXCESS_TOL = 1e-9


@dataclass(frozen=True)
class QueueDistribution:
    """Computed queue-length probabilities with numerical-health diagnostics.

    p[k] = P(Q=k) for k up to k_effective = len(p) - 1; tail[k] = P(Q>k).
    In float mode p stops before breakdown, the first strictly negative
    coefficient or cumulative mass above 1 + 1e-9, whose index, value and
    reason ("negative" or "mass") are recorded; in exact mode p always
    reaches k_max and the breakdown fields stay None.
    """

    p: tuple
    tail: tuple
    mass_accounted: Scalar
    breakdown_index: Optional[int] = None
    breakdown_value: Optional[Scalar] = None
    breakdown_reason: Optional[str] = None

    @property
    def k_effective(self) -> int:
        return len(self.p) - 1

    @property
    def breakdown_detected(self) -> bool:
        return self.breakdown_index is not None


def g_coefficients(spec: ModelSpec, k_max: int) -> tuple:
    """Coefficient table G[i][j] of (g(z)/z)^j, 0 <= i <= k_max, 0 <= j <= n.

    Column 0 is the delta seed (1 at i = 0); each next column convolves the
    previous one with the shifted batch distribution:
    G[i][j+1] = sum_k G[k][j] * g_{i+1-k}, added to row i in order of k.
    Column j has degree j*(m-1): its later rows are left zero.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    g = spec.g
    zero = g[0] * 0
    cols = [[zero + 1]]
    for j in range(1, spec.n + 1):
        top = min(j * (spec.m - 1), k_max)
        col = [zero] * (top + 1)
        for k, a in enumerate(cols[-1]):
            for i, c in enumerate(g[:top + 1 - k], start=k):
                col[i] += a * c
        cols.append(col)
    return tuple(zip(*(col + [zero] * (k_max + 1 - len(col)) for col in cols)))


def series_coefficients(spec: ModelSpec, G: Sequence) -> tuple:
    """Coefficient vectors (N, D) of the numerator and denominator series.

    One coefficient per row of the G table:
    D[i] = delta_{i-1} - sum_j f[j] * G[i][j]
    N[i] = sum_j (G[i-1][j] - G[i][j]) * F[j],  with G[-1] = 0
    where F = suffix_sums(f).
    """
    f = spec.f
    F = suffix_sums(f)
    zero = f[0] * 0
    N = []
    D = []
    prev = (zero,) * len(F)
    for i, row in enumerate(G):
        d = (1 if i == 1 else 0) - sum(map(mul, f, row))
        D.append(d + zero)
        N.append(sum(map(mul, map(sub, prev, row), F)) + zero)
        prev = row
    return tuple(N), tuple(D)


def _divide_series(b0, N, D, k_max: int) -> QueueDistribution:
    """Float division recurrence with the breakdown scan.

    P(Q=k) = (1/D[0]) * [N[k]*b0 - sum_{i<k} P(Q=i)*D[k-i]], seeded by
    P(Q=0) = b0*N[0]/D[0], with N[k] = 0 past the end of N.  The
    convolution only needs the trailing nonzero window of D: the last
    `window` values of P, zipped against D[window], ..., D[1] (or its tail).
    """
    d0 = D[0]
    zero = d0 * 0
    window = max(1, max(i for i, c in enumerate(D) if c))
    weights = D[window:0:-1]
    last = deque(maxlen=window)
    p = []
    running = zero
    breakdown = ()
    for k in range(k_max + 1):
        acc = N[k] * b0 if k < len(N) else 0.0
        for a, c in zip(last, weights if k >= window else weights[window - k:]):
            acc -= a * c
        pk = acc / d0
        if pk < zero:
            breakdown = (k, pk, "negative")
            break
        if running + pk > 1 + MASS_EXCESS_TOL:
            breakdown = (k, pk, "mass")
            break
        p.append(pk)
        last.append(pk)
        running = running + pk
    tail = tuple(map((1.0).__sub__, accumulate(p)))
    return QueueDistribution(tuple(p), tail, running, *breakdown)


class _Reduced(NamedTuple):
    """A numerator/denominator pair already in lowest terms, denominator > 0.

    Registered as a `numbers.Rational`, so `Fraction(_Reduced(y, M))` copies
    the two integers as given (the Rational contract promises lowest terms)
    instead of normalising them with a full-width gcd.
    """

    numerator: int
    denominator: int


Rational.register(_Reduced)


def _reduce_over(y: int, M: int, odd_base: int) -> Fraction:
    """The Fraction y / M, given y >= 0, M > 0 and every odd prime of M dividing odd_base.

    The common power of 2 is stripped with bit operations and the odd
    primes with t = gcd(gcd(y, odd_base), M), which is cheap because
    odd_base is small.  Only when an odd prime of t still divides both
    (a prime repeated in y and M) does one full gcd(y, M) run.
    """
    if not y:
        return Fraction(0)
    shift = min((y & -y).bit_length(), (M & -M).bit_length()) - 1
    y >>= shift
    M >>= shift
    t = gcd(gcd(y, odd_base), M)
    if t > 1:
        y //= t
        M //= t
        if gcd(gcd(y, t), M) > 1:
            t = gcd(y, M)
            y //= t
            M //= t
    return Fraction(_Reduced(y, M))


def _divide_exact(b0: Fraction, N, D, k_max: int) -> QueueDistribution:
    """Exact division recurrence over integers, reduced over the primes of b0 and d0.

    With N and D scaled by the lcm of their denominators to integers n_k
    and d_k, the content c = -gcd(d) divided out of d (and folded into
    b0' = b0/c = num/den; D[0] < 0 as f[0] > 0, so d0 > 0), and w the last
    nonzero index of d, the integers R_k = d0^(k+1) * P(Q=k) / b0' satisfy

        R_k = n_k*d0^k - sum_{j=1..w} R_{k-j} * d_j*d0^(j-1)

    (n_k = 0 past the end of N; the sum is taken by Horner's rule in d0,
    from j = min(k, w) down), and C_k = C_{k-1}*d0 + R_k carries the
    cumulative sum, so P(Q=k) = num*R_k/M and P(Q>k) = (M - num*C_k)/M
    with M = den*d0^(k+1) > 0.  Every prime of M divides den*d0, so each
    value is reduced by `_reduce_over` without a full-width gcd unless an
    odd prime of den*d0 cancels more than once.
    """
    scale = lcm(*(c.denominator for c in N + D))
    n = [c.numerator * (scale // c.denominator) for c in N]
    d = [c.numerator * (scale // c.denominator) for c in D]
    content = -gcd(*d)
    d = [c // content for c in d]
    d0 = d[0]
    w = max(i for i, c in enumerate(d) if c)
    num, den = (b0 / content).as_integer_ratio()
    base = den * d0
    odd_base = base >> ((base & -base).bit_length() - 1)
    R = deque(maxlen=w)  # R_{k-w} .. R_{k-1}
    p = []
    tail = []
    cum = 0
    power = 1  # d0^k
    for k in range(k_max + 1):
        acc = 0
        for r, dj in zip(R, d[len(R) : 0 : -1]):
            acc = acc * d0 + r * dj
        acc = (n[k] * power if k < len(n) else 0) - acc
        R.append(acc)
        cum = cum * d0 + acc
        power *= d0
        scaled = den * power
        p.append(_reduce_over(num * acc, scaled, odd_base))
        tail.append(_reduce_over(scaled - num * cum, scaled, odd_base))
    return QueueDistribution(tuple(p), tuple(tail), 1 - tail[-1])


def _divide(b0, N, D, config: NumericConfig) -> QueueDistribution:
    """b0 * N(z) / D(z) to config.k_max, by the division of config's backend."""
    divide = _divide_exact if config.is_exact else _divide_series
    return divide(b0, N, D, config.k_max)


def queue_distribution(spec: ModelSpec, config: NumericConfig = NumericConfig()) -> QueueDistribution:
    """Full queue-length distribution up to config.k_max.

    The spec must already be validated; its parameters are coerced to the
    configured backend before any arithmetic.
    """
    spec = coerce(spec, config.backend)
    mom = moments(spec)
    check_stable(mom.rho)
    degree = spec.n * (spec.m - 1) + 1  # of N(z); D(z) has no higher term
    N, D = series_coefficients(spec, g_coefficients(spec, min(config.k_max, degree)))
    return _divide(mom.b0, N, D, config)


def queue_distribution_constant_batch(
    f: Sequence, r: int, config: NumericConfig = NumericConfig()
) -> QueueDistribution:
    """Queue-length distribution when every batch has the same size r.

    The general division with g degenerate at r, where G[i][j] collapses to
    one Kronecker delta per column: with F = suffix_sums(f),
    D(z) = z - sum_j f[j] * z^(j*(r-1)) and
    N(z) = sum_j F[j] * (z^(j*(r-1)+1) - z^(j*(r-1))), so

        P(Q=0) = b0 / f[0]
        P(Q=k) = (1/f[0]) * [ P(Q=k-1)
                              - sum_j f[j] * P(Q = k - j*(r-1))
                              - b0 * F[(k-1)/(r-1)]   (when r-1 divides k-1)
                              + b0 * F[k/(r-1)] ]     (when r-1 divides k)

    with every out-of-range term zero.  Matches the general path term for
    term; r = 1 yields the trivial distribution.  f is checked in float64
    tolerance as given before exact mode renormalises it, so a vector that
    does not sum to 1 is rejected in either mode.
    """
    check_count(r, "batch size r", 1)
    spec = ModelSpec(tuple(f), (1,))
    validate(spec)
    spec = validate(coerce(spec, config.backend), config)
    fv = spec.f
    zero = fv[0] * 0
    one = zero + 1
    f_bar = sum(i * p for i, p in enumerate(fv))
    check_stable(r * f_bar / (1 + f_bar))
    if r == 1:
        zeros = (zero,) * config.k_max
        return QueueDistribution((one,) + zeros, zeros + (zero,), one)
    b0 = (1 + f_bar - r * f_bar) / (1 + f_bar)
    step = r - 1
    N = [zero] * (spec.n * step + 2)
    D = [zero] * len(N)
    D[1] = one
    for j, (fj, Fj) in enumerate(zip(fv, suffix_sums(fv))):
        D[j * step] -= fj
        N[j * step] -= Fj
        N[j * step + 1] += Fj
    return _divide(b0, N, D, config)


def pgf_eval(spec: ModelSpec, z) -> Scalar:
    """Evaluate E[z^Q] directly at a point z in [0, 1].

    Both N and D vanish at z = 1, so (z - 1) is divided out of each
    analytically: with h = g(z)/z, F = suffix_sums(f) and
    c = (h - 1)/(z - 1) = sum_s g_s * (1 + z + ... + z^(s-2)),

        S(z) = N/(z-1) = sum_j F[j] * h^j
        E(z) = D/(z-1) = 1 - c * sum_{j<n} F[j+1] * h^j

    and E[z^Q] = b0*S(z)/E(z), which has no pole on [0, 1] when rho < 1;
    rho >= 1 raises Unstable, as queue_distribution does.
    Independent of the coefficient recurrence, so the truncated series
    sum(p[k] * z^k) can be checked against it.
    """
    if not 0 <= z <= 1:  # also refuses NaN
        raise ValueError("z must lie in [0, 1]")
    mom = moments(spec)
    check_stable(mom.rho)
    F = suffix_sums(spec.f)
    h = sum(p * z ** (s - 1) for s, p in enumerate(spec.g, start=1))
    c = sum(p * sum(z**i for i in range(s - 1)) for s, p in enumerate(spec.g, start=1))
    powers = [h**j for j in range(spec.n + 1)]
    S = sum(Fj * hj for Fj, hj in zip(F, powers))
    E = 1 - c * sum(Fj * hj for Fj, hj in zip(F[1:], powers))
    return mom.b0 * S / E
