"""Queue-length distribution by formal power-series division.

The generating function of the equilibrium queue length has the closed form
E[z^Q] = b0 * N(z) / D(z) with

    N(z) = (z - 1) * sum_i f[i] * sum_{j<=i} (g(z)/z)^j
    D(z) = z - sum_i f[i] * (g(z)/z)^i

so P(Q=k) is the coefficient of z^k in the quotient.  Dividing the two
power series term by term yields a short recurrence for P(Q=k) driven by
the coefficient table G[i][j] of (g(z)/z)^j: the paper's recurrence, which
float64 runs.  N and D are polynomials of degree n*(m-1)+1, so the tables
stop at that degree whatever k_max is, and the division treats every later
coefficient as zero.  As N(1) = D(1) = 0, `deflated_coefficients` gives
S = N/(z - 1) and E = D/(z - 1) from f and g alone, with no G table; the
exact backend divides S by E, and `pgf_eval` evaluates b0 * S(z)/E(z).

Binary floats are fast but the recurrence eventually produces negative
values once the true coefficients sink below accumulated rounding error
(expected behavior, reported as breakdown diagnostics).  The breakdown
does not mark where the digits end: table1 rows 27-40 are off by >1e-6
relative before it comes at 41, and table2 to k = 200 is off from row
149 with none; use `--backend exact` for the tail.  The float division
runs a straight-line kernel per window width with the bits of the plain
convolution (see `_division_kernel`), and every other float sum goes
left to right from the int 0, by `config.ordered_sum` or by the one loop
per row of `series_coefficients`, so the bits are the same on every
interpreter.  Exact rationals never break down: S and E are scaled
to integers and divided with an integer-only recurrence, whose values
are reduced over the few primes of den*e0 alone (see `_exact_rows`).
`exact_rows` hands out its rows as they are made, so a caller that
writes each row before reading the next holds one row, not k_max.
A float distribution stores p alone: its tail, 1 - running sum of p, is
derived on the first read, in O(k) once, and cached; the exact division
stores the tail its recurrence already yields.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import sub
from typing import Optional, Sequence

from .config import EXACT, NumericConfig, Scalar, check_count
from .model import ModelSpec, check_stable, coerce, moments, suffix_sums, validate

# Slack on the cumulative-probability guard in float mode.
MASS_EXCESS_TOL = 1e-9


@dataclass(frozen=True)
class QueueDistribution:
    """Computed queue-length probabilities with numerical-health diagnostics.

    p[k] = P(Q=k) for k up to k_effective = len(p) - 1; tail[k] = P(Q>k),
    a property derived from p on its first read.
    In float mode p stops before breakdown, the first strictly negative
    coefficient or cumulative mass above 1 + 1e-9, whose index, value and
    reason ("negative" or "mass") are recorded; in exact mode p always
    reaches k_max and the breakdown fields stay None.
    """

    p: tuple
    mass_accounted: Scalar
    breakdown_index: Optional[int] = None
    breakdown_value: Optional[Scalar] = None
    breakdown_reason: Optional[str] = None

    @property
    def tail(self) -> tuple:
        """P(Q>k) for each k of p: 1 - x over the running sums x of p, in p's own numbers.

        Computed in O(k) on the first read and cached outside the fields, as
        `model.moments` caches on the spec, so ==, hash and repr never see it.
        The exact division fills the cache when it builds the distribution.
        """
        tail = vars(self).get("_tail")
        if tail is None:
            tail = tuple(map(sub, repeat(1), accumulate(self.p)))
            object.__setattr__(self, "_tail", tail)
        return tail

    @property
    def k_effective(self) -> int:
        return len(self.p) - 1

    @property
    def breakdown_detected(self) -> bool:
        return self.breakdown_index is not None


def _convolve(a: Sequence, b: Sequence) -> list:
    """The coefficients of a(z) * b(z), each a sum of products added in order of a's index."""
    out = [b[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b, start=i):
            out[k] += x * y
    return out


def g_coefficients(spec: ModelSpec, k_max: int) -> tuple:
    """Coefficient table G[i][j] of (g(z)/z)^j, 0 <= i <= k_max, 0 <= j <= n.

    Column 0 is the delta seed (1 at i = 0); each next column convolves the
    previous one with the shifted batch distribution:
    G[i][j+1] = sum_k G[k][j] * g_{i+1-k}, added to row i in order of k.
    Column j has degree j*(m-1): its later rows are left zero.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    zero = spec.g[0] * 0
    cols = [[zero + 1]]
    for j in range(1, spec.n + 1):
        cols.append(_convolve(cols[-1], spec.g)[: min(j * (spec.m - 1), k_max) + 1])
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
        d = n = 0  # both sums left to right from the int 0, as `ordered_sum` adds
        for fj, Fj, a, c in zip(f, F, prev, row):
            d = d + fj * c
            n = n + (a - c) * Fj
        D.append((1 if i == 1 else 0) - d + zero)
        N.append(n + zero)
        prev = row
    return tuple(N), tuple(D)


# Terms per statement of a division kernel: one chained expression of a few
# thousand terms overflows the compiler's recursion limit.
_TERMS_PER_LINE = 32


@lru_cache(maxsize=64)
def _division_kernel(w: int):
    """The float division loop for a window of w terms, as straight-line code.

    The registers x0..x(w-1) hold the last w values of P, oldest first,
    against the weights c0..c(w-1) = D[w], ..., D[1].  Each row is one
    chain acc - x0*c0 - x1*c1 - ..., at most _TERMS_PER_LINE terms per
    statement, then the breakdown checks, then a shift of the registers,
    one assignment each (a tuple assignment builds a w-tuple per row).
    The registers start at 0.0, so row k < w first subtracts w - k zero
    products; each leaves acc as it is unless acc is -0.0, and no row
    starts there, because b0 > 0 and the tables' sums start from +0.
    """
    x = [f"x{i}" for i in range(w)]
    c = [f"c{i}" for i in range(w)]
    terms = [f" - {a} * {b}" for a, b in zip(x, c)]
    lines = ["def kernel(rows, weights, d0, limit):"]
    if w:
        lines.append(f"    {', '.join(c)}, = weights")
        lines.append(f"    {' = '.join(x)} = 0.0")
    lines += [
        "    p = []",
        "    append = p.append",
        "    running = d0 * 0",
        "    for acc in rows:",
    ]
    for i in range(0, w, _TERMS_PER_LINE):
        lines.append(f"        acc = acc{''.join(terms[i : i + _TERMS_PER_LINE])}")
    lines += [
        "        pk = acc / d0",
        "        if pk < 0.0:",
        "            return p, running, (len(p), pk, 'negative')",
        "        total = running + pk",
        "        if total > limit:",
        "            return p, running, (len(p), pk, 'mass')",
        "        append(pk)",
        "        running = total",
    ]
    lines += [f"        {a} = {b}" for a, b in zip(x, x[1:] + ["pk"])]
    lines.append("    return p, running, ()")
    namespace = {}
    exec(compile("\n".join(lines), f"<division kernel w={w}>", "exec"), namespace)
    return namespace["kernel"]


def _divide_series(b0, N, D, k_max: int) -> QueueDistribution:
    """Float division recurrence with the breakdown scan.

    P(Q=k) = (1/D[0]) * [N[k]*b0 - sum_{i<k} P(Q=i)*D[k-i]], seeded by
    P(Q=0) = b0*N[0]/D[0], with N[k] = 0 past the end of N.  The
    convolution only needs the last w values of P, w = min(k_max, last
    nonzero index of D), so each row runs the straight-line kernel of
    `_division_kernel(w)`.  It rounds each product and subtracts them
    oldest first, as the plain convolution does, so the bits are the same.
    """
    w = len(D) - 1  # the last nonzero index of D
    while w and not D[w]:
        w -= 1
    w = min(k_max, w)
    head = [c * b0 for c in N[: k_max + 1]]
    rows = chain(head, repeat(0.0, k_max + 1 - len(head)))
    p, running, breakdown = _division_kernel(w)(rows, D[w:0:-1], D[0], 1 + MASS_EXCESS_TOL)
    return QueueDistribution(tuple(p), running, *breakdown)


def _fraction(y: int, M: int) -> Fraction:
    """y / M from integers in lowest terms, M > 0, with no gcd: Fraction's two slots are
    set as CPython 3.12's private `Fraction._from_coprime_ints` sets them."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = y, M
    return value


def _reduce_over(y: int, M: int, odd_base: int) -> Fraction:
    """The Fraction y / M, given y >= 0, M > 0 a multiple of odd_base, and M's odd primes in odd_base.

    The common power of 2 is stripped with bit operations and the odd
    primes with t = gcd(y, odd_base), which divides M and is cheap because
    odd_base is small.  Only when an odd prime of t still divides both
    (a prime repeated in y and M) does one full gcd(y, M) run.
    """
    if not y:
        return _fraction(0, 1)
    shift = min((y & -y).bit_length(), (M & -M).bit_length()) - 1
    y >>= shift
    M >>= shift
    t = gcd(y, odd_base)
    if t > 1:
        y //= t
        M //= t
        if gcd(gcd(y, t), M) > 1:
            t = gcd(y, M)
            y //= t
            M //= t
    return _fraction(y, M)


def _exact_rows(b0: Fraction, S, E, k_max: int):
    """Yield (P(Q=k), P(Q>k)) for k = 0..k_max of b0 * S(z)/E(z), E[0] != 0: the exact
    division recurrence over integers, reduced over the primes of b0 and e0.

    With S and E scaled by the lcm of their denominators to integers s_k
    and e_k, the content c = gcd(e), signed as e's first term, divided out
    of e (and folded into b0' = b0/c = num/den, so e0 > 0), and w the last
    nonzero index of e, the integers R_k = e0^(k+1) * P(Q=k) / b0' satisfy

        R_k = s_k*e0^k - sum_{j=1..w} R_{k-j} * e_j*e0^(j-1)

    (s_k = 0 past the end of S; the sum is taken by Horner's rule in e0,
    from j = min(k, w) down), and C_k = C_{k-1}*e0 + R_k carries the
    cumulative sum, so P(Q=k) = num*R_k/M and P(Q>k) = (M - num*C_k)/M
    with M = den*e0^(k+1) > 0.  Every prime of M divides den*e0, so each
    value is reduced by `_reduce_over` without a full-width gcd unless an
    odd prime of den*e0 cancels more than once.  Only the last w values
    of R are kept, so no row is held once it is yielded.
    """
    scale = lcm(*(c.denominator for c in S + E))
    s = [c.numerator * (scale // c.denominator) for c in S]
    e = [c.numerator * (scale // c.denominator) for c in E]
    content = gcd(*e) if e[0] > 0 else -gcd(*e)
    e = [c // content for c in e]
    e0 = e[0]
    w = max(i for i, c in enumerate(e) if c)
    num, den = (b0 / content).as_integer_ratio()
    base = den * e0
    odd_base = base >> ((base & -base).bit_length() - 1)
    R = deque(maxlen=w)  # R_{k-w} .. R_{k-1}
    cum = 0
    power = 1  # e0^k
    for k in range(k_max + 1):
        acc = 0
        for r, ej in zip(R, e[len(R) : 0 : -1]):
            acc = acc * e0 + r * ej
        acc = (s[k] * power if k < len(s) else 0) - acc
        R.append(acc)
        cum = cum * e0 + acc
        power *= e0
        scaled = den * power
        yield (_reduce_over(num * acc, scaled, odd_base),
               _reduce_over(scaled - num * cum, scaled, odd_base))


def _divide_exact(b0: Fraction, S, E, k_max: int) -> QueueDistribution:
    """`_exact_rows` collected into a distribution, its tail cache filled from the rows."""
    p, tail = zip(*_exact_rows(b0, S, E, k_max))
    dist = QueueDistribution(p, 1 - tail[-1])
    object.__setattr__(dist, "_tail", tail)  # cheaper than a big Fraction sum per row
    return dist


def _divide(b0, N, D, config: NumericConfig) -> QueueDistribution:
    """b0 * N(z) / D(z) to config.k_max (S and E in place of N and D from exact `_quotient`)."""
    divide = _divide_exact if config.is_exact else _divide_series
    return divide(b0, N, D, config.k_max)


def _quotient(spec: ModelSpec, config: NumericConfig) -> tuple:
    """(b0, S, E) in exact, else the paper's (b0, N, D), of a validated spec coerced and checked stable."""
    spec = coerce(spec, config.backend)
    mom = moments(spec)
    check_stable(mom.rho)
    if config.is_exact:
        return (mom.b0, *deflated_coefficients(spec))
    degree = spec.n * (spec.m - 1) + 1  # of N(z); D(z) has no higher term
    N, D = series_coefficients(spec, g_coefficients(spec, min(config.k_max, degree)))
    return mom.b0, N, D


def queue_distribution(spec: ModelSpec, config: NumericConfig = NumericConfig()) -> QueueDistribution:
    """Full queue-length distribution up to config.k_max.

    The spec must already be validated; its parameters are coerced to the
    configured backend before any arithmetic.
    """
    return _divide(*_quotient(spec, config), config)


def exact_rows(spec: ModelSpec, k_max: int):
    """An iterator over the exact rows (P(Q=k), P(Q>k)), k = 0..k_max, made as they are read.

    The rows are those of `queue_distribution` on the exact backend, but
    none is held after it is read.  The spec must already be validated.
    k_max is checked, the spec coerced and checked stable, and S and E
    built on this call, so an error is raised before the first row.
    """
    config = NumericConfig(EXACT, k_max)
    return _exact_rows(*_quotient(spec, config), k_max)


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

    with every out-of-range term zero: float64's general N and D term for
    term, and exact's S/E values; r = 1 yields the trivial distribution.  f is checked in float64
    tolerance as given (all that float64 needs) before exact mode
    renormalises it, so a vector that does not sum to 1 is rejected in either mode.
    """
    check_count(r, "batch size r", 1)
    spec = ModelSpec(tuple(f), (1,))
    checked = validate(spec)
    spec = coerce(spec, config.backend) if config.is_exact else checked
    fv = spec.f
    zero = fv[0] * 0
    one = zero + 1
    f_bar = moments(spec).f_bar
    check_stable(r * f_bar / (1 + f_bar))
    if r == 1:
        return QueueDistribution((one,) + (zero,) * config.k_max, one)
    b0 = (1 + f_bar - r * f_bar) / (1 + f_bar)
    step = r - 1
    size = min(spec.n * step + 2, config.k_max + 1)  # the terms the division reads
    N = [zero] * (size + 1)  # one spare entry for N[j * step + 1]
    D = [zero] * (size + 1)
    D[1] = one
    # only the j with j * step < size
    for j, (fj, Fj) in enumerate(zip(fv[: (size - 1) // step + 1], suffix_sums(fv))):
        D[j * step] -= fj
        N[j * step] -= Fj
        N[j * step + 1] += Fj
    return _divide(b0, N[:size], D[:size], config)


def _horner(coefficients: Sequence, z):
    """sum_i coefficients[i] * z^i by Horner's rule."""
    value = coefficients[-1]
    for c in coefficients[-2::-1]:
        value = value * z + c
    return value


def deflated_coefficients(spec: ModelSpec) -> tuple:
    """(S, E): the coefficients, from z^0 up, of S(z) = N(z)/(z - 1) and E(z) = D(z)/(z - 1).

    With h = g(z)/z, F = suffix_sums(f), T = sum_{j<n} F[j+1] h^j and c_i = sum(g[i+1:]),
    S = F[0] + h T and E = 1 - c T, so P(z) = b0 S(z)/E(z).  Horner's rule in h makes S and
    -E[1:] sums of nonnegative products in a fixed order, with no G table.  E[0] = f(g_1) by
    Horner too, as in `oracle.level_matrices`: 1 - c_0 T_0 cancels for small f[0] and g_1.
    """
    f, g = spec.f, spec.g
    F = suffix_sums(f)
    T, S = [f[0] * 0], [F[-1]]
    for v in F[-2::-1]:
        T = S
        S = _convolve(T, g)
        S[0] += v
    A = _convolve(suffix_sums(g)[1:], T)  # c(z) T(z); with m = 1, c = () and A[1:] is empty
    return tuple(S), (_horner(f, g[0]), *(-a for a in A[1:]))


def pgf_eval(spec: ModelSpec, z) -> Scalar:
    """E[z^Q] = b0 S(z)/E(z) at z in [0, 1], by Horner's rule, independent of the recurrence.

    E has no zero on [0, 1] when rho < 1; rho >= 1 raises Unstable, as queue_distribution does.
    """
    if not 0 <= z <= 1:  # also refuses NaN
        raise ValueError("z must lie in [0, 1]")
    mom = moments(spec)
    check_stable(mom.rho)
    S, E = deflated_coefficients(spec)
    return mom.b0 * _horner(S, z) / _horner(E, z)
