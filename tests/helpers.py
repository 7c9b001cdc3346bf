"""Shared model builders for unit, property, and acceptance tests.

Models are constructed rather than filtered: given raw weights and a target
utilization, the on-state mass is scaled so the resulting utilization never
exceeds the target.  The same exact-rational construction feeds both
backends, so float and rational twins describe the same model up to float
rounding of the inputs.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from onoffqueue import (
    FLOAT64,
    JointChain,
    ModelSpec,
    MomentSummary,
    NoConvergence,
    NumericConfig,
    QueueDistribution,
    RunTally,
    SimulationConfig,
    coerce,
    moments,
    validate,
)
from onoffqueue.config import ordered_sum
from onoffqueue.model import suffix_sums
from onoffqueue.oracle import DEFAULT_RESIDUAL_TOL, level_matrices, residual
from onoffqueue.series import MASS_EXCESS_TOL, deflated_coefficients
from onoffqueue.simulation import _CHUNK, _cumulative
from onoffqueue.tables import OutputTable

TABLE1_F = ("0.8", "0.1", "0.05", "0.05")
TABLE1_G = ("0.4", "0.4", "0.2")
TABLE2_F = ("0.6", "0.2", "0.1", "0.05", "0.05")
TABLE2_G = ("0.2", "0.6", "0.1", "0.1")

# sha256 of `dist <model> --backend exact --kmax <k>`: the bytes exact dist printed when every
# cell went through str(); `bench/exact_digests.json` and the no-numpy CI job pin the same.
EXACT_DIST_DIGESTS = {
    ("table1", 200): "62ce6ae65c974047a9c55d39debc0455c5861cd12f9acea0efc1b0b67dfa487d",
    ("table1", 800): "57579bfe22a4bfa19581f2e5a6482c4680ed69d47ee139a2f88dc3d35bac97e5",
    ("table2", 200): "3a7815f63b53f1b79e99ef1b11c9a6719f9c1cafdadcb68fb9b436a1bb1f521d",
    ("table2", 800): "42410177cb95577d98cc80f7b6d92d18b30abc49543249a36683968e933e5a12",
}

# Negative zeros in both vectors: a float spec taken as given keeps them.
SIGNED_ZEROS = validate(ModelSpec((0.8, -0.0, 0.1, 0.1), (-0.0, 0.75, 0.25)))


def build_model(on_weights, g_weights, rho_pct, backend=FLOAT64) -> ModelSpec:
    """Validated model with utilization at most rho_pct / 100.

    on_weights are relative weights for on-period lengths 1..n; g_weights
    for batch sizes 1..m.  The off-state probability is chosen so the
    utilization hits the target unless that would push the on mass past
    0.95, in which case the utilization lands below the target.
    """
    on_total = sum(on_weights)
    on = [Fraction(w, on_total) for w in on_weights]
    g_total = sum(g_weights)
    g = [Fraction(w, g_total) for w in g_weights]
    g_bar = sum(i * p for i, p in enumerate(g, start=1))
    mean_on = sum(i * p for i, p in enumerate(on, start=1))
    target = Fraction(rho_pct, 100)
    f_bar_needed = target / (g_bar - target)  # g_bar >= 1 > target
    s = min(f_bar_needed / mean_on, Fraction(19, 20))
    f = [1 - s] + [s * w for w in on]
    if backend == FLOAT64:
        f = [float(v) for v in f]
        g = [float(v) for v in g]
    return validate(ModelSpec(tuple(f), tuple(g)), backend)


def light_f_vector(on_weights, f_bar_pct) -> tuple:
    """Exact-rational f with mean on-period f_bar_pct / 100 (at most 0.3).

    Light enough that constant batches up to r = 4 stay stable.
    """
    if not 0 < f_bar_pct <= 30:
        raise ValueError("f_bar_pct must be in (0, 30]")
    on_total = sum(on_weights)
    on = [Fraction(w, on_total) for w in on_weights]
    mean_on = sum(i * p for i, p in enumerate(on, start=1))
    s = Fraction(f_bar_pct, 100) / mean_on
    return tuple([1 - s] + [s * w for w in on])


def random_models(rng, count, n_max=6, m_max=5, rho_max_pct=85, backend=FLOAT64):
    """Deterministic batch of validated models from a seeded numpy generator."""
    out = []
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        on_w = [int(w) for w in rng.integers(1, 1000, size=n)]
        g_w = [int(w) for w in rng.integers(1, 1000, size=m)]
        rho_pct = int(rng.integers(5, rho_max_pct + 1))
        out.append(build_model(on_w, g_w, rho_pct, backend=backend))
    return out


@st.composite
def model_specs(draw, n_max=6, m_max=5, rho_max_pct=90, backend=FLOAT64):
    n = draw(st.integers(1, n_max))
    m = draw(st.integers(1, m_max))
    on_w = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    g_w = draw(st.lists(st.integers(1, 1000), min_size=m, max_size=m))
    rho_pct = draw(st.integers(5, rho_max_pct))
    return build_model(on_w, g_w, rho_pct, backend=backend)


@st.composite
def light_f_vectors(draw, n_max=5):
    n = draw(st.integers(1, n_max))
    on_w = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    f_bar_pct = draw(st.integers(2, 30))
    return light_f_vector(on_w, f_bar_pct)


def reference_moments(spec: ModelSpec) -> MomentSummary:
    """`moments` as four left-to-right folds over the spec, computed afresh on every call."""
    f_bar = ordered_sum(i * p for i, p in enumerate(spec.f))
    f2_bar = ordered_sum(i * i * p for i, p in enumerate(spec.f))
    g_bar = ordered_sum(i * p for i, p in enumerate(spec.g, start=1))
    g2_bar = ordered_sum(i * i * p for i, p in enumerate(spec.g, start=1))
    rho = g_bar * f_bar / (1 + f_bar)
    return MomentSummary(f_bar, f2_bar, g_bar, g2_bar, rho, rho, 1 / (1 + f_bar), 1 - rho)


def reference_tables(spec: ModelSpec, k_max: int) -> tuple:
    """The tables (G, N, D) of `series` built one term at a time, rows 0..k_max.

    The straightforward form of `g_coefficients` and `series_coefficients`:
    every cell of G[i][j+1] = sum_k G[k][j] * g_{i+1-k} summed in order of
    k from zero, then one generator-expression `ordered_sum()` per
    coefficient of D[i] = delta_{i-1} - sum_j f[j] * G[i][j] and
    N[i] = sum_j (G[i-1][j] - G[i][j]) * F[j].  Their results must match
    exactly (bitwise in float mode, on every interpreter: the builtin
    sum() of floats is compensated from Python 3.12).
    """
    n, m = spec.n, spec.m
    g = spec.g
    zero = g[0] * 0
    G = [[zero] * (n + 1) for _ in range(k_max + 1)]
    G[0][0] = zero + 1
    for j in range(n):
        for i in range(k_max + 1):
            acc = zero
            for k in range(max(0, i + 1 - m), i + 1):
                acc += G[k][j] * g[i - k]
            G[i][j + 1] = acc
    f = spec.f
    F = suffix_sums(f)
    zero = f[0] * 0
    N = []
    D = []
    prev = (zero,) * len(F)
    for i, row in enumerate(G):
        d = (1 if i == 1 else 0) - ordered_sum(p * c for p, c in zip(f, row))
        D.append(d + zero)
        N.append(ordered_sum((a - c) * s for a, c, s in zip(prev, row, F)) + zero)
        prev = row
    return tuple(tuple(row) for row in G), tuple(N), tuple(D)


def reference_divide(b0, N, D, k_max: int) -> QueueDistribution:
    """b0 * N(z) / D(z) to k_max by the plain windowed convolution.

    P(Q=k) = (1/D[0]) * [N[k]*b0 - sum_{i<k} P(Q=i)*D[k-i]], with N[k] = 0
    past the end of N and the sum over the last w values of P, w the last
    nonzero index of D (0 when there is none), oldest first.  One Fraction
    (or float) operation per term, and in float mode the breakdown scan.
    """
    d0 = D[0]
    zero = d0 * 0
    is_float = isinstance(d0, float)
    window = 0
    for i in range(1, len(D)):
        if D[i] != zero:
            window = i
    p = []
    running = zero
    breakdown = (None, None, None)
    for k in range(k_max + 1):
        acc = N[k] * b0 if k < len(N) else type(d0)(0)
        for i in range(max(0, k - window), k):
            acc -= p[i] * D[k - i]
        pk = acc / d0
        if is_float:
            if pk < 0:
                breakdown = (k, pk, "negative")
                break
            if running + pk > 1 + MASS_EXCESS_TOL:
                breakdown = (k, pk, "mass")
                break
        p.append(pk)
        running = running + pk
    tail = []
    cum = zero
    for v in p:
        cum = cum + v
        tail.append(1 - cum)
    dist = QueueDistribution(tuple(p), running, *breakdown)
    # the reference's own tail in the property's cache, so that a check of `tail`
    # never compares the property with itself
    object.__setattr__(dist, "_tail", tuple(tail))
    return dist


def reference_distribution(spec: ModelSpec, config: NumericConfig) -> QueueDistribution:
    """The division recurrence on full k_max-row tables, in the backend's own numbers.

    `reference_divide` on the tables of `reference_tables`.  This is the
    straightforward form of what `queue_distribution` computes with
    degree-bounded tables, a straight-line float kernel and integer-only
    exact arithmetic, and its results must match exactly (bitwise in float
    mode).
    """
    spec = coerce(spec, config.backend)
    _, N, D = reference_tables(spec, config.k_max)
    return reference_divide(moments(spec).b0, N, D, config.k_max)


def _complex_at(coeffs, z: complex) -> complex:
    """sum_j coeffs[j] z^j for Fraction coeffs, exact at the float point z, then rounded."""
    re, im = Fraction(z.real), Fraction(z.imag)
    a = b = Fraction(0)
    for c in reversed(coeffs):
        a, b = a * re - b * im + c, a * im + b * re
    return complex(float(a), float(b))


def roots_distribution(spec: ModelSpec, k_max: int) -> tuple:
    """(k_first, p): P(Q = k) for k = k_first .. k_max by the roots method.

    With S and E from `series.deflated_coefficients`, P(z) = b0 S(z)/E(z), and
    b0 = E(1)/S(1) since P(1) = 1.  If the zeros z_i of E are simple, then
    for k > deg S - deg E (that is, from k_first)
      p_k = -Re sum_i R_i z_i^(-k-1), R_i = b0 S(z_i)/E'(z_i).
    The zeros come from `np.roots` and take three Newton steps on E, whose
    value is taken exactly at each float iterate.  Asserts that the zeros
    are simple: no two closer than 1e-6 times the largest modulus.
    """
    S, E = deflated_coefficients(spec)
    dE = [j * c for j, c in enumerate(E)][1:]
    zeros = [complex(z) for z in np.roots([float(c) for c in reversed(E)])]
    for _ in range(3):
        zeros = [z - _complex_at(E, z) / _complex_at(dE, z) for z in zeros]
    z = np.array(zeros)
    gaps = np.abs(z[:, None] - z)
    np.fill_diagonal(gaps, np.inf)
    assert np.all(gaps > 1e-6 * np.abs(z).max(initial=0.0)), "E has a repeated zero"
    b0 = float(sum(E) / sum(S))
    residues = np.array([b0 * _complex_at(S, v) / _complex_at(dE, v) for v in zeros])
    k_first = len(S) - len(E) + 1
    k = np.arange(k_first, k_max + 1)
    return k_first, -(residues[:, None] / z[:, None] ** (k + 1)).sum(axis=0).real


def reference_run(spec: ModelSpec, config: SimulationConfig, run_index: int) -> RunTally:
    """One run of the chain and queue, replayed slot by slot.

    The straightforward form of `simulate_run`'s block computation, from
    the same two streams: the batch stream gives one uniform per slot, in
    the same blocks, and the on-period stream one uniform at each off slot,
    when the off slot is reached.  Each uniform that is used takes one
    `bisect_right`.  Its tallies must match exactly.
    """
    f_cum = _cumulative(spec.f)
    g_cum = _cumulative(spec.g)
    on_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(run_index, 0)))
    )
    batch_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(run_index, 1)))
    )
    bis = bisect_right
    k_cap = config.k_max
    x = 0
    q = 0
    for start, stop in ((0, config.burn_in), (config.burn_in, config.iterations)):
        counts = [0] * (k_cap + 1)
        lumped = 0
        queue_sum = 0
        batch_sums = []
        done = start
        while done < stop:
            block = batch_rng.random(min(_CHUNK, stop - done)).tolist()
            done += len(block)
            block_start = queue_sum
            for u in block:
                queue_sum += q
                if q <= k_cap:
                    counts[q] += 1
                else:
                    lumped += 1
                if x:
                    q += bis(g_cum, u)  # bisect index equals batch size - 1
                    x -= 1
                else:
                    if q:
                        q -= 1
                    x = bis(f_cum, on_rng.random())
            if len(block) == _CHUNK:
                batch_sums.append(queue_sum - block_start)
    return RunTally(
        run_index=run_index,
        counts=tuple(counts),
        lumped=lumped,
        queue_sum=queue_sum,
        steps=config.iterations - config.burn_in,
        batch_sums=tuple(batch_sums),
    )


def transition_matrix(spec: ModelSpec) -> tuple:
    """Row-stochastic transition matrix of the on/off chain.

    Row 0 is f; row i (i >= 1) steps deterministically down to state i - 1.
    """
    n = spec.n
    zero = spec.f[0] * 0
    one = zero + 1
    rows = [tuple(spec.f)]
    for i in range(1, n + 1):
        rows.append(tuple(one if j == i - 1 else zero for j in range(n + 1)))
    return tuple(rows)


def joint_states(chain: JointChain) -> tuple:
    """Enumeration of (x, q) pairs in state-index order."""
    width = chain.q_cap + 1
    return tuple((s // width, s % width) for s in range(chain.num_states))


def state_marginal(chain: JointChain, pi: np.ndarray) -> np.ndarray:
    """P(X=x) for x = 0..n from the joint stationary vector."""
    return pi.reshape(chain.n + 1, chain.q_cap + 1).sum(axis=1)


def power_stationary(chain: JointChain, tol: float, max_iterations: int) -> np.ndarray:
    """Stationary vector of the joint kernel by power iteration from uniform.

    The independent check on `joint_stationary`'s direct solve: iterates
    pi <- P^T pi, renormalising and testing the max-norm residual every 50
    steps, and raises NoConvergence if it stays above tol.
    """
    kernel_t = reference_kernel(chain).T.tocsr()
    size = kernel_t.shape[0]
    pi = np.full(size, 1.0 / size)
    done = 0
    while done < max_iterations:
        burst = min(50, max_iterations - done)
        for _ in range(burst):
            pi = kernel_t @ pi
        pi = pi / pi.sum()
        done += burst
        if residual(chain, pi) <= tol:
            return pi
    raise NoConvergence(residual(chain, pi))


def sparse_stationary(chain: JointChain) -> np.ndarray:
    """Stationary vector of the joint kernel by one general sparse LU solve.

    The reference for `joint_stationary`'s level recursion, which shares
    only the pin: the system (P^T - I) with the balance row of the idle
    state (0, 0) replaced by pi[(0, 0)] = 1, in the chain's own x-major
    order, solved directly, then normalised.
    """
    kernel = reference_kernel(chain).tocoo()
    size = kernel.shape[0]
    idle = 0  # state (0, 0)
    keep = kernel.col != idle  # kernel column idle is balance row idle
    others = np.delete(np.arange(size), idle)
    rows = np.concatenate((kernel.col[keep], others, [idle]))
    cols = np.concatenate((kernel.row[keep], others, [idle]))
    vals = np.concatenate((kernel.data[keep], np.full(size - 1, -1.0), [1.0]))
    pinned = sp.csc_matrix((vals, (rows, cols)), shape=(size, size))
    rhs = np.zeros(size)
    rhs[idle] = 1.0
    pi = spsolve(pinned, rhs)
    return pi / pi.sum()


def level_stationary(chain: JointChain) -> np.ndarray:
    """`joint_stationary` with one `level_matrices` product per level.

    The straightforward form of its block recursion: each level's n + 1
    entries from the (m - 1)(n + 1) below them, then the same
    normalisation and checks.  The sums run in another order, so the two
    agree to rounding, not bitwise.
    """
    n, q_cap = chain.n, chain.q_cap
    first, step, top = level_matrices(chain.f, chain.g)
    width = n + 1
    pad = step.shape[0]  # the m - 1 levels below level 0, all zero
    # one slot past level q_cap for pi(0, q_cap + 1), which stays 0
    pi = np.zeros(pad + (q_cap + 1) * width + 1)
    pi[pad] = 1.0
    pi[pad + 1:pad + width + 1] = first
    for q in range(1, q_cap + 1):
        start = pad + q * width
        np.dot(pi[start - pad:start], step if q < q_cap else top,
               out=pi[start + 1:start + width + 1])
    pi = pi[pad:-1].reshape(q_cap + 1, width).T.ravel()
    pi /= pi.sum()
    gap = residual(chain, pi)
    if not (np.isfinite(pi).all() and gap <= DEFAULT_RESIDUAL_TOL):
        raise NoConvergence(gap)
    return pi


def exact_level_matrices(f, g) -> tuple:
    """(first, step, top) of `level_matrices` in Fractions, from its docstring's formulas.

    f and g are taken exactly, as Fractions of the given numbers.  Each row
    of step and top is the image of one unit entry of the window of levels
    q - m + 1 .. q - 1 (entry j (n + 1) + z is pi(z, q - m + 1 + j)), read
    off the formulas one state at a time; f(g_1) is the plain sum
    f[0] + f[1] g_1 + ... + f[n] g_1^n.
    """
    f = [Fraction(v) for v in f]
    g = [Fraction(v) for v in g]
    n, m = len(f) - 1, len(g)
    g1 = g[0]

    def G(k):  # P(Y >= k)
        return sum(g[k - 1:], Fraction(0))

    f_g1 = sum((v * g1**k for k, v in enumerate(f)), Fraction(0))
    a = [Fraction(0)] * (n + 2)
    for x in range(n, 0, -1):
        a[x] = f[x] + g1 * a[x + 1]
    first = [a[x] / f_g1 for x in range(1, n + 1)] + [G(2) * sum(a[1:]) / f_g1]

    def level_above(window, q):
        """pi(1, q) .. pi(n, q), pi(0, q + 1) from pi(z, l) = window[l][z]."""
        b = [Fraction(0)] * (n + 2)
        for x in range(n, 0, -1):
            b[x] = g1 * b[x + 1] + sum(
                (g[y - 1] * window[q + 1 - y][x + 1] for y in range(2, m + 1)), Fraction(0)
            )
        cut = sum((sum(window[l][1:], Fraction(0)) * G(q + 2 - l)
                   for l in range(q + 2 - m, q)), Fraction(0))
        off = (cut + G(2) * sum(b[1:])) / f_g1
        return [off * a[x] + b[x] for x in range(1, n + 1)] + [off]

    def top_level(window, q):
        """pi(1, q) .. pi(n, q) at q = q_cap, and 0 for the missing pi(0, q + 1)."""
        p = [Fraction(0)] * (n + 2)
        for x in range(n - 1, 0, -1):
            p[x] = p[x + 1] + sum((window[l][x + 1] * G(q + 1 - l)
                                   for l in range(q + 1 - m, q)), Fraction(0))
        return p[1:n + 1] + [Fraction(0)]

    def images(level):
        q = m - 1  # any level: the formulas depend on q only through l - q
        rows = []
        for j in range(m - 1):
            for z in range(n + 1):
                window = {l: [Fraction(0)] * (n + 2) for l in range(q - m + 1, q)}
                window[q - m + 1 + j][z] = Fraction(1)
                rows.append(level(window, q))
        return np.array(rows, dtype=object).reshape(len(rows), n + 1)

    return np.array(first, dtype=object), images(level_above), images(top_level)


def reference_kernel(chain: JointChain) -> sp.csr_matrix:
    """The joint-chain kernel built entry by entry with Python loops.

    The straightforward form of `JointChain.kernel`'s index arithmetic: the
    same (row, col, val) entries in the same order, so the CSR conversion
    sums duplicates in the same order and the arrays must match bytewise.
    State (x, q) is row x * (q_cap + 1) + q.
    """
    f = chain.f.tolist()
    g = chain.g.tolist()
    n, m, q_cap = chain.n, len(g), chain.q_cap
    width = q_cap + 1
    rows, cols, vals = [], [], []
    # off rows: no arrival, queue decrements, next state sampled from f
    for q in range(width):
        q_next = max(q - 1, 0)
        for x_next in range(n + 1):
            rows.append(q)
            cols.append(x_next * width + q_next)
            vals.append(f[x_next])
    # on rows: countdown to x - 1, batch of size y arrives
    for x in range(1, n + 1):
        for q in range(width):
            for y in range(1, m + 1):
                rows.append(x * width + q)
                cols.append((x - 1) * width + min(q + y - 1, q_cap))
                vals.append(g[y - 1])
    size = (n + 1) * width
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()


def parse_csv(text: str) -> OutputTable:
    """The table that `tables.render_csv` printed as text, its cells kept as text."""
    lines = [line for line in text.split("\n") if line != ""]
    if not lines:
        raise ValueError("empty table")
    table = OutputTable(columns=tuple(lines[0].split(",")))
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            table.add_footer(key, value)
        else:
            row = tuple(line.split(","))
            if len(row) != len(table.columns):
                raise ValueError("row width does not match the header")
            table.rows.append(row)
    return table


def reference_render_csv(table: OutputTable) -> str:
    """`tables.render_csv` as one string per line, then their join plus a newline."""
    lines = [",".join(table.columns)]
    lines.extend(",".join(row) for row in table.rows)
    lines.extend(f"# {key}={value}" for key, value in table.footer)
    return "\n".join(lines) + "\n"


def reference_render_structured(table: OutputTable) -> str:
    """The join of `tables.structured_chunks` through `json.dumps`, then a newline."""
    payload = {
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
        "metadata": {key: value for key, value in table.footer},
    }
    return json.dumps(payload, indent=2) + "\n"
