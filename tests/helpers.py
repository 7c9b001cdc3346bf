"""Shared model builders for unit, property, and acceptance tests.

Models are constructed rather than filtered: given raw weights and a target
utilization, the on-state mass is scaled so the resulting utilization never
exceeds the target.  The same exact-rational construction feeds both
backends, so float and rational twins describe the same model up to float
rounding of the inputs.
"""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
import numpy as np

from onoffqueue import (
    FLOAT64,
    JointChain,
    ModelSpec,
    NoConvergence,
    NumericConfig,
    QueueDistribution,
    coerce,
    g_coefficients,
    moments,
    series_coefficients,
    validate,
)
from onoffqueue.oracle import residual
from onoffqueue.series import MASS_EXCESS_TOL

TABLE1_F = ("0.8", "0.1", "0.05", "0.05")
TABLE1_G = ("0.4", "0.4", "0.2")
TABLE2_F = ("0.6", "0.2", "0.1", "0.05", "0.05")
TABLE2_G = ("0.2", "0.6", "0.1", "0.1")


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
    return validate(ModelSpec(tuple(f), tuple(g)), NumericConfig(backend=backend))


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


def reference_distribution(spec: ModelSpec, config: NumericConfig) -> QueueDistribution:
    """The division recurrence on full k_max-row tables, in the backend's own numbers.

    P(Q=k) = (1/D[0]) * [N[k]*b0 - sum_{i<k} P(Q=i)*D[k-i]], with one
    Fraction (or float) operation per term and the float breakdown scan.
    This is the straightforward form of what `queue_distribution` computes
    with degree-bounded tables and integer-only exact arithmetic, and its
    results must match exactly (bitwise in float mode).
    """
    spec = coerce(spec, config.backend)
    b0 = moments(spec).b0
    N, D = series_coefficients(spec, g_coefficients(spec, config.k_max))
    d0 = D[0]
    zero = d0 * 0
    window = 1
    for i in range(1, len(D)):
        if D[i] != zero:
            window = i
    p = []
    running = zero
    breakdown = (None, None, None)
    for k in range(config.k_max + 1):
        acc = N[k] * b0
        for i in range(max(0, k - window), k):
            acc -= p[i] * D[k - i]
        pk = acc / d0
        if not config.is_exact:
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
    return QueueDistribution(
        p=tuple(p),
        k_effective=len(p) - 1,
        breakdown_detected=breakdown[0] is not None,
        breakdown_index=breakdown[0],
        breakdown_value=breakdown[1],
        breakdown_reason=breakdown[2],
        mass_accounted=running,
        tail=tuple(tail),
    )


def power_stationary(chain: JointChain, tol: float, max_iterations: int) -> np.ndarray:
    """Stationary vector of the joint kernel by power iteration from uniform.

    The independent check on `joint_stationary`'s direct solve: iterates
    pi <- P^T pi, renormalising and testing the max-norm residual every 50
    steps, and raises NoConvergence if it stays above tol.
    """
    kernel_t = chain.kernel.T.tocsr()
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
