"""Brute-force verifier: exact stationary solve of the joint (chain, queue) chain.

Builds the product Markov chain over pairs (x, q) with the queue truncated
at q_cap (excess mass lumped into the boundary row so the kernel stays
stochastic and the truncation error stays observable), solves for its
stationary vector, and reads off P(Q=k) and E[Q] without touching any
generating-function machinery.  Deliberately independent of the analytic
and series modules; only the model definition is shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .errors import CapTooSmall, NoConvergence, TruncationBias
from .model import ModelSpec

DEFAULT_RESIDUAL_TOL = 1e-13
DEFAULT_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class JointChain:
    """Truncated joint chain over states (x, q), row-stochastic kernel."""

    q_cap: int
    n: int
    kernel: sp.csr_matrix

    @property
    def num_states(self) -> int:
        return (self.n + 1) * (self.q_cap + 1)

    def state_index(self, x: int, q: int) -> int:
        return x * (self.q_cap + 1) + q

    @property
    def states(self) -> tuple:
        """Enumeration of (x, q) pairs in state-index order."""
        width = self.q_cap + 1
        return tuple((s // width, s % width) for s in range(self.num_states))


def build_joint_chain(spec: ModelSpec, q_cap: int) -> JointChain:
    """Product chain of the on/off state with the truncated queue.

    From (x, q): arrivals y are 0 when x = 0 and batch-distributed when
    x > 0; the next queue is min(max(q + y - 1, 0), q_cap); the next chain
    state is drawn from f when x = 0 and is x - 1 otherwise.
    """
    f = np.array([float(v) for v in spec.f])
    g = np.array([float(v) for v in spec.g])
    n, m = spec.n, spec.m
    if q_cap < m:
        raise CapTooSmall(f"q_cap = {q_cap} must be at least the largest batch m = {m}")
    width = q_cap + 1
    rows, cols, vals = [], [], []
    # off rows: no arrival, queue decrements, next state sampled from f
    for q in range(width):
        src = q  # x = 0
        q_next = max(q - 1, 0)
        for x_next in range(n + 1):
            rows.append(src)
            cols.append(x_next * width + q_next)
            vals.append(f[x_next])
    # on rows: countdown to x - 1, batch of size y arrives
    for x in range(1, n + 1):
        for q in range(width):
            src = x * width + q
            for y in range(1, m + 1):
                q_next = min(q + y - 1, q_cap)
                rows.append(src)
                cols.append((x - 1) * width + q_next)
                vals.append(g[y - 1])
    size = (n + 1) * width
    kernel = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    return JointChain(q_cap=q_cap, n=n, kernel=kernel)


def residual(chain: JointChain, pi: np.ndarray) -> float:
    """Max-norm balance residual |P^T pi - pi| of a candidate stationary vector."""
    return float(np.max(np.abs(chain.kernel.T @ pi - pi)))


def joint_stationary(chain: JointChain) -> np.ndarray:
    """Stationary vector of the joint kernel, to max-norm residual <= DEFAULT_RESIDUAL_TOL.

    Solves (P^T - I) pi = 0 with the balance row of the idle state (0, 0)
    replaced by pi[(0, 0)] = 1, then normalises.  The pinned system is
    nonsingular: the idle state has probability b0 = 1 - rho > 0, and the
    other balance rows have rank size - 1.  Unlike a normalisation row of
    ones, the pin adds no dense row for the LU factors to fill in from, and
    small tail probabilities keep their relative accuracy.
    """
    kernel = chain.kernel.tocoo()
    size = kernel.shape[0]
    idle = chain.state_index(0, 0)
    keep = kernel.col != idle  # kernel column idle is balance row idle
    others = np.delete(np.arange(size), idle)
    rows = np.concatenate((kernel.col[keep], others, [idle]))
    cols = np.concatenate((kernel.row[keep], others, [idle]))
    vals = np.concatenate((kernel.data[keep], np.full(size - 1, -1.0), [1.0]))
    pinned = sp.csc_matrix((vals, (rows, cols)), shape=(size, size))
    rhs = np.zeros(size)
    rhs[idle] = 1.0
    pi = spsolve(pinned, rhs)
    pi = pi / pi.sum()
    gap = residual(chain, pi)
    if not (np.isfinite(pi).all() and gap <= DEFAULT_RESIDUAL_TOL):
        raise NoConvergence(gap)
    return pi


def queue_marginal(chain: JointChain, pi: np.ndarray) -> np.ndarray:
    """P(Q=q) for q = 0..q_cap from the joint stationary vector."""
    return pi.reshape(chain.n + 1, chain.q_cap + 1).sum(axis=0)


def state_marginal(chain: JointChain, pi: np.ndarray) -> np.ndarray:
    """P(X=x) for x = 0..n from the joint stationary vector."""
    return pi.reshape(chain.n + 1, chain.q_cap + 1).sum(axis=1)


def oracle_expected_queue(pi: np.ndarray, q_cap: int) -> float:
    """E[Q] over the truncated support; flags truncation bias.

    Raises TruncationBias when the lumped mass at q = q_cap exceeds
    DEFAULT_BOUNDARY_TOL, since the truncated mean would then understate
    the tail.
    """
    marginal = pi.reshape(-1, q_cap + 1).sum(axis=0)
    boundary = float(marginal[-1])
    if boundary > DEFAULT_BOUNDARY_TOL:
        raise TruncationBias(boundary, DEFAULT_BOUNDARY_TOL)
    return float(np.arange(q_cap + 1) @ marginal)
