"""Brute-force verifier: exact stationary solve of the joint (chain, queue) chain.

Builds the product Markov chain over pairs (x, q) with the queue truncated
at q_cap (excess mass lumped into the boundary row so the kernel stays
stochastic and the truncation error stays observable), solves for its
stationary vector, and reads off P(Q=k) and E[Q] without touching any
generating-function machinery.  Deliberately independent of the analytic
and series modules; only the model definition is shared.

The queue falls by at most 1 per slot and rises by at most m - 1, so with
the states ordered by queue level first (q-major) the balance matrix is
banded, and the stationary vector comes from one band LU solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded

from .config import check_size
from .errors import CapTooSmall, NoConvergence, TruncationBias
from .model import ModelSpec

DEFAULT_RESIDUAL_TOL = 1e-13
DEFAULT_BOUNDARY_TOL = 1e-9
# The most entries one chain may store.  (m + 1)(n + 1)^2(q_cap + 1) bounds
# both the band of the pinned solve, m(n + 1) diagonals (2(n + 1) for m = 1)
# of (n + 1)(q_cap + 1) states, and the kernel's entries; 2**25 float64
# entries take 256 MiB.
MAX_ENTRIES = 2**25


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


def build_joint_chain(spec: ModelSpec, q_cap: int) -> JointChain:
    """Product chain of the on/off state with the truncated queue.

    From (x, q): arrivals y are 0 when x = 0 and batch-distributed when
    x > 0; the next queue is min(max(q + y - 1, 0), q_cap); the next chain
    state is drawn from f when x = 0 and is x - 1 otherwise.  A q_cap whose
    storage would pass MAX_ENTRIES raises ValueError before anything is
    allocated.
    """
    check_size(q_cap, "q_cap")
    n, m = spec.n, spec.m
    largest = MAX_ENTRIES // ((m + 1) * (n + 1) ** 2) - 1
    if q_cap > largest:
        raise ValueError(
            f"q_cap must be at most {largest} for n = {n}, m = {m}: the chain stores up to "
            f"(m + 1)(n + 1)^2(q_cap + 1) entries, at most {MAX_ENTRIES}"
        )
    f = np.array([float(v) for v in spec.f])
    g = np.array([float(v) for v in spec.g])
    if q_cap < m:
        raise CapTooSmall(f"q_cap = {q_cap} must be at least the largest batch m = {m}")
    width = q_cap + 1
    # Entries go in (q, x_next) then (x, q, y) order, the order in which the
    # CSR conversion sums the duplicates that q_cap lumps together.
    # off rows (x = 0): no arrival, queue decrements, next state sampled from f
    q, x_next = np.meshgrid(np.arange(width), np.arange(n + 1), indexing="ij")
    off = (q, x_next * width + np.maximum(q - 1, 0), f[x_next])
    # on rows: countdown to x - 1, batch of size y arrives
    x, q, y = np.meshgrid(
        np.arange(1, n + 1), np.arange(width), np.arange(1, m + 1), indexing="ij"
    )
    on = (x * width + q, (x - 1) * width + np.minimum(q + y - 1, q_cap), g[y - 1])
    rows, cols, vals = (np.concatenate((a.ravel(), b.ravel())) for a, b in zip(off, on))
    size = (n + 1) * width
    kernel = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    return JointChain(q_cap=q_cap, n=n, kernel=kernel)


def residual(chain: JointChain, pi: np.ndarray) -> float:
    """Max-norm balance residual |P^T pi - pi| of a candidate stationary vector."""
    return float(np.max(np.abs(chain.kernel.T @ pi - pi)))


def pinned_band(chain: JointChain) -> tuple:
    """((lower, upper), ab): the pinned balance system in q-major band storage.

    The system is (P^T - I) with the balance row of the idle state (0, 0)
    replaced by pi[(0, 0)] = 1, its states ordered by q * (n + 1) + x, and
    ab[upper + i - j, j] holding entry (i, j) as `solve_banded` takes it.
    The widths are read off the entries: (m - 1)(n + 1) - 1 below and
    n + 1 above the diagonal for m >= 2.
    """
    kernel = chain.kernel.tocoo()
    size = kernel.shape[0]
    # qmajor[x * (q_cap + 1) + q] = q * (n + 1) + x
    qmajor = np.arange(size).reshape(chain.q_cap + 1, chain.n + 1).T.ravel()
    rows, cols = qmajor[kernel.col], qmajor[kernel.row]  # balance row i is kernel column i
    lower = int(max(0, (rows - cols).max()))
    upper = int(max(0, (cols - rows).max()))
    ab = np.zeros((lower + upper + 1, size))
    ab[upper + rows - cols, cols] = kernel.data  # the CSR kernel holds no duplicates
    ab[upper] -= 1.0
    first = np.arange(upper + 1)  # row 0 is the idle state
    ab[upper - first, first] = 0.0
    ab[upper, 0] = 1.0
    return (lower, upper), ab


def joint_stationary(chain: JointChain) -> np.ndarray:
    """Stationary vector of the joint kernel, to max-norm residual <= DEFAULT_RESIDUAL_TOL.

    Solves the `pinned_band` system, (P^T - I) pi = 0 with the balance row
    of the idle state (0, 0) replaced by pi[(0, 0)] = 1, then returns the
    vector to the chain's x-major order and normalises.  The pinned system
    is nonsingular: the idle state has probability b0 = 1 - rho > 0, and
    the other balance rows have rank size - 1.  Unlike a normalisation row
    of ones, the pin keeps the matrix banded, and small tail probabilities
    keep their relative accuracy.
    """
    widths, ab = pinned_band(chain)
    rhs = np.zeros(ab.shape[1])
    rhs[0] = 1.0
    pi = solve_banded(widths, ab, rhs, overwrite_ab=True, overwrite_b=True)
    pi = pi.reshape(chain.q_cap + 1, chain.n + 1).T.ravel()
    pi = pi / pi.sum()
    gap = residual(chain, pi)
    if not (np.isfinite(pi).all() and gap <= DEFAULT_RESIDUAL_TOL):
        raise NoConvergence(gap)
    return pi


def queue_marginal(chain: JointChain, pi: np.ndarray) -> np.ndarray:
    """P(Q=q) for q = 0..q_cap from the joint stationary vector."""
    return pi.reshape(chain.n + 1, chain.q_cap + 1).sum(axis=0)


def oracle_expected_queue(marginal: np.ndarray) -> float:
    """E[Q] from the `queue_marginal` P(Q=q) for q = 0..len(marginal) - 1.

    Raises TruncationBias when the mass lumped at the cap, the last q, exceeds
    DEFAULT_BOUNDARY_TOL, since the truncated mean would then understate the tail.
    """
    boundary = float(marginal[-1])
    if boundary > DEFAULT_BOUNDARY_TOL:
        raise TruncationBias(boundary, DEFAULT_BOUNDARY_TOL)
    return float(np.arange(len(marginal)) @ marginal)
