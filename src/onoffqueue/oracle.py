"""Brute-force verifier: exact stationary solve of the joint (chain, queue) chain.

The product Markov chain over pairs (x, q), with the queue truncated at
q_cap (excess mass lumped into the boundary level so the kernel stays
stochastic and the truncation error stays observable), is held as
(q_cap, f, g): no transition is stored.  Its stationary vector gives P(Q=k)
and E[Q] without touching any generating-function machinery.  Deliberately
independent of the analytic and series modules; only the model is shared.

The queue falls only from the off state, so the flow across the cut
between levels q and q + 1 fixes pi(0, q + 1) from the levels at and below
q, and the on phases of level q follow (the subtraction-free forward
recursion for M/G/1-type chains, Ramaswami 1988).  From pi(0, 0) = 1 it
adds and multiplies nonnegative numbers only, so small tail probabilities
keep their relative accuracy; each block of up to 64 levels is one product
with a fixed matrix (`block_map`).  The solve and `residual` need numpy
alone; `JointChain.kernel`, the kernel as a scipy matrix, is for checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import is_integer
from .errors import NoConvergence, TruncationBias
from .model import ModelSpec

DEFAULT_RESIDUAL_TOL = 1e-13
DEFAULT_BOUNDARY_TOL = 1e-9
MAX_STATES = 2**23  # (n + 1)(q_cap + 1); the solve holds a few 64 MiB arrays, within 1 GiB
BLOCK_ENTRIES = 4096  # the most entries of one `block_map`, 32 KiB of float64


@dataclass(frozen=True, eq=False)
class JointChain:
    """Truncated joint chain over states (x, q), state index x * (q_cap + 1) + q.

    f and g are the model's vectors as float64, g[y - 1] = P(Y = y).  No
    transition is stored: the solve and `residual` read f and g alone.
    """

    q_cap: int
    f: np.ndarray
    g: np.ndarray

    @property
    def n(self) -> int:
        return len(self.f) - 1

    @property
    def num_states(self) -> int:
        return (self.n + 1) * (self.q_cap + 1)

    def state_index(self, x: int, q: int) -> int:
        return x * (self.q_cap + 1) + q

    @property
    def kernel_nnz(self) -> int:
        """The kernel's positive entries, counted from f and g.

        An off state has one per positive f[x].  An on state has one per positive
        g_y with q + y - 1 < q_cap, at q_cap + 1 - y of its q, and one at q_cap
        when the largest such y reaches it, at y of its q.
        """
        sizes = np.flatnonzero(self.g > 0) + 1
        on = int(np.sum(self.q_cap + 1 - sizes)) + int(sizes[-1])
        return int(np.count_nonzero(self.f > 0)) * (self.q_cap + 1) + self.n * on

    @cached_property
    def kernel(self):
        """The row-stochastic kernel as a scipy CSR matrix, built on first read.

        For checks only: neither the solve nor `residual` reads it.  scipy
        comes with the `test` extra; without it this raises ImportError.
        """
        import scipy.sparse as sp

        n, m, q_cap, width = self.n, len(self.g), self.q_cap, self.q_cap + 1
        # Entries go in (q, x_next) then (x, q, y) order, the order in which the
        # CSR conversion sums the duplicates that q_cap lumps together.
        # off rows (x = 0): no arrival, queue decrements, next state sampled from f
        q, x_next = np.meshgrid(np.arange(width), np.arange(n + 1), indexing="ij")
        off = (q, x_next * width + np.maximum(q - 1, 0), self.f[x_next])
        # on rows: countdown to x - 1, batch of size y arrives
        x, q, y = np.meshgrid(np.arange(1, n + 1), np.arange(width), np.arange(1, m + 1),
                              indexing="ij")
        on = (x * width + q, (x - 1) * width + np.minimum(q + y - 1, q_cap), self.g[y - 1])
        rows, cols, vals = (np.concatenate((a.ravel(), b.ravel())) for a, b in zip(off, on))
        return sp.coo_matrix((vals, (rows, cols)), shape=(self.num_states,) * 2).tocsr()


def build_joint_chain(spec: ModelSpec, q_cap: int) -> JointChain:
    """Product chain of the on/off state with the truncated queue.

    From (x, q): arrivals y are 0 when x = 0 and batch-distributed when
    x > 0; the next queue is min(max(q + y - 1, 0), q_cap); the next chain
    state is drawn from f when x = 0 and is x - 1 otherwise.  q_cap must be
    an integer from m, so that one batch fits, to the largest whose chain has
    at most MAX_STATES states; any other raises ValueError before allocating.
    """
    n, m = spec.n, spec.m
    largest = MAX_STATES // (n + 1) - 1
    if not (is_integer(q_cap) and m <= q_cap <= largest):
        raise ValueError(
            f"q_cap must be an integer from {m} to {largest} for n = {n}, m = {m}: one batch "
            f"must fit, and the chain has (n + 1)(q_cap + 1) states, at most {MAX_STATES}"
        )
    return JointChain(q_cap, np.array(spec.f, dtype=float), np.array(spec.g, dtype=float))


def _inflow(chain: JointChain, pi: np.ndarray) -> np.ndarray:
    """P^T pi from f and g, with pi read as an (n + 1, q_cap + 1) array.

    The off row's mass goes down a level (level 0 stays), to each phase by f;
    an on row's goes to the phase below, y - 1 levels up, and past q_cap to q_cap.
    """
    pi = pi.reshape(chain.n + 1, -1)
    inflow = np.outer(chain.f, np.concatenate(([pi[0, 0] + pi[0, 1]], pi[0, 2:], [0.0])))
    on, below = pi[1:], inflow[:-1]
    for up, weight in enumerate(chain.g):  # a batch of up + 1
        below[:, up:] += weight * on[:, :chain.q_cap + 1 - up]
        below[:, -1] += weight * on[:, chain.q_cap + 1 - up:].sum(axis=1)
    return inflow.ravel()


def residual(chain: JointChain, pi: np.ndarray) -> float:
    """Max-norm balance residual |P^T pi - pi| of a candidate stationary vector."""
    gap = _inflow(chain, pi)
    return float(np.max(np.abs(np.subtract(gap, pi, out=gap), out=gap)))


def level_matrices(f: np.ndarray, g: np.ndarray) -> tuple:
    """(first, step, top): the fixed nonnegative terms of the level recursion.

    In q-major order, state (x, q) at q * (n + 1) + x, the n + 1 entries
    after pi(0, q) are pi(1, q), ..., pi(n, q), pi(0, q + 1).  With
    pi(0, 0) = 1 they are `first` for q = 0, and for 0 < q < q_cap the
    (m - 1)(n + 1) entries of levels q - m + 1 .. q - 1 (zero below level
    0) times `step`.  At q = q_cap they are those entries times `top`, whose
    last column, for the state pi(0, q_cap + 1) the chain lacks, is zero.

    With a_x = f[x] + g_1 a_{x+1} (a_{n+1} = 0), G(k) = P(Y >= k) and
    f(g_1) = sum_k f[k] g_1^k taken by Horner:
      pi(0, q + 1) = (C + G(2) B) / f(g_1), the cut flow: C = sum of
        s_l G(q + 2 - l) over l = q + 2 - m .. q - 1, s_l the on-phase mass
        of level l, and B = b_1 + ... + b_n;
      pi(x, q) = pi(0, q + 1) a_x + b_x, where
        b_x = g_1 b_{x+1} + sum_{y=2..m} g_y pi(x + 1, q + 1 - y);
      level 0: pi(x, 0) = a_x / f(g_1), pi(0, 1) = G(2) (a_1 + ... + a_n) / f(g_1);
      top: pi(n, q_cap) = 0 and pi(x, q_cap) = pi(x + 1, q_cap) plus
        pi(x + 1, l) G(q_cap + 1 - l) over l = q_cap + 1 - m .. q_cap - 1.
    f(g_1) equals 1 - G(2)(a_1 + ... + a_n), but Horner's form does not
    cancel when f[0] and g_1 are both small.
    """
    n, m = len(f) - 1, len(g)
    g1 = g[0]
    tail = np.append(np.cumsum(g[::-1])[::-1], 0.0)  # tail[k - 1] = G(k), k = 1..m + 1
    f_g1 = 0.0
    for v in f[::-1]:
        f_g1 = f_g1 * g1 + v
    alpha = np.zeros(n + 2)
    for x in range(n, 0, -1):
        alpha[x] = f[x] + g1 * alpha[x + 1]
    first = np.append(alpha[1:n + 1], tail[1] * alpha.sum()) / f_g1
    # beta[j, z, x]: the weight of pi(z, q - m + 1 + j) in b_x, whose batch is y = m - j
    beta = np.zeros((m - 1, n + 1, n + 2))
    for x in range(n - 1, 0, -1):
        beta[:, :, x] = g1 * beta[:, :, x + 1]
        beta[:, x + 1, x] += g[:0:-1]
    cut = np.zeros((m - 1, n + 1))
    cut[:, 1:] = tail[m:1:-1, None] + tail[1] * beta[:, 1:].sum(axis=2)
    down = cut / f_g1
    step = np.empty((m - 1, n + 1, n + 1))
    step[..., :n] = down[..., None] * alpha[1:n + 1] + beta[..., 1:n + 1]
    step[..., n] = down
    # top[j, z, x - 1] = G(m - j) for z > x: the sum over phases above x
    top = np.zeros((m - 1, n + 1, n + 1))
    above = np.arange(n + 1)[:, None] > np.arange(1, n + 2)
    top[:] = tail[m - 1:0:-1, None, None] * above
    width = (m - 1) * (n + 1)
    return first, step.reshape(width, n + 1), top.reshape(width, n + 1)


def block_map(step: np.ndarray, width: int, q_cap: int) -> np.ndarray:
    """S: the B(n + 1) entries after pi(0, q) from the (m - 1)(n + 1) ending at it.

    Off states feed no higher level (their rows of `step` are zero), so the
    window of `step` for level q loses pi(0, q - m + 1) and gains pi(0, q).
    B is the most levels, at least 1 and up to 64 and q_cap - 1, for which S
    and one more row hold BLOCK_ENTRIES entries or fewer.  S is `step` run B
    times from the identity, whose rows are read in place, so S is nonnegative.
    """
    inputs = step.shape[0] + 1
    levels = max(1, min(64, q_cap - 1, BLOCK_ENTRIES // (inputs * width)))
    down = np.ascontiguousarray(step.T)
    walk = np.zeros((levels * width, inputs))  # S^T: row i is entry i in terms of the inputs
    walk[:width, :-1] = down  # the first level reads inputs only
    for start in range(width, len(walk), width):
        if start < inputs:  # this level reads inputs start .. inputs - 1 as well
            np.dot(down[:, inputs - start:], walk[:start - 1], out=walk[start:start + width])
            walk[start:start + width, start:] += down[:, :inputs - start]
        else:
            np.dot(down, walk[start - inputs:start - 1], out=walk[start:start + width])
    return np.ascontiguousarray(walk[:, 1:].T)


def joint_stationary(chain: JointChain) -> np.ndarray:
    """Stationary vector of the joint kernel, to max-norm residual <= DEFAULT_RESIDUAL_TOL.

    Runs the `level_matrices` recursion from pi(0, 0) = 1 up through the
    levels, B per product with the `block_map` S (its first columns for a
    last, shorter block) and `top` for level q_cap, then returns the vector
    in x-major order, normalised.  Raises NoConvergence when it is not
    finite or misses the residual bound.
    """
    n, q_cap = chain.n, chain.q_cap
    first, step, top = level_matrices(chain.f, chain.g)
    width = n + 1
    pad = step.shape[0]  # the m - 1 levels below level 0, all zero
    block = block_map(step, width, q_cap)
    span = block.shape[1]
    last = q_cap - (q_cap - 1) % (span // width)  # where a last, shorter block starts
    # one slot past level q_cap for pi(0, q_cap + 1), which stays 0
    pi = np.zeros(pad + (q_cap + 1) * width + 1)
    pi[pad] = 1.0
    pi[pad + 1:pad + width + 1] = first
    for q in range(1, last, span // width):
        start = pad + q * width
        np.dot(pi[start - pad + 1:start + 1], block, out=pi[start + 1:start + span + 1])
    start, end = pad + last * width, pad + q_cap * width
    np.dot(pi[start - pad + 1:start + 1], block[:, :end - start], out=pi[start + 1:end + 1])
    np.dot(pi[end - pad:end], top, out=pi[end + 1:])
    pi = pi[pad:-1].reshape(q_cap + 1, width).T.ravel()
    pi /= pi.sum()
    gap = residual(chain, pi)
    if not (np.isfinite(pi).all() and gap <= DEFAULT_RESIDUAL_TOL):
        raise NoConvergence(gap, finite=bool(np.isfinite(pi).all()))
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
