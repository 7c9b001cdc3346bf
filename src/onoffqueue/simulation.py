"""Monte Carlo estimation of the queue-length law by direct replication.

The chain has one off state and on states that count down.  An off slot t
draws the on-period X_t from f (0 means it stays off), so the off slots of
a run form a renewal sequence: the next one after t is t + 1 + X_t.  Every
on slot brings a batch Y_t drawn from g, an off slot brings none, and the
server completes one unit per slot, so the queue follows the Lindley
recursion Q <- max(Q + a_t, 0) with a_t = Y_t - 1 at on slots and -1 at
off slots.

Run r draws from two independent PCG64 streams,
SeedSequence(seed, spawn_key=(r, 0)) for the on-periods and spawn_key
(r, 1) for the batches, so no two (seed, run) pairs share a stream.  The
chain is drawn period by period: one on-period per off slot and one
batch per slot, the latter `_CHUNK` at a time, and each block is settled
with array operations.  A draw gives its on-period or batch size - 1 as
the number of cumulative-probability steps at or below it.  The off slots
of a block are first, first + 1 + X_0, first + 2 + X_0 + X_1, ...: one
running sum over on-periods drawn ahead, and those the block does not use
carry into the next, so no draw is discarded and the tallies do not
depend on how many are drawn ahead.  The queue after slot t is
S_t - min(-Q_0, min_{s<=t} S_s), with S the running sum of a.  Draws are
binned into the narrowest integer type that also holds -1 (int8 for up
to 128 steps), and the Lindley step runs in place in one int64 buffer
besides S.  The queue length, the first off slot past the block and the
unused on-periods carry into the next block, and across the
burn-in/tally boundary.  The integer arithmetic is exact, so every report
is bitwise reproducible.

`simulate` runs the replications concurrently on a thread pool (numpy
releases the GIL in the draws, running sums and counts that dominate a
block) and pools their tallies in run order, so its report does not depend
on the number of workers.

Confidence intervals are computed across runs with the t distribution,
since within-run samples are autocorrelated.  Its 0.975 quantile comes
from this module, not from scipy: a table of correctly rounded values up
to 32 degrees of freedom and a fixed polynomial in 1/df above (see
`_t975`), in plain float arithmetic, and Python sums of floats go left to
right through `ordered_sum`, so a fixed-seed report has the same bits
under every interpreter, platform and scipy version.  The queue sum of
each full block also serves as a batch mean, which gives a within-run
standard error of the mean queue.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .config import check_count, check_size, ordered_sum
from .model import ModelSpec

GENERATOR_NAME = "pcg64"

_CHUNK = 1 << 16

# Student's t quantile at p = float(0.975) = 0.97499999999999997779...,
# correctly rounded, for df = 1, 2, ..., 32.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837086, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449692, 2.364624251592785, 2.3060041352041662,
    2.262157162798205, 2.2281388519862744, 2.2009851600916392, 2.1788128296672284,
    2.160368656462792, 2.1447866879178035, 2.131449545559775, 2.119905299221254,
    2.1098155778333165, 2.1009220402410382, 2.093024054408309, 2.0859634472658644,
    2.07961384472768, 2.073873067904026, 2.068657610419048, 2.0638985616280254,
    2.0595385527532972, 2.0555294386428726, 2.051830516480285, 2.0484071417952445,
    2.045229642132704, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
)
# Above the table, the expansion t = z + g_1(z)/df + ... + g_10(z)/df^10
# with z = Phi^-1(p), highest power first.  g_1..g_4 are the Cornish-Fisher
# terms of Abramowitz & Stegun 26.7.5; g_5..g_10 were read off a polynomial
# in 1/df interpolating 130-digit quantiles at 26 df from 2000 to 52000,
# which reproduces g_1..g_4 to 1e-67.
_T975_SERIES = (
    14.20050596207248, 1.942521386983896, -1.7139281826235206, 0.12881285359619674,
    0.6274804609510728, 0.7328982119816045, 1.5895340533938214, 2.5558496795077206,
    2.8224986157396095, 2.3722712302985616, 1.9599639845400538,
)


@dataclass(frozen=True)
class SimulationConfig:
    """Replication plan: steps per run, number of runs, warm-up, seeding.

    burn_in steps are discarded before tallying to wash out the empty
    initial state; set burn_in=0 to sample from the very first step.
    k_max caps the per-value tally; larger queue values are lumped.
    """

    iterations: int = 1_000_000
    runs: int = 10
    burn_in: int = 10_000
    seed: int = 0
    k_max: int = 50

    def __post_init__(self):
        check_count(self.burn_in, "burn_in")
        check_count(self.iterations, "iterations")
        if self.iterations <= self.burn_in:
            raise ValueError("iterations must exceed burn_in")
        check_count(self.runs, "runs", 1)
        check_size(self.k_max, "k_max")
        check_count(self.seed, "seed")


@dataclass(frozen=True)
class RunTally:
    """Raw integer tallies of one run: counts per queue value plus lumped overflow.

    batch_sums holds the queue sum of each full `_CHUNK`-slot block of the
    tally phase, in order; a shorter last block is left out.  `aggregate`
    alone turns tallies into estimates.
    """

    run_index: int
    counts: tuple
    lumped: int
    queue_sum: int
    steps: int
    batch_sums: tuple


@dataclass(frozen=True)
class SimulationReport:
    """Pooled estimates with 95% confidence bounds across runs.

    CI fields are None for single-run reports.  min_resolvable is the
    smallest nonzero probability one run can register.

    mean_queue_batch_se is the standard error of mean_queue from the batch
    means within each run; it is None when the runs have fewer than 2 full
    batches.
    """

    runs: int
    steps_per_run: int
    mean_queue: float
    mean_queue_ci: Optional[tuple]
    mean_queue_batch_se: Optional[float]
    p_hat: tuple
    p_ci_low: Optional[tuple]
    p_ci_high: Optional[tuple]
    lumped_mass: float
    min_resolvable: float
    seed: int
    generator: str = GENERATOR_NAME


def _cumulative(probabilities) -> list:
    cums = list(accumulate(float(p) for p in probabilities))
    cums[-1] = 1.0  # guard the last bin against float undershoot
    return cums


def _bin_indices(cums: list, u: np.ndarray) -> np.ndarray:
    """bisect_right(cums, u_t) for every u_t, as a count of the steps it passes.

    One comparison pass per step: for the few steps of f and g that is
    several times cheaper than np.searchsorted, with the same integers.
    The result has the narrowest integer type that holds -len(cums), so a
    caller may also store -1 in it.
    """
    index = np.zeros(len(u), dtype=np.min_scalar_type(-len(cums)))
    for c in cums[:-1]:  # u < 1.0 == cums[-1]
        index += u >= c
    return index


def simulate_run(spec: ModelSpec, config: SimulationConfig, run_index: int) -> RunTally:
    """One deterministic run: a batch draw per slot, an on-period draw per off slot.

    The slots are settled a `_CHUNK` block at a time (see the module
    docstring); the queue length, the first off slot and the on-periods
    drawn ahead carry over.
    """
    f_cum = _cumulative(spec.f)
    g_cum = _cumulative(spec.g)
    on_rng, batch_rng = (
        np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(run_index, part)))
        )
        for part in (0, 1)
    )
    ahead = _bin_indices(f_cum, np.empty(0))  # on-periods drawn but not yet used
    lump = config.k_max + 1
    q = 0  # queue length at the start of the next block
    first = 0  # first off slot of the next block, counted from its start
    # Burn-in and tally phases run the same blocks; each phase starts from
    # fresh tallies, so only the tally phase's are returned.
    for start, stop in ((0, config.burn_in), (config.burn_in, config.iterations)):
        counts = np.zeros(lump + 1, dtype=np.int64)
        queue_sum = 0
        batch_sums = []
        done = start
        while done < stop:
            size = min(_CHUNK, stop - done)
            done += size
            step = _bin_indices(g_cum, batch_rng.random(size))  # batch size - 1
            if first < size:
                # size - first on-periods reach past the block even if all are 0
                want = size - first
                if len(ahead) < want:
                    drawn = _bin_indices(f_cum, on_rng.random(want - len(ahead)))
                    ahead = np.concatenate((ahead, drawn))
                # ends[i] = first + sum_{j<=i} (1 + ahead[j]), the off slot
                # after the one that draws ahead[i]
                ends = ahead[:want].astype(np.int64)
                ends += 1
                ends[0] += first
                np.cumsum(ends, out=ends)
                inside = int(np.searchsorted(ends, size))
                step[first] = -1
                step[ends[:inside]] = -1
                first = int(ends[inside]) - size
                ahead = ahead[inside + 1 :]
                del ends  # before the Lindley buffers are made
            else:
                first -= size
            # Lindley: the queue after slot t is S_t - min(-q, min_{s<=t} S_s)
            after = np.cumsum(step, dtype=np.int64)
            low = np.minimum.accumulate(after)
            np.minimum(low, -q, out=low)
            np.subtract(after, low, out=after)
            # the queue as each slot starts is q, then after[:-1]
            q_start, q = q, int(after[-1])
            block_sum = q_start + int(after.sum()) - q
            counts += np.bincount(np.minimum(after, lump, out=low), minlength=lump + 1)
            counts[min(q_start, lump)] += 1
            counts[min(q, lump)] -= 1
            del after, low  # before the next block's arrays are made
            queue_sum += block_sum
            if size == _CHUNK:
                batch_sums.append(block_sum)
    return RunTally(
        run_index=run_index,
        counts=tuple(counts[:lump].tolist()),
        lumped=int(counts[lump]),
        queue_sum=queue_sum,
        steps=config.iterations - config.burn_in,
        batch_sums=tuple(batch_sums),
    )


def _t975(df: int) -> float:
    """The 0.975 quantile of Student's t with df >= 1 degrees of freedom.

    Correctly rounded up to df 32 and within one ulp above.  Only IEEE
    divisions, multiplications and additions in a fixed order, so the bits
    do not depend on the interpreter, the platform or its libm.
    """
    if df <= len(_T975):
        return _T975[df - 1]
    x = 1.0 / df
    q = 0.0
    for c in _T975_SERIES:
        q = q * x + c
    return q


def aggregate(tallies: Sequence[RunTally], seed: int = 0) -> SimulationReport:
    """Pool per-run tallies into tally-weighted estimates plus t-based CIs."""
    runs = len(tallies)
    if runs < 1:
        raise ValueError("at least one run is required")
    if len({(t.steps, len(t.counts), len(t.batch_sums)) for t in tallies}) > 1:
        raise ValueError("runs must have the same steps and number of counts and batch sums")
    steps, batches = tallies[0].steps, len(tallies[0].batch_sums)
    total_steps = runs * steps
    counts = np.array([t.counts for t in tallies], dtype=np.int64)
    mean_queue = sum(t.queue_sum for t in tallies) / total_steps
    p_hat = counts.sum(axis=0) / total_steps
    mean_queue_ci = p_ci_low = p_ci_high = None
    if runs >= 2:
        # each run's p_hat[k] for each k, then its mean queue; C-contiguous (vstack
        # keeps .T's layout) so np.std sums each row as it would a 1-D array
        mean_queue_runs = [t.queue_sum / steps for t in tallies]
        per_run = np.ascontiguousarray(np.vstack(((counts / steps).T, mean_queue_runs)))
        half = _t975(runs - 1) * np.std(per_run, axis=-1, ddof=1) / runs**0.5
        center = np.append(p_hat, mean_queue)
        low, high = (center - half).tolist(), (center + half).tolist()
        mean_queue_ci = (low.pop(), high.pop())
        p_ci_low, p_ci_high = tuple(low), tuple(high)
    batch_se = None
    if batches >= 2:
        # the run means' variances add / runs^2, summed in run order, not pairwise
        means = np.array([t.batch_sums for t in tallies], dtype=float) / _CHUNK
        within = np.var(means, axis=1, ddof=1) / batches
        batch_se = ordered_sum(within.tolist()) ** 0.5 / runs
    return SimulationReport(
        runs=runs,
        steps_per_run=steps,
        mean_queue=mean_queue,
        mean_queue_ci=mean_queue_ci,
        mean_queue_batch_se=batch_se,
        p_hat=tuple(p_hat.tolist()),
        p_ci_low=p_ci_low,
        p_ci_high=p_ci_high,
        lumped_mass=sum(t.lumped for t in tallies) / total_steps,
        min_resolvable=1.0 / steps,
        seed=seed,
    )


def _worker_count(runs: int) -> int:
    """Threads for `runs` replications: one per CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(runs, cpus)


def simulate(spec: ModelSpec, config: SimulationConfig = SimulationConfig()) -> SimulationReport:
    """Run all replications and aggregate; deterministic given (spec, config).

    The runs go to a thread pool of `_worker_count(config.runs)` threads,
    and their tallies are pooled in run order, so the report is the same
    for any number of workers.  If a run raises, or the wait is interrupted
    (Ctrl-C), the runs not yet started are cancelled, the runs already
    started finish, and the exception propagates.  Threads rather than
    processes: nothing is forked or pickled, and no worker can outlive
    the call.
    """
    pool = ThreadPoolExecutor(max_workers=_worker_count(config.runs))
    try:
        futures = [pool.submit(simulate_run, spec, config, r) for r in range(config.runs)]
        tallies = [future.result() for future in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return aggregate(tallies, seed=config.seed)
