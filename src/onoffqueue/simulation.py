"""Monte Carlo estimation of the queue-length law by direct replication.

Each run replays the chain and queue dynamics step by step: from the off
state the next chain state is drawn from f and nothing arrives; from an on
state the chain counts down and a batch drawn from g arrives; the queue
then updates by Q <- max(Q + Y - 1, 0).  Runs are independent streams of a
named generator (PCG64) with run r seeded by seed XOR r, so every report
is bitwise reproducible.  Confidence intervals are computed across runs
with the t distribution, since within-run samples are autocorrelated; its
quantile comes from `scipy.special.stdtrit`, the function behind
`scipy.stats.t.ppf`, which spares the slow `scipy.stats` import.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np
from scipy.special import stdtrit

from .config import check_count
from .model import ModelSpec

GENERATOR_NAME = "pcg64"

_CHUNK = 1 << 16


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
        check_count(self.k_max, "k_max")
        check_count(self.seed, "seed")


@dataclass(frozen=True)
class RunTally:
    """Raw tallies of one run: counts per queue value plus lumped overflow."""

    run_index: int
    counts: tuple
    lumped: int
    queue_sum: int
    steps: int

    @property
    def mean_queue(self) -> float:
        return self.queue_sum / self.steps

    @property
    def p_hat(self) -> tuple:
        return tuple(c / self.steps for c in self.counts)

    @property
    def lumped_mass(self) -> float:
        return self.lumped / self.steps


@dataclass(frozen=True)
class SimulationReport:
    """Pooled estimates with per-run values and 95% confidence bounds.

    CI fields are None for single-run reports.  min_resolvable is the
    smallest nonzero probability one run can register.
    """

    runs: int
    steps_per_run: int
    mean_queue: float
    mean_queue_runs: tuple
    mean_queue_ci: Optional[tuple]
    p_hat: tuple
    p_hat_runs: tuple
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


def simulate_run(spec: ModelSpec, config: SimulationConfig, run_index: int) -> RunTally:
    """One deterministic run; consumes exactly one uniform per step."""
    f_cum = _cumulative(spec.f)
    g_cum = _cumulative(spec.g)
    rng = np.random.Generator(np.random.PCG64(config.seed ^ run_index))
    bis = bisect_right
    k_cap = config.k_max
    x = 0
    q = 0
    # Burn-in and tally phases run the same steps; each phase starts from
    # fresh tallies, so only the tally phase's are returned.
    for start, stop in ((0, config.burn_in), (config.burn_in, config.iterations)):
        counts = [0] * (k_cap + 1)
        lumped = 0
        queue_sum = 0
        done = start
        while done < stop:
            block = rng.random(min(_CHUNK, stop - done)).tolist()
            done += len(block)
            for u in block:
                queue_sum += q
                if q <= k_cap:
                    counts[q] += 1
                else:
                    lumped += 1
                if x:
                    q += bis(g_cum, u)  # bisect index equals batch size - 1
                    x -= 1
                elif q:
                    q -= 1
                    x = bis(f_cum, u)
                else:
                    x = bis(f_cum, u)
    return RunTally(
        run_index=run_index,
        counts=tuple(counts),
        lumped=lumped,
        queue_sum=queue_sum,
        steps=config.iterations - config.burn_in,
    )


def _t_interval(values, center):
    n = len(values)
    arr = np.asarray(values)
    spread = float(arr.std(ddof=1))
    half = float(stdtrit(n - 1, 0.975)) * spread / n**0.5
    return center - half, center + half


def aggregate(tallies: Sequence[RunTally], seed: int = 0) -> SimulationReport:
    """Pool per-run tallies into tally-weighted estimates plus t-based CIs."""
    runs = len(tallies)
    if runs < 1:
        raise ValueError("at least one run is required")
    steps = tallies[0].steps
    total_steps = sum(t.steps for t in tallies)
    k_cap = len(tallies[0].counts) - 1
    mean_queue = sum(t.queue_sum for t in tallies) / total_steps
    mean_queue_runs = tuple(t.mean_queue for t in tallies)
    p_hat = tuple(
        sum(t.counts[k] for t in tallies) / total_steps for k in range(k_cap + 1)
    )
    p_hat_runs = tuple(t.p_hat for t in tallies)
    lumped_mass = sum(t.lumped for t in tallies) / total_steps
    if runs >= 2:
        mean_queue_ci = _t_interval(mean_queue_runs, mean_queue)
        low, high = [], []
        for k in range(k_cap + 1):
            lo, hi = _t_interval([pr[k] for pr in p_hat_runs], p_hat[k])
            low.append(lo)
            high.append(hi)
        p_ci_low, p_ci_high = tuple(low), tuple(high)
    else:
        mean_queue_ci = None
        p_ci_low = None
        p_ci_high = None
    return SimulationReport(
        runs=runs,
        steps_per_run=steps,
        mean_queue=mean_queue,
        mean_queue_runs=mean_queue_runs,
        mean_queue_ci=mean_queue_ci,
        p_hat=p_hat,
        p_hat_runs=p_hat_runs,
        p_ci_low=p_ci_low,
        p_ci_high=p_ci_high,
        lumped_mass=lumped_mass,
        min_resolvable=1.0 / steps,
        seed=seed,
    )


def simulate(spec: ModelSpec, config: SimulationConfig = SimulationConfig()) -> SimulationReport:
    """Run all replications and aggregate; deterministic given (spec, config)."""
    tallies = [simulate_run(spec, config, r) for r in range(config.runs)]
    return aggregate(tallies, seed=config.seed)
