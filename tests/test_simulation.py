"""Monte Carlo engine: determinism, conservation, CIs, statistical sanity."""

import hashlib
import math
import statistics
import threading
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import build_model, model_specs, reference_run
from onoffqueue import (
    ModelSpec,
    RunTally,
    SimulationConfig,
    aggregate,
    expected_queue,
    from_strings,
    moments,
    simulate,
    simulate_run,
    validate,
)
from onoffqueue import simulation
from onoffqueue.simulation import _CHUNK, _T975, _bin_indices, _cumulative, _t975

FAST = SimulationConfig(iterations=20_000, runs=3, burn_in=1_000, seed=7, k_max=10)
# three full batches plus a partial one in the tally phase
BATCHED = SimulationConfig(iterations=3 * _CHUNK + 1_500, runs=3, burn_in=1_000, seed=5, k_max=10)
# one block edge in the tally phase
EDGE = SimulationConfig(iterations=_CHUNK + 600, runs=1, burn_in=100, seed=13, k_max=60)
# a run of 10 slots tallied into 3 bins and 1 lumped
THREE_BINS = RunTally(run_index=0, counts=(5, 3, 1), lumped=1, queue_sum=8, steps=10, batch_sums=())

# On-period laws (off state first) whose on-periods often span a block
# edge: mostly 5 slots under LONG_ON, now and then 126 under RARE_LONG_ON.
LONG_ON = (0.05, 0.01, 0.01, 0.01, 0.01, 0.91)
RARE_LONG_ON = (0.9, 0.075) + (0.0,) * 124 + (0.025,)


def serial(spec, config):
    """The report `simulate` must give: every run in order, then aggregate."""
    return aggregate([simulate_run(spec, config, r) for r in range(config.runs)], config.seed)


class TestSimulateRun:
    def test_unit_batches_pin_queue_at_zero(self):
        spec = from_strings(("0.5", "0.5"), ("1.0",))
        tally = simulate_run(spec, FAST, 0)
        assert tally.counts[0] == tally.steps
        assert tally.lumped == 0
        assert tally.queue_sum == 0

    def test_deterministic_given_seed_and_run(self, table1):
        a = simulate_run(table1, FAST, 2)
        b = simulate_run(table1, FAST, 2)
        assert a == b

    def test_runs_differ(self, table1):
        assert simulate_run(table1, FAST, 0) != simulate_run(table1, FAST, 1)

    def test_nearby_seeds_share_no_run(self, table1):
        # every (seed, run) pair has streams of its own
        runs = [
            tuple(c / t.steps for c in t.counts)
            for seed in range(4)
            for t in (simulate_run(table1, replace(FAST, seed=seed), r) for r in range(4))
        ]
        assert len(set(runs)) == 16

    def test_conservation(self, table2):
        tally = simulate_run(table2, FAST, 0)
        assert tally.steps == FAST.iterations - FAST.burn_in
        assert sum(tally.counts) + tally.lumped == tally.steps

    @pytest.mark.parametrize(
        "burn_in, counts, lumped, queue_sum",
        [
            (1234, (1190, 242, 179, 91, 45), 19, 1155),
            (0, (2024, 418, 305, 148, 64), 41, 1952),
        ],
    )
    def test_pinned_stream(self, table1, burn_in, counts, lumped, queue_sum):
        # a seed's stream is part of the reproducibility contract: these
        # tallies must not move when the step loop is restructured
        config = SimulationConfig(iterations=3000, runs=1, burn_in=burn_in, seed=11, k_max=4)
        tally = simulate_run(table1, config, 0)
        assert (tally.counts, tally.lumped, tally.queue_sum) == (counts, lumped, queue_sum)

    def test_lumping_beyond_kmax(self, table2):
        config = SimulationConfig(iterations=50_000, runs=1, burn_in=0, seed=1, k_max=2)
        tally = simulate_run(table2, config, 0)
        assert tally.lumped > 0
        assert sum(tally.counts) + tally.lumped == tally.steps


class TestBlockEqualsReference:
    """The block computation gives the slot-by-slot loop's tallies exactly."""

    @given(
        spec=model_specs(),
        burn_in=st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1]),
        length=st.sampled_from([1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]),
        k_max=st.sampled_from([0, 1, 4, 60]),
        seed=st.integers(0, 2**32),
        run_index=st.integers(0, 9),
    )
    @example(spec=ModelSpec(LONG_ON, (0.9, 0.1)), burn_in=_CHUNK - 1, length=2 * _CHUNK + 1,
             k_max=4, seed=0, run_index=0)
    @example(spec=ModelSpec(RARE_LONG_ON, (0.9, 0.1)), burn_in=_CHUNK - 1,
             length=2 * _CHUNK + 1, k_max=4, seed=0, run_index=0)
    # k_max far above every queue: each block counts only to its largest
    @example(spec=ModelSpec(LONG_ON, (0.4, 0.4, 0.2)), burn_in=1, length=_CHUNK + 1,
             k_max=200_000, seed=0, run_index=2)
    @settings(max_examples=25, deadline=None)
    def test_random_models_around_block_edges(self, spec, burn_in, length, k_max, seed, run_index):
        config = SimulationConfig(iterations=burn_in + length, runs=1, burn_in=burn_in,
                                  seed=seed, k_max=k_max)
        assert simulate_run(spec, config, run_index) == reference_run(spec, config, run_index)

    @pytest.mark.parametrize(
        "f, g",
        [
            (("0.8", "0.1", "0.05", "0.05"), ("0.4", "0.4", "0.2")),
            (("0.6", "0.2", "0.1", "0.05", "0.05"), ("0.2", "0.6", "0.1", "0.1")),
            # never off for two slots running, rho = 1: the queue grows without bound
            (("0", "0", "1"), ("0.5", "0.5")),
            # on-periods that carry over block edges and the phase boundary
            (LONG_ON, ("0.9", "0.1")),
            (RARE_LONG_ON, ("0.9", "0.1")),
        ],
    )
    def test_models_across_phase_boundary(self, f, g):
        spec = ModelSpec(tuple(float(v) for v in f), tuple(float(v) for v in g))
        config = SimulationConfig(iterations=2 * _CHUNK + 2, runs=1, burn_in=_CHUNK - 1,
                                  seed=3, k_max=4)
        assert simulate_run(spec, config, 1) == reference_run(spec, config, 1)

    @pytest.mark.parametrize("width", [127, 128, 129])
    @pytest.mark.parametrize("side", ["f", "g"])
    def test_index_width_boundaries(self, side, width):
        # 128 steps is the most an int8 index holds along with -1; 129 needs
        # int16.  The heaviest weight is on the longest on-period or largest
        # batch, so the top index is drawn in the short run.
        if side == "f":  # f has the off state's 0 besides on-periods 1..width-1
            spec = build_model([1] * (width - 2) + [200], [2, 2, 1], 50)
        else:
            spec = build_model([1, 1, 1], [1] * (width - 1) + [200], 50)
        cums = _cumulative(getattr(spec, side))
        assert len(cums) == width
        assert _bin_indices(cums, np.zeros(1)).dtype == (np.int8 if width <= 128 else np.int16)
        config = SimulationConfig(iterations=_CHUNK + 600, runs=1, burn_in=_CHUNK - 300,
                                  seed=17, k_max=60)
        assert simulate_run(spec, config, 3) == reference_run(spec, config, 3)


class TestConcurrentRuns:
    """`simulate` pools its runs in run order whatever the number of workers."""

    @pytest.mark.parametrize("workers", [None, 1, 3])
    @pytest.mark.parametrize("runs", [1, 2, 3, 5])
    @pytest.mark.parametrize("model", ["table1", "table2"])
    def test_report_independent_of_workers(self, request, monkeypatch, model, runs, workers):
        spec = request.getfixturevalue(model)
        config = replace(EDGE, runs=runs)
        if workers is not None:
            monkeypatch.setattr(simulation, "_worker_count", lambda runs: workers)
        assert simulate(spec, config) == serial(spec, config)

    @given(
        spec=model_specs(),
        runs=st.integers(1, 4),
        workers=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=5, deadline=None)
    def test_random_models(self, spec, runs, workers, seed):
        config = SimulationConfig(iterations=_CHUNK + 50, runs=runs, burn_in=_CHUNK - 50,
                                  seed=seed, k_max=20)
        with pytest.MonkeyPatch.context() as patch:
            if workers is not None:
                patch.setattr(simulation, "_worker_count", lambda runs: workers)
            assert simulate(spec, config) == serial(spec, config)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_benchmark_tallies(self, table2, monkeypatch, workers):
        # the benchmark's compare run on table2; the digest covers integers
        # only, so no numpy release can move it
        tallies = []
        pool = simulation.aggregate
        monkeypatch.setattr(simulation, "aggregate",
                            lambda runs, seed=0: tallies.extend(runs) or pool(runs, seed))
        monkeypatch.setattr(simulation, "_worker_count", lambda runs: workers)
        simulate(table2, SimulationConfig(iterations=1_000_000, runs=4, burn_in=10_000,
                                          seed=1, k_max=60))
        fields = [(t.run_index, t.counts, t.lumped, t.queue_sum, t.batch_sums) for t in tallies]
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == (
            "3a7a12aa194567cadd2cbd38155aa1e34018364647dc6d6966303939205ec1cf"
        )

    def test_running_sums_release_the_gil(self, table2, monkeypatch):
        # numpy releases the GIL in a running sum only when it neither casts
        # nor writes over its input, so that the runs on the pool overlap
        cumsum = np.cumsum
        calls = set()  # (input dtype, output dtype, output overlaps input)

        def recorded(a, axis=None, dtype=None, out=None):
            result = cumsum(a, axis=axis, dtype=dtype, out=out)
            calls.add((a.dtype.name, result.dtype.name, np.shares_memory(result, a)))
            return result

        monkeypatch.setattr(np, "cumsum", recorded)
        simulate_run(table2, EDGE, 0)
        assert calls == {("int64", "int64", False)}

    def test_worker_count_bounded_by_runs_and_cpus(self):
        assert simulation._worker_count(1) == 1
        assert 1 <= simulation._worker_count(64) <= 64

    @pytest.mark.parametrize("cpus, expected", [(3, 3), (None, 1)])
    def test_worker_count_without_affinity(self, monkeypatch, cpus, expected):
        # platforms without sched_getaffinity fall back to os.cpu_count(),
        # which may return None
        monkeypatch.delattr(simulation.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: cpus)
        assert simulation._worker_count(8) == expected
        assert simulation._worker_count(2) == min(2, expected)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_failed_run_raises_and_leaves_no_threads(self, table1, monkeypatch, workers):
        class RunFailed(Exception):
            pass

        run = simulation.simulate_run

        def failing(spec, config, run_index):
            if run_index == 2:
                raise RunFailed(run_index)
            return run(spec, config, run_index)

        monkeypatch.setattr(simulation, "simulate_run", failing)
        monkeypatch.setattr(simulation, "_worker_count", lambda runs: workers)
        before = threading.active_count()
        with pytest.raises(RunFailed):
            simulate(table1, replace(EDGE, runs=6))
        assert threading.active_count() == before


class TestBatchHealth:
    def test_batch_sums_cover_full_blocks(self, table1):
        tally = simulate_run(table1, BATCHED, 0)
        assert len(tally.batch_sums) == 3
        assert sum(tally.batch_sums) <= tally.queue_sum
        exact = SimulationConfig(iterations=2 * _CHUNK + 10, runs=1, burn_in=10, seed=5)
        whole = simulate_run(table1, exact, 0)
        assert sum(whole.batch_sums) == whole.queue_sum

    def test_single_run_standard_error(self, table2):
        tally = simulate_run(table2, BATCHED, 0)
        report = aggregate([tally])
        means = [s / _CHUNK for s in tally.batch_sums]
        expected = statistics.stdev(means) / len(means) ** 0.5
        assert report.mean_queue_batch_se == pytest.approx(expected, rel=1e-12)

    # nine full batches per run, so numpy sums each row in interleaved partial
    # sums; above 8 runs a pairwise sum over runs would change the bits
    @pytest.mark.parametrize("runs, seed", [(2, 0), (9, 4), (12, 5)])
    def test_stacked_equals_per_run_formula(self, table2, runs, seed):
        config = SimulationConfig(iterations=9 * _CHUNK + 100, runs=runs, burn_in=100, seed=seed,
                                  k_max=10)
        report = simulate(table2, config)
        within = 0
        for r in range(runs):
            sums = simulate_run(table2, config, r).batch_sums
            within += float(np.var(np.array(sums, dtype=float) / _CHUNK, ddof=1)) / len(sums)
        assert report.mean_queue_batch_se == within**0.5 / runs

    def test_pooled_over_runs(self, table2):
        tallies = [simulate_run(table2, BATCHED, r) for r in range(BATCHED.runs)]
        report = aggregate(tallies)
        singles = [aggregate([t]).mean_queue_batch_se for t in tallies]
        pooled = sum(se**2 for se in singles) ** 0.5 / len(tallies)
        assert report.mean_queue_batch_se == pytest.approx(pooled, rel=1e-12)

    def test_omitted_below_two_batches(self, table1):
        report = simulate(table1, FAST)
        assert report.mean_queue_batch_se is None

    def test_zero_when_batches_never_vary(self):
        spec = from_strings(("0.5", "0.5"), ("1.0",))
        report = simulate(spec, BATCHED)
        assert report.mean_queue_batch_se == 0.0


# Student's t quantile at p = float(0.975), to 45 digits, by degrees of freedom
T975_45_DIGITS = {
    1: "12.7062047361746933141016412189772475533216048",
    2: "4.30265272974946178942037599663934927614428861",
    4: "2.77644510519779348979096219548722142224111416",
    8: "2.30600413520416611432803667341252729002878953",
    9: "2.26215716279820499920285271724719493299329824",
}


def t975_reference(df):
    """The t quantile at p = float(0.975) to ~60 digits, as an mpf.

    The root in t of the two-sided tail I_x(df/2, 1/2) = 2(1 - p) with
    x = df/(df + t^2), the regularised incomplete beta form of the t law.
    """
    with mpmath.workdps(60):
        nu = mpmath.mpf(df)
        two_tails = 2 * (1 - mpmath.mpf(0.975))  # mpf(float) is exact
        return +mpmath.findroot(
            lambda t: mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + t * t), regularized=True)
            - two_tails,
            mpmath.mpf(2),
        )


def nearest_double(value):
    man, exp = value.man_exp
    return float(man * Fraction(2) ** exp)


class TestTQuantile:
    def test_reference_matches_closed_forms(self):
        p = mpmath.mpf(0.975)
        with mpmath.workdps(60):
            assert abs(t975_reference(1) - mpmath.tan(mpmath.pi * (p - 0.5))) < 1e-50
            assert abs(t975_reference(2) - (2 * p - 1) / mpmath.sqrt(2 * p * (1 - p))) < 1e-50

    @pytest.mark.parametrize("df", range(1, len(_T975) + 1))
    def test_table_is_correctly_rounded(self, df):
        ref = t975_reference(df)
        # the 60-digit value pins the nearest double: both sides round alike
        with mpmath.workdps(60):
            low, high = nearest_double(ref * (1 - 1e-45)), nearest_double(ref * (1 + 1e-45))
        assert low == high
        assert _t975(df) == low

    # dense just past the table, where truncating the series costs most,
    # then spread geometrically up to 10^6
    @pytest.mark.parametrize(
        "df",
        list(range(len(_T975) + 1, 61))
        + sorted({round(61 * (10**6 / 61) ** (i / 24)) for i in range(1, 25)}),
    )
    def test_series_within_one_ulp(self, df):
        ref = nearest_double(t975_reference(df))
        assert abs(_t975(df) - ref) <= math.ulp(ref)


class TestAggregate:
    def test_identical_runs_zero_width(self, table1):
        tally = simulate_run(table1, FAST, 0)
        report = aggregate([tally, tally, tally])
        low, high = report.mean_queue_ci
        assert low == pytest.approx(report.mean_queue, abs=1e-15)
        assert high == pytest.approx(report.mean_queue, abs=1e-15)

    def test_bounds_bracket_estimates(self, table1):
        report = simulate(table1, FAST)
        low, high = report.mean_queue_ci
        assert low <= report.mean_queue <= high
        for k in range(len(report.p_hat)):
            assert report.p_ci_low[k] <= report.p_hat[k] <= report.p_ci_high[k]

    # numpy sums 8 or more contiguous values in interleaved partial sums,
    # but down axis 0 one by one; at 9 and 34 runs the two differ here
    @pytest.mark.parametrize("runs", [2, 3, 5, 9, 10, 34])
    def test_intervals_match_high_precision_t(self, table1, runs):
        # the intervals must equal, bitwise, those built on the correctly
        # rounded quantile, here from a 45-digit value; df 33 is past the
        # table, so there the quantile is _t975's own and only the
        # reduction order is checked
        if runs - 1 in T975_45_DIGITS:
            quantile = float(T975_45_DIGITS[runs - 1])
        else:
            quantile = _t975(runs - 1)

        def interval(values, center):
            half = quantile * float(np.std(values, ddof=1))
            half /= runs**0.5
            return center - half, center + half

        tallies = [simulate_run(table1, FAST, r) for r in range(runs)]
        report = aggregate(tallies)
        # each run's values from its tallies, with the bits of numpy's division
        mean_queue_runs = [t.queue_sum / t.steps for t in tallies]
        assert report.mean_queue_ci == interval(mean_queue_runs, report.mean_queue)
        bounds = [
            interval([t.counts[k] / t.steps for t in tallies], report.p_hat[k])
            for k in range(len(report.p_hat))
        ]
        assert report.p_ci_low == tuple(lo for lo, _ in bounds)
        assert report.p_ci_high == tuple(hi for _, hi in bounds)

    def test_no_runs_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    @pytest.mark.parametrize(
        "other",
        [
            replace(THREE_BINS, counts=(6, 3)),
            replace(THREE_BINS, counts=(5, 3, 1, 0)),
            replace(THREE_BINS, counts=(10, 6, 2), lumped=2, queue_sum=16, steps=20),
            replace(THREE_BINS, batch_sums=(8,)),
        ],
        ids=["fewer_bins", "more_bins", "more_steps", "more_batches"],
    )
    def test_mismatched_runs_rejected(self, other):
        with pytest.raises(ValueError, match="same steps and number of counts"):
            aggregate([THREE_BINS, replace(other, run_index=1)])

    def test_single_run_has_no_ci(self, table1):
        config = SimulationConfig(iterations=5_000, runs=1, burn_in=100, seed=3, k_max=5)
        report = simulate(table1, config)
        assert report.mean_queue_ci is None
        assert report.p_ci_low is None

    def test_mass_accounting(self, table2):
        report = simulate(table2, FAST)
        assert sum(report.p_hat) + report.lumped_mass == pytest.approx(1.0, abs=1e-12)

    def test_min_resolvable(self, table1):
        report = simulate(table1, FAST)
        assert report.min_resolvable == 1.0 / (FAST.iterations - FAST.burn_in)

    def test_generator_identity_recorded(self, table1):
        report = simulate(table1, FAST)
        assert report.generator == "pcg64"
        assert report.seed == FAST.seed


class TestStatisticalBehavior:
    def test_report_reproducible(self, table1):
        assert simulate(table1, FAST) == simulate(table1, FAST)

    def test_mean_ci_covers_truth(self, table1):
        config = SimulationConfig(iterations=100_000, runs=10, burn_in=2_000,
                                  seed=11, k_max=30)
        report = simulate(table1, config)
        low, high = report.mean_queue_ci
        truth = float(expected_queue(moments(table1)))
        assert low <= truth <= high

    def test_ci_width_shrinks_with_iterations(self, table1):
        short = SimulationConfig(iterations=20_000, runs=32, burn_in=1_000,
                                 seed=29, k_max=20)
        long = SimulationConfig(iterations=191_000, runs=32, burn_in=1_000,
                                seed=29, k_max=20)
        w_short = (lambda r: r.mean_queue_ci[1] - r.mean_queue_ci[0])(
            simulate(table1, short)
        )
        w_long = (lambda r: r.mean_queue_ci[1] - r.mean_queue_ci[0])(
            simulate(table1, long)
        )
        # 10x the tallied steps should shrink the width by roughly sqrt(10)
        assert 2.0 <= w_short / w_long <= 5.0


class TestSimulationConfig:
    def test_rejects_burn_in_at_least_iterations(self):
        with pytest.raises(ValueError):
            SimulationConfig(iterations=100, burn_in=100)

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            SimulationConfig(runs=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=-1)
