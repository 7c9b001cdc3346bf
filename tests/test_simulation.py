"""Monte Carlo engine: determinism, conservation, CIs, statistical sanity."""

import pytest

from onoffqueue import (
    ModelSpec,
    SimulationConfig,
    aggregate,
    expected_queue,
    from_strings,
    moments,
    simulate,
    simulate_run,
    validate,
)

FAST = SimulationConfig(iterations=20_000, runs=3, burn_in=1_000, seed=7, k_max=10)


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

    def test_seed_xor_run_rule(self, table1):
        # run r under seed s consumes the same stream as run 0 under s XOR r
        direct = simulate_run(table1, FAST, 5)
        rebased = simulate_run(
            table1,
            SimulationConfig(iterations=20_000, runs=3, burn_in=1_000,
                             seed=FAST.seed ^ 5, k_max=10),
            0,
        )
        assert direct.counts == rebased.counts
        assert direct.queue_sum == rebased.queue_sum

    def test_conservation(self, table2):
        tally = simulate_run(table2, FAST, 0)
        assert tally.steps == FAST.iterations - FAST.burn_in
        assert sum(tally.counts) + tally.lumped == tally.steps

    @pytest.mark.parametrize(
        "burn_in, counts, lumped, queue_sum",
        [
            (1234, (1253, 249, 150, 79, 26), 9, 940),
            (0, (2185, 399, 231, 118, 45), 22, 1513),
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
        assert sum(tally.p_hat) + tally.lumped_mass == pytest.approx(1.0, abs=1e-12)


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
        short = SimulationConfig(iterations=20_000, runs=8, burn_in=1_000,
                                 seed=29, k_max=20)
        long = SimulationConfig(iterations=191_000, runs=8, burn_in=1_000,
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
