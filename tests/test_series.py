"""Power-series recursion: coefficient tables, division, breakdown, pgf."""

from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    TABLE1_F,
    TABLE1_G,
    TABLE2_F,
    TABLE2_G,
    light_f_vectors,
    model_specs,
    reference_distribution,
    reference_tables,
)
from onoffqueue import (
    ModelSpec,
    NumericConfig,
    QueueDistribution,
    SimulationConfig,
    Unstable,
    ValidationError,
    expected_queue,
    expected_queue_constant_batch,
    from_strings,
    moments,
    pgf_eval,
    queue_distribution,
    queue_distribution_constant_batch,
    validate,
)
from onoffqueue.series import _divide_series, g_coefficients, series_coefficients

EXACT = NumericConfig(backend="exact", k_max=60)


def naive_convolve(a, b):
    """Independent polynomial-product oracle for the G recurrence."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestGCoefficients:
    def test_negative_kmax_rejected(self, table1):
        with pytest.raises(ValueError):
            g_coefficients(table1, -1)

    def test_column_zero_is_delta(self, table1):
        G = g_coefficients(table1, 6)
        assert [G[i][0] for i in range(7)] == [1.0, 0, 0, 0, 0, 0, 0]

    def test_column_one_is_shifted_g(self, table1):
        G = g_coefficients(table1, 6)
        assert [G[i][1] for i in range(7)] == [0.4, 0.4, 0.2, 0, 0, 0, 0]

    def test_column_two_matches_convolution_oracle(self, table1_exact):
        G = g_coefficients(table1_exact, 6)
        shifted = list(table1_exact.g)
        expected = naive_convolve(shifted, shifted)
        assert [G[i][2] for i in range(5)] == expected
        assert [float(v) for v in expected] == pytest.approx(
            [0.16, 0.32, 0.32, 0.16, 0.04]
        )

    def test_higher_columns_match_convolution_oracle(self, table2_exact):
        G = g_coefficients(table2_exact, 16)
        power = [Fraction(1)]
        for j in range(1, table2_exact.n + 1):
            power = naive_convolve(power, list(table2_exact.g))
            for i in range(17):
                want = power[i] if i < len(power) else 0
                assert G[i][j] == want

    @given(model_specs(backend="exact"))
    @settings(max_examples=30, deadline=None)
    def test_columns_are_probability_masses(self, spec):
        k_max = spec.n * (spec.m - 1) + 2
        G = g_coefficients(spec, k_max)
        for j in range(spec.n + 1):
            column = [G[i][j] for i in range(k_max + 1)]
            assert all(v >= 0 for v in column)
            # full mass present once k_max covers the column's degree j*(m-1)
            assert sum(column) == 1


class TestSeriesCoefficients:
    def test_table1_d0_n0(self, table1_exact):
        N, D = series_coefficients(table1_exact, g_coefficients(table1_exact, 4))
        assert D[0] == Fraction(-532, 625)  # -0.8512
        assert N[0] == Fraction(-687, 625)  # -1.0992

    def test_d0_is_negative(self, table2):
        N, D = series_coefficients(table2, g_coefficients(table2, 4))
        assert D[0] < 0
        assert len(N) == len(D) == 5  # one coefficient per row of G

    def test_d1_carries_the_delta(self, table1_exact):
        G = g_coefficients(table1_exact, 4)
        _, D = series_coefficients(table1_exact, G)
        f = table1_exact.f
        assert D[1] == 1 - sum(f[j] * G[1][j] for j in range(table1_exact.n + 1))

    @given(model_specs(backend="exact"))
    @settings(max_examples=30, deadline=None)
    def test_series_match_pgf_components_at_sample_point(self, spec):
        # N and D coefficient vectors must evaluate to the closed forms
        k_max = spec.n * (spec.m - 1) + 4
        N, D = series_coefficients(spec, g_coefficients(spec, k_max))
        z = Fraction(1, 3)
        ratio = sum(p * z ** (i - 1) for i, p in enumerate(spec.g, start=1))
        powers = [Fraction(1)]
        for _ in range(spec.n):
            powers.append(powers[-1] * ratio)
        d_closed = z - sum(spec.f[i] * powers[i] for i in range(spec.n + 1))
        n_closed = (z - 1) * sum(
            spec.f[i] * sum(powers[: i + 1]) for i in range(spec.n + 1)
        )
        assert sum(c * z**i for i, c in enumerate(D)) == d_closed
        assert sum(c * z**i for i, c in enumerate(N)) == n_closed


class TestQueueDistribution:
    def test_table1_head_probability(self, table1_exact):
        dist = queue_distribution(table1_exact, EXACT)
        assert dist.p[0] == Fraction(458, 665)

    def test_table1_float_head(self, table1):
        dist = queue_distribution(table1, NumericConfig(k_max=10))
        assert dist.p[0] == pytest.approx(458 / 665, abs=1e-14)

    def test_degenerate_unit_batch_model(self):
        spec = from_strings(("0.5", "0.5"), ("1.0",), backend="exact")
        dist = queue_distribution(spec, EXACT)
        assert dist.p[0] == 1
        assert all(v == 0 for v in dist.p[1:])
        assert dist.mass_accounted == 1

    def test_table1_float_breakdown(self, table1):
        dist = queue_distribution(table1, NumericConfig(k_max=400))
        assert dist.breakdown_detected
        assert dist.k_effective >= 25
        assert dist.breakdown_index == dist.k_effective + 1
        assert abs(dist.breakdown_value) < 1e-12
        assert dist.breakdown_reason == "negative"

    def test_float_mass_breakdown(self):
        # never seen on a real model; kept as a fault check on the division:
        # N = -0.6, D = z - 1 gives p = 0.6 for every k, so row 1 takes the
        # cumulative mass to 1.2
        dist = _divide_series(1.0, (-0.6, 0.0), (-1.0, 1.0), 5)
        assert dist.p == (0.6,)
        assert (dist.breakdown_index, dist.breakdown_value, dist.breakdown_reason) == (1, 0.6, "mass")

    def test_table2_float_reaches_deep(self, table2):
        # this environment's rounding keeps the tail positive well past the
        # point where the true coefficients sink under the noise floor
        dist = queue_distribution(table2, NumericConfig(k_max=400))
        assert dist.k_effective >= 80

    def test_exact_mode_never_breaks_down(self, table1_exact):
        dist = queue_distribution(table1_exact, NumericConfig(backend="exact", k_max=200))
        assert not dist.breakdown_detected
        assert dist.k_effective == 200
        assert all(v > 0 for v in dist.p)

    def test_backend_agreement_before_breakdown(self, table1, table1_exact):
        float_dist = queue_distribution(table1, NumericConfig(k_max=400))
        exact_dist = queue_distribution(
            table1_exact, NumericConfig(backend="exact", k_max=float_dist.k_effective)
        )
        for pf, pe in zip(float_dist.p, exact_dist.p):
            assert pf == pytest.approx(float(pe), abs=1e-12)

    def test_backend_agreement_heavy_model(self, table2, table2_exact):
        float_dist = queue_distribution(table2, NumericConfig(k_max=400))
        exact_dist = queue_distribution(
            table2_exact, NumericConfig(backend="exact", k_max=float_dist.k_effective)
        )
        for pf, pe in zip(float_dist.p, exact_dist.p):
            assert pf == pytest.approx(float(pe), abs=1e-12)

    def test_mass_and_tail_shape(self, table2_exact):
        dist = queue_distribution(table2_exact, EXACT)
        running = Fraction(0)
        previous = Fraction(1)
        for p, tail in zip(dist.p, dist.tail):
            running += p
            assert running < 1
            assert tail == 1 - running
            assert tail <= previous
            previous = tail
        assert dist.mass_accounted == running

    def test_unvalidated_unstable_spec_rejected(self):
        spec = ModelSpec((0.25, 0.75), (0.0, 0.0, 1.0))  # rho = 3*0.75/1.75 > 1
        with pytest.raises(Unstable):
            queue_distribution(spec, NumericConfig(k_max=5))

    @given(model_specs(backend="exact", rho_max_pct=85))
    @settings(max_examples=15, deadline=None)
    def test_exact_mass_increasing_and_bounded(self, spec):
        dist = queue_distribution(spec, NumericConfig(backend="exact", k_max=40))
        running = Fraction(0)
        for p in dist.p:
            assert p >= 0
            running += p
            assert running <= 1


def bits(value):
    """Exact identity of a float or a tuple of floats, telling -0.0 from 0.0."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value.hex() if isinstance(value, float) else value


# Below, at and above the degree n*(m-1)+1 of N and D, where the tables stop.
DEGREE_OFFSETS = st.integers(-3, 3) | st.integers(4, 60)

# Negative zeros in both vectors: a float spec taken as given keeps them.
SIGNED_ZEROS = validate(ModelSpec((0.8, -0.0, 0.1, 0.1), (-0.0, 0.75, 0.25)))


class TestReferenceEquality:
    """Degree-bounded tables and integer exact division change no result."""

    @given(model_specs(backend="exact"), st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    # an odd prime of d0 cancels more than once: the full-gcd fallback
    @example(from_strings(["0.88", "0.04", "0.02", "0.01", "0.04", "0.01"],
                          ["0.25", "0.33", "0.28", "0.14"], backend="exact"), 150)
    @example(from_strings(["0.73", "0.19", "0.08"], ["0.30", "0.03", "0.67"],
                          backend="exact"), 150)
    # every scaled d_j is a multiple of 11 (the content of d)
    @example(from_strings(["0.31", "0.25", "0.44"], ["0.96", "0.04"], backend="exact"), 150)
    # odd primes in the entries' denominators
    @example(from_strings(["1/3", "2/3"], ["1/7", "6/7"], backend="exact"), 150)
    # all-zero rows
    @example(from_strings(["0.5", "0.5"], ["1"], backend="exact"), 150)
    @example(from_strings(["0.5", "0.5"], ["0", "1"], backend="exact"), 150)
    # the bundled models, rows far past the width of D
    @example(from_strings(TABLE1_F, TABLE1_G, backend="exact"), 150)
    @example(from_strings(TABLE2_F, TABLE2_G, backend="exact"), 150)
    # light load: every numerator stays under 30 bits, so no value takes
    # the prime-stripping path
    @example(from_strings(["0.68", "0.24", "0.08"], ["0.90", "0.10"], backend="exact"), 150)
    def test_exact_equals_fraction_recurrence(self, spec, k_max):
        config = NumericConfig(backend="exact", k_max=k_max)
        dist = queue_distribution(spec, config)
        assert dist == reference_distribution(spec, config)
        for value in dist.p + dist.tail + (dist.mass_accounted,):
            assert type(value) is Fraction
            assert value.denominator > 0
            assert gcd(value.numerator, value.denominator) == 1

    @given(model_specs(), st.integers(0, 60))
    @settings(max_examples=150, deadline=None)
    @example(SIGNED_ZEROS, 60)
    def test_float_bitwise_equals_full_table_recurrence(self, spec, k_max):
        config = NumericConfig(k_max=k_max)
        dist = queue_distribution(spec, config)
        ref = reference_distribution(spec, config)
        for name in QueueDistribution.__dataclass_fields__:
            assert bits(getattr(dist, name)) == bits(getattr(ref, name)), name

    @staticmethod
    def assert_tables_match(spec, offset):
        """The library's G, N and D against `reference_tables`, k_max near the degree."""
        k_max = max(0, spec.n * (spec.m - 1) + 1 + offset)
        G = g_coefficients(spec, k_max)
        N, D = series_coefficients(spec, G)
        assert bits((G, N, D)) == bits(reference_tables(spec, k_max))
        number = type(spec.f[0])
        assert all(type(v) is number for v in chain(*G, N, D))

    @given(model_specs(), DEGREE_OFFSETS)
    @settings(max_examples=100, deadline=None)
    def test_float_tables_bitwise_equal_reference(self, spec, offset):
        self.assert_tables_match(spec, offset)

    def test_signed_zero_entries(self):
        # With g[0] = -0.0 the zero cells of G may differ in sign, since the
        # reference also sums the terms past each column's degree; N and D,
        # whose sums start from +0, and every distribution stay bitwise equal.
        for k_max in (0, 3, 7, 60):
            G = g_coefficients(SIGNED_ZEROS, k_max)
            ref_G, ref_N, ref_D = reference_tables(SIGNED_ZEROS, k_max)
            assert G == ref_G
            assert bits(series_coefficients(SIGNED_ZEROS, G)) == bits((ref_N, ref_D))

    @given(model_specs(backend="exact"), DEGREE_OFFSETS)
    @settings(max_examples=40, deadline=None)
    def test_exact_tables_equal_reference(self, spec, offset):
        self.assert_tables_match(spec, offset)

    def test_float_bitwise_through_breakdown(self, table1, table2):
        for spec in (table1, table2):
            config = NumericConfig(k_max=400)
            dist = queue_distribution(spec, config)
            ref = reference_distribution(spec, config)
            for name in QueueDistribution.__dataclass_fields__:
                assert bits(getattr(dist, name)) == bits(getattr(ref, name)), name
        assert queue_distribution(table1, NumericConfig(k_max=400)).breakdown_detected


class TestConstantBatchDistribution:
    def test_head_is_b0_over_f0(self):
        f = (Fraction(1, 2), Fraction(1, 2))
        dist = queue_distribution_constant_batch(f, 2, EXACT)
        assert dist.p[0] == Fraction(2, 3)  # b0/f0 = (1/3)/(1/2)

    def test_r1_trivial(self):
        dist = queue_distribution_constant_batch((0.5, 0.5), 1, NumericConfig(k_max=8))
        assert dist.p[0] == 1
        assert all(v == 0 for v in dist.p[1:])

    def test_unstable_raises(self):
        with pytest.raises(Unstable):
            queue_distribution_constant_batch((0.2, 0.4, 0.4), 3, EXACT)

    @pytest.mark.parametrize("f", [(Fraction(1, 2), Fraction(1, 4)), ("0.5", "0.25"), (0.5, 0.25)])
    def test_exact_rejects_non_stochastic_f(self, f):
        # exact mode renormalises f, so its sum is checked before that
        with pytest.raises(ValidationError):
            queue_distribution_constant_batch(f, 2, EXACT)

    @given(light_f_vectors(), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_matches_general_path_exactly(self, f, r):
        cfg = NumericConfig(backend="exact", k_max=40)
        special = queue_distribution_constant_batch(f, r, cfg)
        g = tuple([Fraction(0)] * (r - 1) + [Fraction(1)])
        general = queue_distribution(validate(ModelSpec(f, g), cfg), cfg)
        assert special == general

    @pytest.mark.parametrize("r", [2, 3])
    def test_float_breakdown_and_head(self, r):
        f = tuple(float(x) for x in TABLE1_F)
        dist = queue_distribution_constant_batch(f, r, NumericConfig(k_max=400))
        assert dist.breakdown_reason == "negative"
        exact = queue_distribution_constant_batch(
            tuple(Fraction(x) for x in TABLE1_F), r,
            NumericConfig(backend="exact", k_max=dist.breakdown_index),
        )
        assert dist.breakdown_index == len(dist.p)
        for got, want in zip(dist.p, exact.p):
            assert abs(got - float(want)) <= 1e-14

    def test_mean_from_distribution_matches_closed_form(self):
        cfg = NumericConfig(backend="exact", k_max=300)
        f = (Fraction(1, 2), Fraction(1, 2))
        dist = queue_distribution_constant_batch(f, 2, cfg)
        mean = sum(k * p for k, p in enumerate(dist.p))
        assert abs(mean - Fraction(1, 3)) < Fraction(1, 10**12)


class TestPgfEval:
    def test_at_zero_equals_head(self, table1_exact):
        dist = queue_distribution(table1_exact, EXACT)
        assert pgf_eval(table1_exact, Fraction(0)) == dist.p[0]

    def test_approaches_one_near_one(self, table1):
        values = [pgf_eval(table1, z) for z in (0.9, 0.99, 0.999)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-2)

    def test_matches_truncated_series(self, table1_exact, table2_exact):
        for spec in (table1_exact, table2_exact):
            dist = queue_distribution(spec, NumericConfig(backend="exact", k_max=200))
            for zs in ("0.1", "0.3", "0.5", "0.7", "0.9"):
                z = Fraction(zs)
                truncated = sum(p * z**k for k, p in enumerate(dist.p))
                assert abs(float(pgf_eval(spec, z) - truncated)) <= 1e-8

    def test_float_matches_series_at_moderate_z(self, table2):
        dist = queue_distribution(table2, NumericConfig(k_max=200))
        assert dist.k_effective >= 100
        for z in (0.1, 0.3, 0.5, 0.7, 0.9):
            truncated = sum(p * z**k for k, p in enumerate(dist.p))
            assert pgf_eval(table2, z) == pytest.approx(truncated, abs=1e-8)

    @given(model_specs(backend="exact"))
    @settings(max_examples=30, deadline=None)
    def test_exactly_one_at_one(self, spec):
        assert pgf_eval(spec, 1) == 1

    @pytest.mark.parametrize("z", [0.999, 1 - 1e-6, 1 - 1e-10, 1 - 1e-12, 1.0])
    def test_float_matches_exact_up_to_one(self, table1, table1_exact, table2, table2_exact, z):
        for spec, exact_spec in ((table1, table1_exact), (table2, table2_exact)):
            exact = pgf_eval(exact_spec, Fraction(z))
            assert abs(Fraction(pgf_eval(spec, z)) - exact) <= Fraction(1e-14) * exact

    def test_domain_checked(self, table1):
        for z in (1.5, -0.1, 1 + 1e-15, float("nan")):
            with pytest.raises(ValueError):
                pgf_eval(table1, z)

    def test_unstable_refused(self):
        # rho = 9/7, and the spec is not validated: pgf_eval must check it itself
        spec = ModelSpec((0.25, 0.75), (0.0, 0.0, 1.0))
        with pytest.raises(Unstable) as dist_error:
            queue_distribution(spec)
        for z in (0.0, 0.5, 1.0):
            with pytest.raises(Unstable) as error:
                pgf_eval(spec, z)
            assert str(error.value) == str(dist_error.value)


class TestMeanConsistency:
    def test_series_mean_matches_closed_form(self, table1_exact, table2_exact):
        cfg = NumericConfig(backend="exact", k_max=400)
        for spec, tol in ((table1_exact, 1e-6), (table2_exact, 1e-3)):
            dist = queue_distribution(spec, cfg)
            mean = sum(k * p for k, p in enumerate(dist.p))
            assert abs(float(mean - expected_queue(moments(spec)))) < tol


@pytest.mark.parametrize(
    "make",
    [
        lambda: NumericConfig(k_max=5.0),
        lambda: SimulationConfig(iterations=1e4, burn_in=0),
        lambda: SimulationConfig(runs=2.0),
        lambda: SimulationConfig(k_max=5.0),
        lambda: SimulationConfig(seed=1.5),
        lambda: queue_distribution_constant_batch((0.5, 0.5), 2.0),
        lambda: queue_distribution_constant_batch((0.5, 0.5), Fraction(2)),
        lambda: expected_queue_constant_batch(0.5, 0.5, 2.0),
    ],
    ids=["config_kmax", "sim_iterations", "sim_runs", "sim_kmax", "sim_seed",
         "constant_batch_float_r", "constant_batch_fraction_r", "expected_queue_float_r"],
)
def test_non_integer_count_rejected(make):
    with pytest.raises(ValueError, match="must be an integer, got "):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: NumericConfig(k_max=True), "k_max must be an integer, got True"),
        (lambda: SimulationConfig(iterations=20000, runs=True), "runs must be an integer, got True"),
        (lambda: SimulationConfig(iterations=20000, burn_in=False),
         "burn_in must be an integer, got False"),
        (lambda: SimulationConfig(k_max=False), "k_max must be an integer, got False"),
        (lambda: SimulationConfig(seed=True), "seed must be an integer, got True"),
        (lambda: queue_distribution_constant_batch((0.5, 0.5), True),
         "batch size r must be an integer, got True"),
        (lambda: expected_queue_constant_batch(0.5, 0.5, True),
         "batch size r must be an integer, got True"),
    ],
    ids=["config_kmax", "sim_runs", "sim_burn_in", "sim_kmax", "sim_seed",
         "constant_batch_r", "expected_queue_r"],
)
def test_boolean_count_rejected(make, message):
    # bool is an int subclass, so operator.index alone would take True as 1
    with pytest.raises(ValueError) as error:
        make()
    assert str(error.value) == message


class TestNumericConfig:
    def test_rejects_negative_kmax(self):
        with pytest.raises(ValueError):
            NumericConfig(k_max=-1)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            NumericConfig(backend="decimal")
        with pytest.raises(ValueError):
            NumericConfig(backend="exact-rational")
