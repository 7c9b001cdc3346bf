"""Power-series recursion: coefficient tables, division, breakdown, pgf."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import light_f_vectors, model_specs, reference_distribution
from onoffqueue import (
    ModelSpec,
    NumericConfig,
    PoleNear,
    QueueDistribution,
    Unstable,
    expected_queue,
    from_strings,
    g_coefficients,
    moments,
    pgf_eval,
    queue_distribution,
    queue_distribution_constant_batch,
    series_coefficients,
    validate,
)

EXACT = NumericConfig(backend="exact", k_max=60)


def naive_convolve(a, b):
    """Independent polynomial-product oracle for the G recurrence."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestGCoefficients:
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


class TestReferenceEquality:
    """Degree-bounded tables and integer exact division change no result."""

    @given(model_specs(backend="exact"), st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_exact_equals_fraction_recurrence(self, spec, k_max):
        config = NumericConfig(backend="exact", k_max=k_max)
        dist = queue_distribution(spec, config)
        assert dist == reference_distribution(spec, config)

    @given(model_specs(), st.integers(0, 60))
    @settings(max_examples=150, deadline=None)
    def test_float_bitwise_equals_full_table_recurrence(self, spec, k_max):
        config = NumericConfig(k_max=k_max)
        dist = queue_distribution(spec, config)
        ref = reference_distribution(spec, config)
        for name in QueueDistribution.__dataclass_fields__:
            assert bits(getattr(dist, name)) == bits(getattr(ref, name)), name

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

    @given(light_f_vectors(), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_matches_general_path_exactly(self, f, r):
        cfg = NumericConfig(backend="exact", k_max=40)
        special = queue_distribution_constant_batch(f, r, cfg)
        g = tuple([Fraction(0)] * (r - 1) + [Fraction(1)])
        general = queue_distribution(validate(ModelSpec(f, g), cfg), cfg)
        assert special.p == general.p

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

    def test_pole_refused(self, table1):
        with pytest.raises(PoleNear):
            pgf_eval(table1, 1 - 1e-13)

    def test_domain_checked(self, table1):
        with pytest.raises(ValueError):
            pgf_eval(table1, 1.5)
        with pytest.raises(ValueError):
            pgf_eval(table1, -0.1)


class TestMeanConsistency:
    def test_series_mean_matches_closed_form(self, table1_exact, table2_exact):
        cfg = NumericConfig(backend="exact", k_max=400)
        for spec, tol in ((table1_exact, 1e-6), (table2_exact, 1e-3)):
            dist = queue_distribution(spec, cfg)
            mean = sum(k * p for k, p in enumerate(dist.p))
            assert abs(float(mean - expected_queue(moments(spec)))) < tol


class TestNumericConfig:
    def test_rejects_negative_kmax(self):
        with pytest.raises(ValueError):
            NumericConfig(k_max=-1)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            NumericConfig(backend="decimal")
        with pytest.raises(ValueError):
            NumericConfig(backend="exact-rational")
