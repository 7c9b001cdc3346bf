"""Closed-form E[Q] and E[T] against hand-derived and degenerate cases."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import light_f_vectors, model_specs
from onoffqueue import (
    ModelSpec,
    MomentSummary,
    NumericConfig,
    Unstable,
    ZeroArrivalRate,
    expected_delay,
    expected_queue,
    expected_queue_constant_batch,
    from_strings,
    moments,
    report,
    validate,
)


class TestExpectedQueue:
    def test_table1_exact(self, table1_exact):
        assert expected_queue(moments(table1_exact)) == Fraction(649, 1080)

    def test_table1_float(self, table1):
        assert expected_queue(moments(table1)) == pytest.approx(649 / 1080, abs=1e-14)

    def test_table2_exact(self, table2_exact):
        assert expected_queue(moments(table2_exact)) == Fraction(2217, 350)

    def test_unit_batches_never_queue(self):
        # r = 1: every on slot brings exactly the one unit the server clears
        for f in (("0.5", "0.5"), ("0.8", "0.1", "0.1"), ("0.3", "0.2", "0.2", "0.3")):
            spec = from_strings(f, ("1.0",), backend="exact")
            assert expected_queue(moments(spec)) == 0

    def test_batch_variance_only(self):
        # constant on-length contribution isolated: var(g) = 0 leaves the
        # var(f) term, checked against the constant-batch closed form
        spec = from_strings(("0.5", "0.5"), ("0", "1"), backend="exact")
        mom = moments(spec)
        assert expected_queue(mom) == Fraction(1, 3)
        assert expected_queue_constant_batch(mom.f_bar, mom.f2_bar, 2) == Fraction(1, 3)

    @given(model_specs())
    @settings(max_examples=80, deadline=None)
    def test_nonnegative(self, spec):
        assert expected_queue(moments(spec)) >= 0

    def test_blows_up_approaching_saturation(self):
        # constant batch r=2 with on mass s: rho = 2s/(1+s) -> 1 as s -> 1
        values = []
        for s in (0.5, 0.7, 0.9, 0.97, 0.99):
            spec = validate(ModelSpec((1 - s, s), (0.0, 1.0)))
            values.append(expected_queue(moments(spec)))
        assert all(a < b for a, b in zip(values, values[1:]))


class TestExpectedDelay:
    def test_table1(self, table1_exact):
        assert expected_delay(moments(table1_exact)) == Fraction(649, 504)

    def test_little_identity(self, table2):
        mom = moments(table2)
        assert expected_delay(mom) * mom.lam == pytest.approx(
            expected_queue(mom), rel=1e-14
        )

    def test_zero_queue_zero_delay(self):
        spec = from_strings(("0.5", "0.5"), ("1.0",), backend="exact")
        assert expected_delay(moments(spec)) == 0

    def test_zero_arrival_rate_guarded(self):
        degenerate = MomentSummary(
            f_bar=0, f2_bar=0, g_bar=1, g2_bar=1, rho=0, lam=0, pi0=1, b0=1
        )
        with pytest.raises(ZeroArrivalRate):
            expected_delay(degenerate)


class TestConstantBatch:
    def test_r1_is_zero_for_any_f(self):
        for f_bar, f2_bar in ((0.5, 0.5), (0.35, 0.75), (2.0, 5.0)):
            assert expected_queue_constant_batch(f_bar, f2_bar, 1) == 0

    def test_hand_evaluated_case(self):
        assert expected_queue_constant_batch(
            Fraction(1, 2), Fraction(1, 2), 2
        ) == Fraction(1, 3)

    def test_unstable_raises(self):
        # f_bar = 0.6: rho = 3 * 0.6 / 1.6 > 1
        with pytest.raises(Unstable):
            expected_queue_constant_batch(0.6, 1.2, 3)

    def test_rejects_fractional_r(self):
        with pytest.raises(ValueError):
            expected_queue_constant_batch(0.5, 0.5, 0)

    @given(light_f_vectors(), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_specializes_general_formula(self, f, r):
        g = tuple([Fraction(0)] * (r - 1) + [Fraction(1)])
        spec = validate(ModelSpec(f, g), NumericConfig(backend="exact"))
        mom = moments(spec)
        assert expected_queue_constant_batch(mom.f_bar, mom.f2_bar, r) == expected_queue(mom)


class TestReport:
    def test_fields_consistent(self, table1):
        mom = moments(table1)
        rep = report(mom)
        assert rep.expected_queue >= 0
        assert rep.expected_delay * mom.lam == pytest.approx(rep.expected_queue, rel=1e-14)
        assert rep.expected_queue == expected_queue(mom)
