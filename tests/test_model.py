"""Validation, moments, and chain structure of the arrival model."""

import math
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import model_specs, transition_matrix
from onoffqueue import (
    ModelSpec,
    NonStochasticVector,
    NotErgodic,
    NumericConfig,
    Unstable,
    ValidationError,
    coerce,
    from_strings,
    moments,
    queue_distribution,
    stationary_distribution,
    validate,
)
from onoffqueue.config import to_number


class TestValidate:
    def test_table1_is_valid(self, table1):
        assert table1.n == 3
        assert table1.m == 3
        assert sum(table1.f) == pytest.approx(1.0, abs=1e-15)

    def test_never_leaving_off_is_not_ergodic(self):
        with pytest.raises(ValidationError) as err:
            validate(ModelSpec((1.0,), (1.0,)))
        assert any(isinstance(v, NotErgodic) for v in err.value.violations)

    def test_always_on_is_not_ergodic(self):
        with pytest.raises(ValidationError) as err:
            validate(ModelSpec((0.0, 1.0), (1.0,)))
        assert any(isinstance(v, NotErgodic) for v in err.value.violations)

    def test_overloaded_model_is_unstable(self):
        # all batches of size 5 with rho = 5 * 0.75 / 1.75 > 1
        with pytest.raises(ValidationError) as err:
            validate(ModelSpec((0.6, 0.2, 0.1, 0.05, 0.05), (0, 0, 0, 0, 1.0)))
        assert any(isinstance(v, Unstable) for v in err.value.violations)

    def test_all_violations_reported(self):
        with pytest.raises(ValidationError) as err:
            validate(ModelSpec((0.5, 0.3), (0.5, 0.4)))
        kinds = [type(v) for v in err.value.violations]
        assert kinds.count(NonStochasticVector) == 2

    def test_out_of_range_entry(self):
        with pytest.raises(ValidationError) as err:
            validate(ModelSpec((1.2, -0.2), (1.0,)))
        assert sum(isinstance(v, NonStochasticVector) for v in err.value.violations) == 2

    def test_empty_vectors(self):
        with pytest.raises(ValidationError) as err:
            validate(ModelSpec((), ()))
        assert len(err.value.violations) == 2

    def test_float_tolerance_and_renormalization(self):
        drift = 1 + 2e-10
        spec = validate(ModelSpec((0.5 * drift, 0.5 * drift), (1.0,)))
        assert sum(spec.f) == pytest.approx(1.0, abs=1e-15)

    def test_float_sum_outside_tolerance(self):
        with pytest.raises(ValidationError):
            validate(ModelSpec((0.5 * (1 + 1e-8), 0.5 * (1 + 1e-8)), (1.0,)))

    def test_exact_mode_requires_exact_sum(self):
        cfg = NumericConfig(backend="exact")
        with pytest.raises(ValidationError):
            validate(ModelSpec(("0.3", "0.3", "0.3"), ("1.0",)), cfg)
        spec = validate(ModelSpec(("0.4", "0.3", "0.3"), ("1.0",)), cfg)
        assert sum(spec.f) == 1

    def test_from_strings_exact_parses_decimals(self):
        spec = from_strings(("0.8", "0.1", "0.05", "0.05"), ("0.4", "0.4", "0.2"),
                            backend="exact")
        assert spec.f[2] == Fraction(1, 20)

    @pytest.mark.parametrize("backend", ["float64", "exact"])
    def test_malformed_entries_are_violations(self, backend):
        with pytest.raises(ValidationError) as err:
            from_strings(("nan", "inf", "0.5"), ("abc", ["0.5"], "1/0", True), backend=backend)
        messages = [str(v) for v in err.value.violations]
        assert len(messages) == 6
        assert all(isinstance(v, NonStochasticVector) for v in err.value.violations)
        assert messages[0] == "f[0] = 'nan' is not a finite number"
        assert messages[3] == "g[1] = ['0.5'] is not a finite number"
        assert messages[5] == "g[3] = True is not a finite number"

    @pytest.mark.parametrize("backend", ["float64", "exact"])
    def test_decimal_exponent_beyond_digit_limit(self, backend):
        # 0e-100000 is zero, but Fraction's cost grows with the exponent
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValidationError) as err:
            from_strings(("0.5", "0.5", "0e-100000"), ("1",), backend=backend)
        assert str(err.value) == (
            f"f[2] = '0e-100000' has a decimal exponent above {limit} in magnitude"
        )
        spec = from_strings(("0.5", "0.5", f"0e-{limit}"), ("1",), backend=backend)
        assert spec.f[2] == 0

    def test_malformed_entry_reported_with_other_violations(self):
        with pytest.raises(ValidationError) as err:
            from_strings(("0.5", "abc"), ("0.5", "0.4"))
        messages = [str(v) for v in err.value.violations]
        assert messages == ["f[1] = 'abc' is not a finite number",
                            "g sums to 0.9, expected 1 within 1e-09"]

    def test_entry_beyond_float_range(self):
        with pytest.raises(ValidationError) as err:
            from_strings(("0.5", "0.5"), ("1e400",))
        assert str(err.value) == "g[0] = '1e400' is not a finite number"
        with pytest.raises(ValidationError) as err:
            from_strings(("0.5", "0.5"), ("1e400",), backend="exact")
        assert str(err.value).startswith("g[0] = 1.00000e+400 is outside [0, 1]")

    def test_float_nan_entry_is_out_of_range(self):
        with pytest.raises(ValidationError) as err:
            validate(ModelSpec((0.5, float("nan")), (1.0,)))
        assert "f[1] = nan is outside [0, 1]" in str(err.value)

    def test_spec_is_immutable(self, table1):
        with pytest.raises(AttributeError):
            table1.f = (1.0,)


def fraction_to_float(value, backend):
    """The float64 conversion through Fraction, which `to_number` must match."""
    return float(Fraction(value)) if isinstance(value, str) else float(value)


def outcome(parse, text):
    """The bits of parse(text), or the type of what it raised."""
    try:
        return parse(text, "float64").hex()
    except (ValueError, TypeError, ArithmeticError) as exc:
        return type(exc)


def validated(f):
    """repr of from_strings(f, ["1"]), or its violation messages."""
    try:
        return repr(from_strings(f, ("1",)))
    except ValidationError as err:
        return [str(v) for v in err.violations]


@st.composite
def digit_runs(draw):
    """0 to 6000 digits: a short drawn pattern repeated, often with leading zeros."""
    length = draw(st.integers(0, 25) | st.integers(0, 6000))
    pattern = draw(st.text("0123456789", min_size=1, max_size=12))
    return (pattern * (length // len(pattern) + 1))[:length]


@st.composite
def near_halfway(draw):
    """A plain decimal at, just above or just below the midpoint of two floats."""
    x = draw(st.floats(min_value=0, max_value=1e300, exclude_min=True))
    with localcontext() as ctx:
        ctx.prec = 2000
        mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
        text = format(mid, "f")
        eps = Decimal(1).scaleb(-len(text) - 2)
        return format(mid + draw(st.sampled_from([0, eps, -eps])), "f")


@st.composite
def number_strings(draw):
    """Signs, dots, leading zeros, whitespace, underscores, exponents and long runs."""
    digits = draw(digit_runs())
    if digits and draw(st.booleans()):
        cut = draw(st.integers(0, len(digits)))
        digits = digits[:cut] + "_" + digits[cut:]
    return "".join((
        draw(st.sampled_from(["", "", "", " ", "\t"])),
        draw(st.sampled_from(["", "", "+", "-"])),
        draw(st.sampled_from(["", "", "0", "00"])),
        digits,
        draw(st.sampled_from(["", ".", "."])),
        draw(digit_runs()),
        draw(st.sampled_from(["", "", "", "e5", "E-3", "e+0", "e-400", "e400", "e", "/3"])),
        draw(st.sampled_from(["", "", "", " ", "\n"])),
    ))


SPECIAL_STRINGS = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "Infinity", "1/3", "-2/7", "1/0", "", ".", "+", "-.",
    "1__0", "1_0", "_1", "\u0661", "\u0663.\u0665", "0x10", "1e", "e5", "1.2.3", "--1",
    "0", "-0", "-0.000", "+0.", "0.", ".0", "1" * 400, "-" + "9" * 309, "0." + "1" * 5000,
    "0." + "0" * 400 + "1", "-0." + "0" * 400 + "1",
])


class TestDecimalParsing:
    """`to_number` reads plain decimals with float(), bit for bit as through Fraction."""

    @given(number_strings() | near_halfway() | SPECIAL_STRINGS)
    @settings(max_examples=400, deadline=None)
    def test_float_parse_equals_fraction(self, text):
        assert outcome(to_number, text) == outcome(fraction_to_float, text)

    @given(number_strings() | near_halfway() | SPECIAL_STRINGS)
    @settings(max_examples=100, deadline=None)
    def test_from_strings_reports_the_same(self, text):
        f = ("0.5", text)
        with mock.patch("onoffqueue.model.to_number", fraction_to_float):
            expected = validated(f)
        assert validated(f) == expected

    def test_digit_limit_refusal_kept(self):
        # float() reads any length, but Fraction refuses more digits than
        # the int-to-str limit (4300 by default), and so must to_number
        text = "0." + "1" * 5000
        assert float(text) == pytest.approx(1 / 9)
        if 0 < sys.get_int_max_str_digits() < 5000:
            with pytest.raises(ValueError):
                to_number(text, "float64")
            assert validated(("0.5", text)) == [f"f[1] = {text!r} is not a finite number"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert to_number(text, "float64") == float(Fraction(text)) == float(text)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_strings_at_the_digit_limit(self):
        limit = sys.get_int_max_str_digits() or 4300
        for size in (limit - 1, limit, limit + 1):
            for text in ("1" * size, "0." + "1" * (size - 2), "-." + "0" * (size - 3) + "7"):
                assert outcome(to_number, text) == outcome(fraction_to_float, text)


class TestMoments:
    def test_table1_exact_values(self, table1_exact):
        mom = moments(table1_exact)
        assert mom.f_bar == Fraction(7, 20)
        assert mom.f2_bar == Fraction(3, 4)
        assert mom.g_bar == Fraction(9, 5)
        assert mom.g2_bar == Fraction(19, 5)
        assert mom.rho == Fraction(7, 15)
        assert mom.b0 == Fraction(8, 15)
        assert mom.pi0 == Fraction(20, 27)

    def test_table1_float_values(self, table1):
        mom = moments(table1)
        assert mom.f_bar == pytest.approx(0.35, abs=1e-15)
        assert mom.g_bar == pytest.approx(1.8, abs=1e-15)
        assert mom.rho == pytest.approx(7 / 15, abs=1e-15)
        assert mom.b0 == pytest.approx(8 / 15, abs=1e-15)

    def test_table2_values(self, table2_exact):
        mom = moments(table2_exact)
        assert mom.f_bar == Fraction(3, 4)
        assert mom.g_bar == Fraction(21, 10)
        assert mom.rho == Fraction(9, 10)

    def test_deterministic_two_state(self):
        spec = from_strings(("0.5", "0.5"), ("1.0",), backend="exact")
        mom = moments(spec)
        assert mom.f_bar == Fraction(1, 2)
        assert mom.g_bar == 1
        assert mom.rho == Fraction(1, 3)
        assert mom.b0 == Fraction(2, 3)

    def test_moments_pure(self, table1):
        a, b = moments(table1), moments(table1)
        assert a == b

    @given(model_specs())
    @settings(max_examples=60, deadline=None)
    def test_moment_invariants(self, spec):
        mom = moments(spec)
        assert mom.g_bar >= 1
        assert mom.f2_bar >= mom.f_bar**2 - 1e-12
        assert mom.g2_bar >= mom.g_bar**2 - 1e-12
        assert 0 <= mom.rho < 1
        assert mom.b0 == 1 - mom.rho
        assert mom.lam == mom.rho


class TestTransitionMatrix:
    def test_two_state(self):
        spec = validate(ModelSpec((0.5, 0.5), (1.0,)))
        assert transition_matrix(spec) == ((0.5, 0.5), (1.0, 0.0))

    def test_table1_structure(self, table1):
        matrix = transition_matrix(table1)
        assert len(matrix) == 4
        assert matrix[0] == table1.f
        for i in range(1, 4):
            assert matrix[i][i - 1] == 1.0
            assert sum(matrix[i]) == 1.0

    @given(model_specs())
    @settings(max_examples=40, deadline=None)
    def test_rows_are_stochastic(self, spec):
        for row in transition_matrix(spec):
            assert sum(row) == pytest.approx(1.0, abs=1e-12)


class TestStationaryDistribution:
    def test_two_state(self):
        spec = from_strings(("0.5", "0.5"), ("1.0",), backend="exact")
        assert stationary_distribution(spec) == (Fraction(2, 3), Fraction(1, 3))

    def test_table1_pi0(self, table1):
        pi = stationary_distribution(table1)
        assert pi[0] == pytest.approx(20 / 27, abs=1e-15)
        assert sum(pi) == pytest.approx(1.0, abs=1e-12)

    def test_exact_fixed_point(self, table1_exact):
        pi = stationary_distribution(table1_exact)
        matrix = transition_matrix(table1_exact)
        n = len(pi)
        for j in range(n):
            assert sum(pi[i] * matrix[i][j] for i in range(n)) == pi[j]

    @given(model_specs())
    @settings(max_examples=40, deadline=None)
    def test_float_fixed_point(self, spec):
        pi = stationary_distribution(spec)
        matrix = transition_matrix(spec)
        n = len(pi)
        for j in range(n):
            assert sum(pi[i] * matrix[i][j] for i in range(n)) == pytest.approx(
                pi[j], abs=1e-12
            )

    @given(model_specs())
    @settings(max_examples=40, deadline=None)
    def test_rearrangement_identity(self, spec):
        mom = moments(spec)
        assert (1 - mom.pi0) / mom.pi0 == pytest.approx(mom.f_bar, abs=1e-12)


class TestCoerce:
    def test_exact_coercion_renormalizes(self, table1):
        exact = coerce(table1, "exact")
        assert sum(exact.f) == 1
        assert sum(exact.g) == 1

    def test_exact_coercion_is_identity_on_exact_input(self, table1_exact):
        assert coerce(table1_exact, "exact") == table1_exact

    def test_float_coercion(self, table1_exact):
        spec = coerce(table1_exact, "float64")
        assert isinstance(spec.f[0], float)

    @pytest.mark.parametrize("backend", ["float64", "exact"])
    def test_decimal_exponent_beyond_digit_limit_refused(self, backend):
        # parsing 1e-1000000 would take ~0.3 s, and longer as the exponent grows
        spec = ModelSpec(("1e-1000000", "0.5"), ("1",))
        limit = sys.get_int_max_str_digits()
        message = f"'1e-1000000' has a decimal exponent above {limit} in magnitude"
        start = time.perf_counter()
        with pytest.raises(ValueError) as coerced:
            coerce(spec, backend)
        with pytest.raises(ValueError) as distributed:
            queue_distribution(spec, NumericConfig(backend, 10))
        assert time.perf_counter() - start < 0.1
        assert str(coerced.value) == str(distributed.value) == message

    def test_float_coercion_of_floats_is_identity(self, table1):
        assert coerce(table1, "float64") is table1
        spec = coerce(ModelSpec((np.float64(0.5), 0.5), (1, True)), "float64")
        assert spec == ModelSpec((0.5, 0.5), (1.0, 1.0))
        assert all(type(v) is float for v in spec.f + spec.g)
