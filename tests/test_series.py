"""Power-series recursion: coefficient tables, division, breakdown, pgf."""

import builtins
import dataclasses
import gc
import hashlib
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import chain, islice
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    EXACT_DIST_DIGESTS,
    SIGNED_ZEROS,
    TABLE1_F,
    TABLE1_G,
    TABLE2_F,
    TABLE2_G,
    build_model,
    light_f_vectors,
    model_specs,
    reference_distribution,
    reference_divide,
    reference_tables,
    roots_distribution,
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
    report,
    validate,
)
from onoffqueue import series
from onoffqueue.cli import main
from onoffqueue.series import (_divide_series, deflated_coefficients, g_coefficients,
                               series_coefficients)

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

    def test_huge_k_max_stops_at_breakdown_in_little_memory(self, table1):
        # rows past the end of N are fed lazily, never as a k_max-long list
        tracemalloc.start()
        try:
            dist = queue_distribution(table1, NumericConfig(k_max=10**9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.breakdown_index == 41
        assert peak < 2**20

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


def assert_bitwise_equal(dist, ref):
    """Every field, and the tail, which is a property and not a field, bit for bit."""
    for name in (*QueueDistribution.__dataclass_fields__, "tail"):
        assert bits(getattr(dist, name)) == bits(getattr(ref, name)), name


# Entries of a random division input, zeros of both signs included.
SIGNED_UNITS = st.floats(-0.25, 1.0) | st.sampled_from([0.0, -0.0])


@st.composite
def division_inputs(draw):
    """(b0, N, D, k_max) with D[0] < 0 and D's last nonzero index in 0..100.

    D[1:] is scaled so its sum stays near |D[0]|: about two thirds of the
    cases run to k_max, the rest break down on a negative value.
    """
    window = draw(st.integers(0, 100))
    k_max = draw(st.integers(0, 150))
    d0 = -draw(st.floats(0.5, 2.0))
    scale = draw(st.floats(1 / 64, 1.5)) / max(window, 1)
    body = draw(st.lists(SIGNED_UNITS, min_size=window, max_size=window))
    if window:
        body[-1] = draw(st.floats(1 / 64, 1.0))
    D = [d0] + [u * scale for u in body] + [0.0] * draw(st.integers(0, 3))
    n_scale = draw(st.floats(1 / 1024, 0.5))
    # 0.0 - x is never -0.0: like the tables' sums, which start from +0, N
    # has no -0.0 entry for the kernel's leading zero products to turn to +0.0
    N = [0.0 - u * n_scale for u in draw(st.lists(SIGNED_UNITS, max_size=k_max + 2))]
    return draw(st.floats(1 / 64, 1.0)), N, D, k_max


def windowed_case(window, k_max):
    """A division input whose D ends at index `window`, with unequal weights
    summing to 0.9 |D[0]|, so every row to k_max is computed."""
    weights = [1.8 * j / (window * (window + 1)) for j in range(1, window + 1)]
    return 0.5, [-0.1, -0.02], [-1.0] + weights, k_max


# Below, at and above the degree n*(m-1)+1 of N and D, where the tables stop.
DEGREE_OFFSETS = st.integers(-3, 3) | st.integers(4, 60)

# n = 10 and m = 8, past `model_specs()`: rows of 11 cells, N and D of degree 71.
LARGE = ((5, 1, 9, 2, 7, 3, 8, 4, 6, 10), (3, 9, 1, 7, 2, 8, 4, 6), 95)


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
    # `bench/inputs.table2_like` seeds 2 and 20: the full gcd runs on almost every value
    @example(from_strings(["0.42", "0.10", "0.44", "0.01", "0.03"], ["0.81", "0.10", "0.01", "0.08"],
                          backend="exact"), 150)
    @example(from_strings(["0.60", "0.23", "0.11", "0.05", "0.01"], ["0.27", "0.30", "0.41", "0.02"],
                          backend="exact"), 150)
    def test_exact_equals_fraction_recurrence(self, spec, k_max):
        config = NumericConfig(backend="exact", k_max=k_max)
        dist = queue_distribution(spec, config)
        ref = reference_distribution(spec, config)
        assert dist == ref
        assert dist.tail == ref.tail
        values = dist.p + dist.tail + (dist.mass_accounted,)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # Python 3.10 pickles a Fraction through str()
        try:
            copies = pickle.loads(pickle.dumps(values))
        finally:
            sys.set_int_max_str_digits(limit)
        for value, loaded in zip(values, copies, strict=True):
            assert type(value) is Fraction
            assert value.denominator > 0
            assert gcd(value.numerator, value.denominator) == 1
            # each value is built by setting Fraction's slots: it must act as
            # a Fraction built by its constructor
            assert hash(value) == hash(Fraction(value.numerator, value.denominator))
            assert loaded == value

    @given(model_specs(), st.integers(0, 60))
    @settings(max_examples=150, deadline=None)
    @example(SIGNED_ZEROS, 60)
    def test_float_bitwise_equals_full_table_recurrence(self, spec, k_max):
        config = NumericConfig(k_max=k_max)
        dist = queue_distribution(spec, config)
        ref = reference_distribution(spec, config)
        assert_bitwise_equal(dist, ref)

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
    @example(build_model(*LARGE), 3)
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
    @example(build_model(*LARGE, backend="exact"), 3)
    def test_exact_tables_equal_reference(self, spec, offset):
        self.assert_tables_match(spec, offset)

    @given(division_inputs())
    @settings(max_examples=150, deadline=None)
    # windows across the 32-term statements of the kernel
    @example(windowed_case(31, 150))
    @example(windowed_case(32, 150))
    @example(windowed_case(33, 150))
    @example(windowed_case(64, 150))
    @example(windowed_case(65, 150))
    # k_max below the window, and no row but the first
    @example(windowed_case(65, 40))
    @example(windowed_case(3, 1))
    @example(windowed_case(33, 0))
    @example((1.0, [-0.5], [-1.0], 0))
    # a breakdown on mass at row 1
    @example((1.0, [-0.6], [-1.0, 1.0], 5))
    def test_float_division_bitwise_equals_reference(self, case):
        dist = _divide_series(*case)
        ref = reference_divide(*case)
        assert_bitwise_equal(dist, ref)

    def test_float_bitwise_through_breakdown(self, table1, table2):
        for spec in (table1, table2):
            config = NumericConfig(k_max=400)
            dist = queue_distribution(spec, config)
            ref = reference_distribution(spec, config)
            assert_bitwise_equal(dist, ref)
        assert queue_distribution(table1, NumericConfig(k_max=400)).breakdown_detected


def digest_models(seed, count):
    """count float models from a seeded stdlib generator: n up to 10, m up to 8, rho up to 0.95."""
    rng = random.Random(seed)
    for _ in range(count):
        on = [rng.randint(1, 1000) for _ in range(rng.randint(1, 10))]
        sizes = [rng.randint(1, 1000) for _ in range(rng.randint(1, 8))]
        yield build_model(on, sizes, rng.randint(5, 95))


class TestFloatDigest:
    """The float bits over a domain wider than `model_specs()`, pinned on every interpreter."""

    def test_moments_and_distributions_keep_their_bits(self):
        digest = hashlib.sha256()
        for spec in digest_models(seed=40, count=300):
            dist = queue_distribution(spec, NumericConfig(k_max=200))
            fields = (dataclasses.astuple(moments(spec)), dist.p, dist.breakdown_index,
                      dist.breakdown_value, dist.breakdown_reason, dist.mass_accounted)
            digest.update(repr(bits(fields)).encode())
        # the bits of the generator folds through `ordered_sum` that `reference_tables`
        # and `reference_moments` keep
        assert digest.hexdigest() == "9f5e3be829a647cd1e9f9c50912eb2195560b81cc23eab60520173f8d609999d"


class TestNoBuiltinSum:
    """No float path calls the builtin sum(), which is compensated from Python 3.12."""

    def test_float_paths_run_with_sum_refused(self, monkeypatch, capsys, table1_path, table2_path):
        built = [SIGNED_ZEROS, build_model(*LARGE)]  # build_model itself calls sum()

        def refused(*args, **kwargs):
            raise AssertionError("builtin sum() called")

        monkeypatch.setattr(builtins, "sum", refused)
        parsed = [from_strings(TABLE1_F, TABLE1_G), from_strings(TABLE2_F, TABLE2_G)]
        for spec in parsed + built:
            report(moments(spec))
            assert queue_distribution(spec, NumericConfig(k_max=300)).tail
            assert 0 < pgf_eval(spec, 0.5) < 1
        for r in (1, 3):
            assert queue_distribution_constant_batch(TABLE1_F, r, NumericConfig(k_max=100)).tail
        for path in (table1_path, table2_path):
            assert main(["dist", path, "--kmax", "300"]) == 0
        assert capsys.readouterr().out


class TestDeflatedCoefficients:
    """S = N/(z - 1) and E = D/(z - 1), built without the G table."""

    @given(model_specs(backend="exact"))
    @example(from_strings(TABLE1_F, TABLE1_G, backend="exact"))
    @example(from_strings(TABLE2_F, TABLE2_G, backend="exact"))
    @example(from_strings(("0.7", "0.2", "0.1"), ("1",), backend="exact"))  # m = 1
    @settings(max_examples=100, deadline=None)
    def test_times_z_minus_one_is_the_raw_recurrence(self, spec):
        N, D = series_coefficients(spec, g_coefficients(spec, spec.n * (spec.m - 1) + 1))
        for deflated, raw in zip(deflated_coefficients(spec), (N, D)):
            shifted = naive_convolve(deflated, [-1, 1])  # (z - 1) times the polynomial
            assert len(shifted) <= len(raw)
            assert shifted + [0] * (len(raw) - len(shifted)) == list(raw)

    # f[0] and g_1 both small: E[0] as 1 - c_0 T_0 would be off by 2.2e-13 relative here
    @given(model_specs())
    @example(from_strings(("1e-8", "0.99999999"), ("0.0001", "0.9999")))
    @settings(max_examples=100, deadline=None)
    def test_float_within_2e15_of_exact_on_the_same_inputs(self, spec):
        exact_spec = ModelSpec(tuple(map(Fraction, spec.f)), tuple(map(Fraction, spec.g)))
        for got, want in zip(deflated_coefficients(spec), deflated_coefficients(exact_spec)):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert abs(Fraction(a) - b) <= Fraction(2e-15) * abs(b)

    # the same bits on every interpreter: every sum goes in a fixed order, never through sum()
    @pytest.mark.parametrize("name, digest", [
        ("table1", "cb38c335040f30010b7afff74acd34702f170b227b0f02b7b088cd4d5a38881e"),
        ("table2", "f4dc55998a35099cc062372bf6a9e170f8af768350c2d0f7962f7fa83b039576"),
    ])
    def test_float_bits_pinned(self, request, name, digest):
        S, E = deflated_coefficients(request.getfixturevalue(name))
        text = " ".join(v.hex() for v in S + E)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRootsReference:
    """The roots (partial-fraction) form of P(z) = b0 S(z)/E(z), a fourth computation."""

    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_matches_exact(self, request, name):
        spec = request.getfixturevalue(f"{name}_exact")
        exact = queue_distribution(spec, NumericConfig(backend="exact", k_max=300)).p
        k_first, p = roots_distribution(spec, 300)
        assert k_first == 2  # deg S - deg E = 1
        shown = [k for k in range(k_first, 301) if exact[k] > 1e-290]
        assert len(shown) == 299
        for k in shown:
            want = float(exact[k])
            assert abs(float(p[k - k_first]) - want) <= 1e-12 * want, k


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
        special = queue_distribution_constant_batch(f, r, cfg)  # the closed-form N/D
        g = tuple([Fraction(0)] * (r - 1) + [Fraction(1)])
        general = queue_distribution(validate(ModelSpec(f, g), cfg.backend), cfg)  # S/E
        assert special == general
        assert special.tail == general.tail

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

    @staticmethod
    def divide_inputs(monkeypatch, f, r, config):
        """The result, and the arguments the constant-batch path passes to `_divide`."""
        seen = []
        divide = series._divide

        def spy(*args):
            seen.append(args)
            return divide(*args)

        monkeypatch.setattr(series, "_divide", spy)
        dist = queue_distribution_constant_batch(f, r, config)
        (args,) = seen
        return dist, args

    def test_float_bitwise_equals_reference_division(self, monkeypatch):
        # D reaches index 3 * 19 = 57: a window across two kernel statements
        config = NumericConfig(k_max=150)
        dist, (b0, N, D, _) = self.divide_inputs(monkeypatch, (0.98, 0.01, 0.005, 0.005), 20, config)
        assert max(i for i, c in enumerate(D) if c) == 57
        assert_bitwise_equal(dist, reference_divide(b0, N, D, config.k_max))

    @pytest.mark.parametrize("backend", ["float64", "exact"])
    @pytest.mark.parametrize("k_max", [0, 1, 50])
    def test_tables_stop_at_k_max(self, monkeypatch, backend, k_max):
        config = NumericConfig(backend=backend, k_max=k_max)
        dist, (_, N, D, _) = self.divide_inputs(monkeypatch, ("0.9999999", "0.0000001"), 10**6, config)
        assert len(N) == len(D) <= k_max + 1
        assert dist.k_effective == k_max

    def test_mean_from_distribution_matches_closed_form(self):
        cfg = NumericConfig(backend="exact", k_max=300)
        f = (Fraction(1, 2), Fraction(1, 2))
        dist = queue_distribution_constant_batch(f, 2, cfg)
        mean = sum(k * p for k, p in enumerate(dist.p))
        assert abs(mean - Fraction(1, 3)) < Fraction(1, 10**12)


TABLE1_FLOAT_F = tuple(float(x) for x in TABLE1_F)

# Every float path that builds a distribution, called with (table1, table2).
FLOAT_PATHS = {
    "table1_breakdown": lambda t1, t2: queue_distribution(t1, NumericConfig(k_max=400)),
    "table2": lambda t1, t2: queue_distribution(t2, NumericConfig(k_max=200)),
    "divide_series": lambda t1, t2: _divide_series(*windowed_case(33, 150)),
    "constant_batch_r1": lambda t1, t2: queue_distribution_constant_batch(
        TABLE1_FLOAT_F, 1, NumericConfig(k_max=100)),
    "constant_batch_r3": lambda t1, t2: queue_distribution_constant_batch(
        TABLE1_FLOAT_F, 3, NumericConfig(k_max=100)),
}


class TestLazyTail:
    """A float distribution stores p alone; its tail is derived and cached on the first read."""

    @pytest.mark.parametrize("path", FLOAT_PATHS)
    def test_float_tail_derived_on_first_read(self, table1, table2, path):
        dist, twin = (FLOAT_PATHS[path](table1, table2) for _ in range(2))
        assert "_tail" not in vars(dist)
        seen = (hash(dist), repr(dist))
        unread = (pickle.loads(pickle.dumps(dist)), dataclasses.replace(dist))
        tail = dist.tail
        assert dist.tail is tail
        assert len(tail) == len(dist.p)
        assert dist == twin and "_tail" not in vars(twin)
        assert (hash(dist), repr(dist)) == (hash(twin), repr(twin)) == seen
        read = (pickle.loads(pickle.dumps(dist)), dataclasses.replace(dist))
        for copy in unread + read:
            assert copy == dist and hash(copy) == hash(dist)
            assert bits(copy.tail) == bits(tail)

    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_exact_tail_from_the_division(self, request, name):
        dist = queue_distribution(request.getfixturevalue(f"{name}_exact"),
                                  NumericConfig(backend="exact", k_max=200))
        assert "_tail" in vars(dist)
        derived = dataclasses.replace(dist)  # a new distribution: its tail is 1 - running sums of p
        assert "_tail" not in vars(derived)
        assert derived == dist and derived.tail == dist.tail

    def test_float_distribution_holds_one_column(self, table2):
        # p is 32 B a row (a float and a tuple slot); a stored tail would add as much again
        config = NumericConfig(k_max=200)
        queue_distribution(table2, config)  # caches the division kernel and the moments
        gc.collect()
        tracemalloc.start()
        try:
            dist = queue_distribution(table2, config)
            gc.collect()  # also empties the float and tuple free lists, which tracemalloc counts
            held = tracemalloc.get_traced_memory()[0]
            dist.tail
            gc.collect()
            read = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        rows = len(dist.p)
        assert rows == 201 and not dist.breakdown_detected
        assert held <= 40 * rows + 1024  # 34.3 B a row on CPython 3.11; 66.5 with a stored tail
        assert read - held >= 24 * rows  # the read tail is seen


class TestExactRows:
    """`exact_rows` gives the exact distribution's rows one at a time, as they are read."""

    @given(model_specs(backend="exact"), st.integers(0, 80))
    @settings(max_examples=30, deadline=None)
    def test_rows_are_the_distribution(self, spec, k_max):
        dist = queue_distribution(spec, NumericConfig(backend="exact", k_max=k_max))
        assert list(series.exact_rows(spec, k_max)) == list(zip(dist.p, dist.tail))

    def test_checks_run_on_the_call(self, table1_exact):
        with pytest.raises(Unstable):
            series.exact_rows(ModelSpec((0.25, 0.75), (0.0, 0.0, 1.0)), 5)  # rho > 1
        with pytest.raises(ValueError, match="k_max"):
            series.exact_rows(table1_exact, -1)

    def test_a_row_is_made_when_it_is_read(self, table2_exact):
        rows = series.exact_rows(table2_exact, sys.maxsize)  # no list could hold them all
        dist = queue_distribution(table2_exact, NumericConfig(backend="exact", k_max=2))
        assert list(islice(rows, 3)) == list(zip(dist.p, dist.tail))


class TestExactBuildsNoGTable:
    """The exact backend divides S by E: the G table and N/D serve float64 alone."""

    def test_exact_paths_run_with_the_tables_refused(self, monkeypatch, capsys, request, table1):
        def refused(*args, **kwargs):
            raise AssertionError("G table or N/D built")

        config = NumericConfig(backend="exact", k_max=200)
        names = ("table1", "table2")
        specs = [request.getfixturevalue(f"{name}_exact") for name in names]
        refs = [reference_distribution(spec, config) for spec in specs]  # the N/D Fraction division
        monkeypatch.setattr(series, "g_coefficients", refused)
        monkeypatch.setattr(series, "series_coefficients", refused)
        for name, spec, ref in zip(names, specs, refs):
            dist = queue_distribution(spec, config)
            assert dist == ref
            assert dist.tail == ref.tail
            assert list(series.exact_rows(spec, 200)) == list(zip(ref.p, ref.tail))
            path = request.getfixturevalue(f"{name}_path")
            assert main(["dist", path, "--backend", "exact", "--kmax", "200"]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == EXACT_DIST_DIGESTS[name, 200]
        with pytest.raises(AssertionError, match="G table"):
            queue_distribution(table1, NumericConfig(k_max=200))


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
