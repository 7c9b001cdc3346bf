"""Joint-chain verifier: construction, stationary solve, truncated mean."""

import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    TABLE1_F,
    TABLE1_G,
    TABLE2_F,
    TABLE2_G,
    build_model,
    exact_level_matrices,
    joint_states,
    level_stationary,
    model_specs,
    power_stationary,
    reference_kernel,
    sparse_stationary,
    state_marginal,
)
from onoffqueue import (
    ModelSpec,
    NoConvergence,
    NumericConfig,
    TruncationBias,
    build_joint_chain,
    expected_queue,
    expected_queue_constant_batch,
    from_strings,
    joint_stationary,
    moments,
    oracle_expected_queue,
    queue_distribution,
    queue_marginal,
    stationary_distribution,
    validate,
)
from onoffqueue import oracle as oracle_module
from onoffqueue.oracle import BLOCK_ENTRIES, _inflow, block_map, level_matrices, residual

RHO_992 = (("0.05", "0.5", "0.45"), ("0.3", "0.7"))  # f(g_1) = 0.2405, a small cut divisor
# f[0] and g_1 both small: f(g_1) = 2e-7, and rho = 1 - 1e-7 is still below 1
SMALL_F_G1 = (("1e-7", "0.9999999"), ("1e-7", "0.9999999"))


def shape_models():
    """The models the block solve is checked on, by name."""
    return {
        "table1": from_strings(TABLE1_F, TABLE1_G),
        "table2": from_strings(TABLE2_F, TABLE2_G),
        "rho_992": from_strings(*RHO_992),
        "m_1": build_model([3, 2, 1], [1], 80),
        "n_1": build_model([1], [2, 5, 3], 80),
        "wide": build_model([1] * 20, list(range(20, 0, -1)), 80),  # n = m = 20
    }


def block_levels(spec, q_cap=1000) -> int:
    """B, the levels per product that `joint_stationary` takes for spec at q_cap."""
    chain = build_joint_chain(spec, q_cap)
    width = spec.n + 1
    return block_map(level_matrices(chain.f, chain.g)[1], q_cap).shape[1] // width


def assert_blocks_match_levels(spec, same_first_zero):
    """The block solve against one product per level, around every block edge.

    The two round differently, so a marginal value of the smallest
    subnormals can be 0 in one and not in the other: a zero of either is
    below the smallest normal number in the other, and with
    same_first_zero the first zeros match too.
    """
    m, blocks = spec.m, block_levels(spec)
    for q_cap in sorted({max(m, q) for q in (m, m + 1, blocks - 1, blocks, blocks + 1,
                                              2 * blocks + 1, 1000)}):
        chain = build_joint_chain(spec, q_cap)
        got, want = joint_stationary(chain), level_stationary(chain)
        shown = want > 1e-290
        assert np.all(np.abs(got[shown] - want[shown]) <= 1e-13 * want[shown]), q_cap
        marginals = [queue_marginal(chain, pi) for pi in (got, want)]
        for zeros, other in (marginals, marginals[::-1]):
            assert np.all(other[zeros == 0] < np.finfo(float).tiny), q_cap
        if same_first_zero:
            first_zero = [np.flatnonzero(marginal == 0)[:1].tolist() for marginal in marginals]
            assert first_zero[0] == first_zero[1], q_cap


def assert_level_matrices_exact(spec):
    """`level_matrices` against its formulas in Fractions, to 1e-13 relative."""
    chain = build_joint_chain(spec, spec.m)
    for got, want in zip(level_matrices(chain.f, chain.g), exact_level_matrices(chain.f, chain.g)):
        assert got.shape == want.shape
        for value, exact in zip(got.ravel(), want.ravel()):
            assert abs(Fraction(float(value)) - exact) <= Fraction(1e-13) * exact


class TestBuildJointChain:
    def test_small_chain_shape(self):
        spec = validate(ModelSpec((0.5, 0.5), (1.0,)))
        chain = build_joint_chain(spec, 4)
        assert chain.num_states == 10
        assert len(joint_states(chain)) == 10
        assert joint_states(chain)[0] == (0, 0)
        assert joint_states(chain)[-1] == (1, 4)

    def test_off_state_decrements_queue(self):
        spec = validate(ModelSpec((0.5, 0.5), (1.0,)))
        chain = build_joint_chain(spec, 4)
        kernel, index = reference_kernel(chain).toarray(), joint_states(chain).index
        for q in (1, 2, 3, 4):
            src = index((0, q))
            for x_next in (0, 1):
                assert kernel[src, index((x_next, q - 1))] == pytest.approx(0.5)

    def test_on_state_batch_offsets(self, table1):
        chain = build_joint_chain(table1, 20)
        kernel, index = reference_kernel(chain).toarray(), joint_states(chain).index
        src = index((2, 5))  # x = 2 counts down to 1
        expected = {5: 0.4, 6: 0.4, 7: 0.2}  # next queue 5 + y - 1, y in 1..3
        for q_next, mass in expected.items():
            assert kernel[src, index((1, q_next))] == pytest.approx(mass)

    @given(model_specs(), st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    # the bundled models at q_cap = m + extra = 1000
    @example(from_strings(TABLE1_F, TABLE1_G), 997)
    @example(from_strings(TABLE2_F, TABLE2_G), 996)
    def test_kernel_bytewise_equals_loop_reference(self, spec, extra):
        chain = build_joint_chain(spec, spec.m + extra)
        kernel, ref = chain.kernel, reference_kernel(chain)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(kernel, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name

    def test_rows_are_stochastic(self, table1):
        chain = build_joint_chain(table1, 500)
        sums = np.asarray(reference_kernel(chain).sum(axis=1)).ravel()
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_cap_must_fit_one_batch(self, table1):
        with pytest.raises(ValueError, match="q_cap"):
            build_joint_chain(table1, 2)  # m = 3

    @pytest.mark.parametrize("q_cap", [10.5, True, "10", -1, 10**20])
    def test_cap_must_be_a_size(self, table1, q_cap):
        with pytest.raises(ValueError, match="q_cap"):
            build_joint_chain(table1, q_cap)

    @pytest.mark.parametrize(
        "name, largest", [("table1", 2097151), ("table2", 1677720), ("unit", 4194303)]
    )
    def test_storage_bound_checked_before_any_array(self, request, monkeypatch, name, largest):
        # (n + 1)(largest + 1) <= MAX_STATES states, and one more q passes it
        if name == "unit":
            spec = from_strings(("0.5", "0.5"), ("1",))  # n = m = 1, the most q per state
        else:
            spec = request.getfixturevalue(name)
        per_q = spec.n + 1
        assert per_q * (largest + 1) <= oracle_module.MAX_STATES < per_q * (largest + 2)
        monkeypatch.setattr(oracle_module, "np", None)  # any numpy call raises AttributeError
        for q_cap in (spec.m - 1, largest + 1, 10**12, True):  # True == 1 is no size
            with pytest.raises(ValueError, match=f"q_cap must be an integer from {spec.m} to "
                                                 f"{largest} "):
                build_joint_chain(spec, q_cap)
        for q_cap in (spec.m, largest):
            with pytest.raises(AttributeError):
                build_joint_chain(spec, q_cap)

    @pytest.mark.parametrize(
        "f, g", [(("0.8", "0.2"), ("0", "0", "1")), (TABLE1_F, TABLE1_G),
                 (("0.7", "0", "0.3"), ("0.5", "0", "0.25", "0.25")),
                 (("0.5", "0.5"), ("1",)),  # n = m = 1
                 (("0.99", "0.01"), ("0.25", *["0"] * 30, "0.5", *["0"] * 31, "0.25"))]  # m = 64
    )
    @pytest.mark.parametrize("q_cap", [4, 10, 200])
    def test_kernel_nnz_counts_positive_entries(self, f, g, q_cap):
        spec = from_strings(f, g)
        chain = build_joint_chain(spec, max(q_cap, spec.m))  # one batch must fit
        assert chain.kernel_nnz == reference_kernel(chain).count_nonzero()

    def test_boundary_lumps_mass(self):
        spec = validate(ModelSpec((0.8, 0.2), (0.0, 0.0, 1.0)))
        chain = build_joint_chain(spec, 3)
        kernel, index = reference_kernel(chain).toarray(), joint_states(chain).index
        # from (1, 3) the batch of 3 overflows: next queue capped at 3
        assert kernel[index((1, 3)), index((0, 3))] == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["table1", "table2", "n_1", "m_1", "zeros"])
    @pytest.mark.parametrize("extra", [0, 1, 13, 200])
    def test_inflow_equals_kernel_transpose_product(self, name, extra):
        # the matrix-free P^T x against the loop-built kernel, on random nonnegative x
        zeros = from_strings(("0.7", "0", "0.3"), ("0.5", "0", "0.25", "0.25"))
        spec = {**shape_models(), "zeros": zeros}[name]
        q_cap = min(spec.m + extra, 200)
        x = np.random.default_rng(q_cap).random((spec.n + 1) * (q_cap + 1))
        chain = build_joint_chain(spec, q_cap)
        want = reference_kernel(chain).T @ x
        got = _inflow(chain, x)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


class TestJointStationary:
    def test_residual_contract(self, table1):
        chain = build_joint_chain(table1, 500)
        pi = joint_stationary(chain)
        kernel_t = reference_kernel(chain).T.tocsr()
        assert np.max(np.abs(kernel_t @ pi - pi)) <= 1e-13
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_chain_marginal_recovers_stationary(self, table1):
        chain = build_joint_chain(table1, 500)
        pi = joint_stationary(chain)
        marginal = state_marginal(chain, pi)
        reference = np.array([float(v) for v in stationary_distribution(table1)])
        assert np.max(np.abs(marginal - reference)) < 1e-10

    def test_queue_marginal_matches_series(self, table1, table1_exact):
        chain = build_joint_chain(table1, 500)
        pi = joint_stationary(chain)
        marginal = queue_marginal(chain, pi)
        dist = queue_distribution(table1_exact, NumericConfig(backend="exact", k_max=20))
        for k in range(21):
            assert marginal[k] == pytest.approx(float(dist.p[k]), abs=1e-10)

    def test_boundary_mass_negligible(self, table1):
        chain = build_joint_chain(table1, 500)
        pi = joint_stationary(chain)
        assert abs(queue_marginal(chain, pi)[-1]) < 1e-12

    def test_idle_probability_is_one_minus_rho(self, table1):
        # P(queue empty AND chain off) equals the server-idle probability
        chain = build_joint_chain(table1, 500)
        pi = joint_stationary(chain)
        mom = moments(table1)
        assert pi[joint_states(chain).index((0, 0))] == pytest.approx(float(mom.b0), abs=1e-12)

    def test_power_method_agrees(self, table1):
        chain = build_joint_chain(table1, 60)
        direct = joint_stationary(chain)
        power = power_stationary(chain, tol=1e-13, max_iterations=10**6)
        assert np.max(np.abs(direct - power)) < 1e-11

    @given(model_specs(), st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_band_solve_agrees_with_sparse_lu(self, spec, extra):
        chain = build_joint_chain(spec, min(spec.m + extra, 200))
        pi = joint_stationary(chain)
        assert np.max(np.abs(pi - sparse_stationary(chain))) <= 1e-14
        assert residual(chain, pi) <= 1e-13

    @given(model_specs(), st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_level_matrices_are_nonnegative(self, spec, extra):
        # the recursion only adds and multiplies nonnegative numbers
        chain = build_joint_chain(spec, spec.m + extra)
        first, step, top = level_matrices(chain.f, chain.g)
        n, m = spec.n, spec.m
        assert first.shape == (n + 1,)
        assert step.shape == top.shape == ((m - 1) * (n + 1), n + 1)
        block = block_map(step, chain.q_cap)
        assert block.shape[0] == (m - 1) * (n + 1)
        assert block.shape[1] % (n + 1) == 0
        built = (block.shape[0] + 1) * block.shape[1]  # S and the row of pi(0, q - m + 1)
        assert built <= max(BLOCK_ENTRIES, (block.shape[0] + 1) * (n + 1))  # or one level
        for matrix in (first, step, top, block):
            assert np.all(matrix >= 0)
        assert not top[:, -1].any()  # the chain has no state (0, q_cap + 1)
        assert not step[::n + 1].any()  # off states feed no higher level, as block_map needs

    @pytest.mark.parametrize("name, q_cap, blocks", [
        ("table1", 1000, 64), ("table2", 1000, 51), ("wide", 1000, 1), ("table1", 3, 2),
        ("table1", 40, 39), ("m_1", 1, 1),
    ])
    def test_block_levels_follow_the_shape(self, name, q_cap, blocks):
        # the most levels up to 64 and q_cap - 1 whose map holds 4096 entries, and at least 1
        assert block_levels(shape_models()[name], q_cap) == blocks

    @pytest.mark.parametrize("name", list(shape_models()))
    def test_blocks_match_levels(self, name):
        assert_blocks_match_levels(shape_models()[name], same_first_zero=True)

    @given(model_specs())
    @settings(max_examples=30, deadline=None)
    def test_blocks_match_levels_random(self, spec):
        assert_blocks_match_levels(spec, same_first_zero=False)

    @pytest.mark.parametrize("name", ["table1", "table2", "rho_992", "m_1", "n_1", "small_f_g1"])
    def test_level_matrices_match_exact_formulas(self, name):
        # small_f_g1: 1 - G(2)(a_1 + ... + a_n) would miss f(g_1) by ~5e-10 relative
        assert_level_matrices_exact(
            from_strings(*SMALL_F_G1) if name == "small_f_g1" else shape_models()[name]
        )

    @given(model_specs(n_max=4, m_max=4))
    @settings(max_examples=20, deadline=None)
    def test_level_matrices_match_exact_formulas_random(self, spec):
        assert_level_matrices_exact(spec)

    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_band_widths_and_entries(self, request, name):
        # the recursion reads the band of the pinned system and repeats its dense solve
        spec = request.getfixturevalue(name)
        n, m, q_cap = spec.n, spec.m, 30
        chain = build_joint_chain(spec, q_cap)
        order = [x * (q_cap + 1) + q for q in range(q_cap + 1) for x in range(n + 1)]
        dense = reference_kernel(chain).toarray().T[np.ix_(order, order)] - np.eye(len(order))
        dense[0] = 0.0
        dense[0, 0] = 1.0
        rows, cols = np.nonzero(dense)
        lower, upper = np.max(rows - cols), np.max(cols - rows)
        assert (lower, upper) == ((m - 1) * (n + 1) - 1, n + 1)
        first, step, top = level_matrices(chain.f, chain.g)
        assert step.shape == top.shape == (lower + 1, upper)
        rhs = np.zeros(len(order))
        rhs[0] = 1.0
        pi = np.concatenate([np.zeros(lower + 1), np.linalg.solve(dense, rhs), [0.0]])
        base = lower + 1
        assert pi[base + 1:base + n + 2] == pytest.approx(first, rel=1e-12, abs=1e-15)
        for q in range(1, q_cap + 1):
            start = base + q * (n + 1)
            window = pi[start - base:start] @ (step if q < q_cap else top)
            assert pi[start + 1:start + n + 2] == pytest.approx(window, rel=1e-10, abs=1e-15)

    def test_no_convergence_reported(self, table2, monkeypatch):
        chain = build_joint_chain(table2, 60)
        solved = level_matrices(chain.f, chain.g)
        monkeypatch.setattr(
            oracle_module, "level_matrices", lambda f, g: [np.full_like(a, np.nan) for a in solved]
        )
        with pytest.raises(NoConvergence) as err:
            joint_stationary(chain)
        assert np.isnan(err.value.residual)
        assert str(err.value) == "stationary solve gave a vector that is not finite: residual nan"

    def test_missed_residual_reported(self, table2, monkeypatch):
        chain = build_joint_chain(table2, 60)
        monkeypatch.setattr(oracle_module, "DEFAULT_RESIDUAL_TOL", -1.0)
        with pytest.raises(NoConvergence, match="^stationary solve missed the residual target: "
                                                "residual [0-9.e+-]+$") as err:
            joint_stationary(chain)
        assert 0 <= err.value.residual <= 1e-13

    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_far_tail_relative_accuracy(self, request, name):
        # every P(Q=k) down to ~1e-127 keeps its leading digits, none is noise
        spec = request.getfixturevalue(name)
        exact = request.getfixturevalue(f"{name}_exact")
        chain = build_joint_chain(spec, 500)
        marginal = queue_marginal(chain, joint_stationary(chain))
        dist = queue_distribution(exact, NumericConfig(backend="exact", k_max=300))
        for k in range(301):
            assert marginal[k] == pytest.approx(float(dist.p[k]), rel=1e-10, abs=0)

    def test_small_cut_divisor_relative_accuracy(self):
        # rho = 0.992 with f(g_1) = 0.2405: the divisor of every cut is small
        f, g = ("0.05", "0.5", "0.45"), ("0.3", "0.7")
        spec, exact = from_strings(f, g), from_strings(f, g, backend="exact")
        assert float(moments(spec).rho) > 0.99
        chain = build_joint_chain(spec, 3000)
        marginal = queue_marginal(chain, joint_stationary(chain))
        dist = queue_distribution(exact, NumericConfig(backend="exact", k_max=300))
        for k in range(301):
            assert marginal[k] == pytest.approx(float(dist.p[k]), rel=1e-12, abs=0)

    def test_heavy_load(self):
        # rho = 0.97: the cap must reach far into the tail before E[Q] is unbiased
        spec = build_model([3, 2, 1, 1], [2, 5, 2, 1], 97)
        exact = build_model([3, 2, 1, 1], [2, 5, 2, 1], 97, backend="exact")
        assert float(moments(spec).rho) >= 0.96
        chain = build_joint_chain(spec, 2000)
        pi = joint_stationary(chain)
        marginal = queue_marginal(chain, pi)
        dist = queue_distribution(exact, NumericConfig(backend="exact", k_max=200))
        for k in range(201):
            assert marginal[k] == pytest.approx(float(dist.p[k]), abs=1e-9)
        value = oracle_expected_queue(marginal)  # raises TruncationBias if biased
        assert value == pytest.approx(float(expected_queue(moments(exact))), abs=1e-8)


class TestOracleExpectedQueue:
    def test_unit_batches_have_empty_queue(self):
        spec = validate(ModelSpec((0.5, 0.5), (1.0,)))
        chain = build_joint_chain(spec, 50)
        pi = joint_stationary(chain)
        assert oracle_expected_queue(queue_marginal(chain, pi)) == pytest.approx(0.0, abs=1e-12)

    def test_table1_matches_closed_form(self, table1):
        chain = build_joint_chain(table1, 500)
        pi = joint_stationary(chain)
        value = oracle_expected_queue(queue_marginal(chain, pi))
        assert value == pytest.approx(float(expected_queue(moments(table1))), abs=1e-8)

    def test_constant_batch_case(self):
        spec = validate(ModelSpec((0.5, 0.5), (0.0, 1.0)))
        chain = build_joint_chain(spec, 200)
        pi = joint_stationary(chain)
        value = oracle_expected_queue(queue_marginal(chain, pi))
        assert value == pytest.approx(
            float(expected_queue_constant_batch(0.5, 0.5, 2)), abs=1e-8
        )

    def test_truncation_bias_flagged(self, table2):
        chain = build_joint_chain(table2, 6)  # far too small for rho = 0.9
        pi = joint_stationary(chain)
        with pytest.raises(TruncationBias) as err:
            oracle_expected_queue(queue_marginal(chain, pi))
        assert err.value.boundary_mass > 1e-9


def test_oracle_module_is_independent():
    """The verifier must not import anything from the formula modules."""
    import ast

    tree = ast.parse(inspect.getsource(oracle_module))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert not any("analytic" in m or "series" in m for m in modules)
