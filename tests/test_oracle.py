"""Joint-chain verifier: construction, stationary solve, truncated mean."""

import inspect

import numpy as np
import pytest

from helpers import build_model, power_stationary
from onoffqueue import (
    CapTooSmall,
    ModelSpec,
    NoConvergence,
    NumericConfig,
    TruncationBias,
    build_joint_chain,
    expected_queue,
    expected_queue_constant_batch,
    joint_stationary,
    moments,
    oracle_expected_queue,
    queue_distribution,
    queue_marginal,
    state_marginal,
    stationary_distribution,
    validate,
)
from onoffqueue import oracle as oracle_module


class TestBuildJointChain:
    def test_small_chain_shape(self):
        spec = validate(ModelSpec((0.5, 0.5), (1.0,)))
        chain = build_joint_chain(spec, 4)
        assert chain.num_states == 10
        assert len(chain.states) == 10
        assert chain.states[0] == (0, 0)
        assert chain.states[-1] == (1, 4)

    def test_off_state_decrements_queue(self):
        spec = validate(ModelSpec((0.5, 0.5), (1.0,)))
        chain = build_joint_chain(spec, 4)
        kernel = chain.kernel.toarray()
        for q in (1, 2, 3, 4):
            src = chain.state_index(0, q)
            for x_next in (0, 1):
                assert kernel[src, chain.state_index(x_next, q - 1)] == pytest.approx(0.5)

    def test_on_state_batch_offsets(self, table1):
        chain = build_joint_chain(table1, 20)
        kernel = chain.kernel.toarray()
        src = chain.state_index(2, 5)  # x = 2 counts down to 1
        expected = {5: 0.4, 6: 0.4, 7: 0.2}  # next queue 5 + y - 1, y in 1..3
        for q_next, mass in expected.items():
            assert kernel[src, chain.state_index(1, q_next)] == pytest.approx(mass)

    def test_rows_are_stochastic(self, table1):
        chain = build_joint_chain(table1, 500)
        sums = np.asarray(chain.kernel.sum(axis=1)).ravel()
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_cap_must_fit_one_batch(self, table1):
        with pytest.raises(CapTooSmall):
            build_joint_chain(table1, 2)  # m = 3

    def test_boundary_lumps_mass(self):
        spec = validate(ModelSpec((0.8, 0.2), (0.0, 0.0, 1.0)))
        chain = build_joint_chain(spec, 3)
        kernel = chain.kernel.toarray()
        # from (1, 3) the batch of 3 overflows: next queue capped at 3
        src = chain.state_index(1, 3)
        assert kernel[src, chain.state_index(0, 3)] == pytest.approx(1.0)


class TestJointStationary:
    def test_residual_contract(self, table1):
        chain = build_joint_chain(table1, 500)
        pi = joint_stationary(chain)
        kernel_t = chain.kernel.T.tocsr()
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
        assert pi[chain.state_index(0, 0)] == pytest.approx(float(mom.b0), abs=1e-12)

    def test_power_method_agrees(self, table1):
        chain = build_joint_chain(table1, 60)
        direct = joint_stationary(chain)
        power = power_stationary(chain, tol=1e-13, max_iterations=10**6)
        assert np.max(np.abs(direct - power)) < 1e-11

    def test_no_convergence_reported(self, table2, monkeypatch):
        chain = build_joint_chain(table2, 60)
        monkeypatch.setattr(
            oracle_module, "spsolve", lambda a, b: np.full(b.shape, np.nan)
        )
        with pytest.raises(NoConvergence) as err:
            joint_stationary(chain)
        assert np.isnan(err.value.residual)

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
        value = oracle_expected_queue(pi, 2000)  # raises TruncationBias if biased
        assert value == pytest.approx(float(expected_queue(moments(exact))), abs=1e-8)


class TestOracleExpectedQueue:
    def test_unit_batches_have_empty_queue(self):
        spec = validate(ModelSpec((0.5, 0.5), (1.0,)))
        chain = build_joint_chain(spec, 50)
        pi = joint_stationary(chain)
        assert oracle_expected_queue(pi, 50) == pytest.approx(0.0, abs=1e-12)

    def test_table1_matches_closed_form(self, table1):
        chain = build_joint_chain(table1, 500)
        pi = joint_stationary(chain)
        value = oracle_expected_queue(pi, 500)
        assert value == pytest.approx(float(expected_queue(moments(table1))), abs=1e-8)

    def test_constant_batch_case(self):
        spec = validate(ModelSpec((0.5, 0.5), (0.0, 1.0)))
        chain = build_joint_chain(spec, 200)
        pi = joint_stationary(chain)
        value = oracle_expected_queue(pi, 200)
        assert value == pytest.approx(
            float(expected_queue_constant_batch(0.5, 0.5, 2)), abs=1e-8
        )

    def test_truncation_bias_flagged(self, table2):
        chain = build_joint_chain(table2, 6)  # far too small for rho = 0.9
        pi = joint_stationary(chain)
        with pytest.raises(TruncationBias) as err:
            oracle_expected_queue(pi, 6)
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
