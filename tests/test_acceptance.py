"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass line (visible with `pytest -s`); a failing
criterion fails its test.  Random model batches are generated from fixed
seeds, so the whole gate is deterministic.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    TABLE1_F,
    TABLE1_G,
    TABLE2_F,
    TABLE2_G,
    build_model,
    light_f_vector,
    random_models,
)
from onoffqueue import (
    ModelSpec,
    NumericConfig,
    SimulationConfig,
    build_joint_chain,
    expected_delay,
    expected_queue,
    expected_queue_constant_batch,
    from_strings,
    joint_stationary,
    moments,
    oracle_expected_queue,
    pgf_eval,
    queue_distribution,
    queue_distribution_constant_batch,
    queue_marginal,
    simulate,
    validate,
)

PAPER_SETS = ((TABLE1_F, TABLE1_G), (TABLE2_F, TABLE2_G))


def _pass(num, message):
    print(f"[criterion {num}] PASS: {message}")


def test_criterion_1_identity_suite():
    started = time.monotonic()
    float_models = [from_strings(f, g) for f, g in PAPER_SETS]
    exact_models = [from_strings(f, g, backend="exact") for f, g in PAPER_SETS]
    rng = np.random.default_rng(106)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 7))
        on_w = [int(w) for w in rng.integers(1, 1000, size=n)]
        g_w = [int(w) for w in rng.integers(1, 1000, size=m)]
        rho_pct = int(rng.integers(5, 96))
        float_models.append(build_model(on_w, g_w, rho_pct))
        exact_models.append(build_model(on_w, g_w, rho_pct, backend="exact"))
    for spec in float_models:
        mom = moments(spec)
        assert abs(mom.b0 - (1 - mom.rho)) <= 1e-12
        assert abs(mom.pi0 - 1 / (1 + mom.f_bar)) <= 1e-12
        assert abs((1 - mom.pi0) / mom.pi0 - mom.f_bar) <= 1e-12
        assert abs(expected_delay(mom) * mom.lam - expected_queue(mom)) <= 1e-12
    for spec in exact_models:
        mom = moments(spec)
        assert mom.b0 == 1 - mom.rho
        assert mom.pi0 == 1 / (1 + mom.f_bar)
        assert (1 - mom.pi0) / mom.pi0 == mom.f_bar
        assert expected_delay(mom) * mom.lam == expected_queue(mom)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _pass(1, f"identities hold on {len(float_models)} models per backend "
             f"({elapsed:.2f}s)")


def test_criterion_2_oracle_equivalence():
    started = time.monotonic()
    models = [from_strings(f, g) for f, g in PAPER_SETS]
    models += random_models(np.random.default_rng(206), 50,
                            n_max=6, m_max=5, rho_max_pct=85)
    worst_p = 0.0
    worst_mean = 0.0
    exact20 = NumericConfig(backend="exact", k_max=20)
    for spec in models:
        chain = build_joint_chain(spec, 500)
        pi = joint_stationary(chain)
        marginal = queue_marginal(chain, pi)
        dist = queue_distribution(spec, exact20)
        for k in range(21):
            worst_p = max(worst_p, abs(float(dist.p[k]) - marginal[k]))
        mean_diff = abs(
            oracle_expected_queue(marginal) - float(expected_queue(moments(spec)))
        )
        worst_mean = max(worst_mean, mean_diff)
    assert worst_p <= 1e-9
    assert worst_mean <= 1e-8
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _pass(2, f"{len(models)} models: max |series - oracle| = {worst_p:.2e}, "
             f"max mean gap = {worst_mean:.2e} ({elapsed:.1f}s)")


def test_criterion_3_moment_from_distribution():
    config = NumericConfig(backend="exact", k_max=400)
    gaps = []
    for (f, g), tol in zip(PAPER_SETS, (1e-6, 1e-3)):
        spec = from_strings(f, g, backend="exact")
        dist = queue_distribution(spec, config)
        mean = sum(k * p for k, p in enumerate(dist.p))
        gap = abs(float(mean - expected_queue(moments(spec))))
        assert gap < tol
        gaps.append(gap)
    _pass(3, f"distribution means within {gaps[0]:.2e} and {gaps[1]:.2e} "
             "of the closed form")


def test_criterion_4_constant_batch_specialization():
    rng = np.random.default_rng(406)
    config = NumericConfig(backend="exact", k_max=60)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        on_w = [int(w) for w in rng.integers(1, 1000, size=n)]
        f = light_f_vector(on_w, int(rng.integers(5, 31)))
        f_bar = sum(i * p for i, p in enumerate(f))
        f2_bar = sum(i * i * p for i, p in enumerate(f))
        for r in (2, 3, 4):
            special = queue_distribution_constant_batch(f, r, config)
            g = tuple([Fraction(0)] * (r - 1) + [Fraction(1)])
            spec = validate(ModelSpec(f, g), config.backend)
            general = queue_distribution(spec, config)
            assert special.p == general.p
            assert expected_queue_constant_batch(f_bar, f2_bar, r) == expected_queue(
                moments(spec)
            )
            checked += 1
    _pass(4, f"{checked} (f, r) pairs agree with the general path exactly")


def test_criterion_5_desk_scale_simulation():
    started = time.monotonic()
    summaries = []
    for f, g in PAPER_SETS:
        spec = from_strings(f, g)
        exact = from_strings(f, g, backend="exact")
        theory = queue_distribution(exact, NumericConfig(backend="exact", k_max=60))
        report = simulate(
            spec,
            SimulationConfig(iterations=10**6, runs=10, burn_in=10**4,
                             seed=62831, k_max=60),
        )
        truth = float(expected_queue(moments(spec)))
        low, high = report.mean_queue_ci
        assert low <= truth <= high
        inside = 0
        eligible = 0
        for k, p in enumerate(theory.p):
            value = float(p)
            if value < 1e-4:
                continue
            eligible += 1
            if report.p_ci_low[k] <= value <= report.p_ci_high[k]:
                inside += 1
        coverage = inside / eligible
        assert coverage >= 0.9
        summaries.append(f"E[Q] in [{low:.4f}, {high:.4f}] (truth {truth:.4f}), "
                         f"coverage {inside}/{eligible}")
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _pass(5, "; ".join(summaries) + f" ({elapsed:.1f}s)")


def test_criterion_6_breakdown_behavior():
    table1 = from_strings(TABLE1_F, TABLE1_G)
    table2 = from_strings(TABLE2_F, TABLE2_G)
    float_config = NumericConfig(k_max=400)
    d1 = queue_distribution(table1, float_config)
    assert d1.breakdown_detected
    assert d1.k_effective >= 25
    assert abs(d1.breakdown_value) < 1e-12
    d2 = queue_distribution(table2, float_config)
    assert d2.k_effective >= 80
    exact_config = NumericConfig(backend="exact", k_max=200)
    for f, g in PAPER_SETS:
        spec = from_strings(f, g, backend="exact")
        dist = queue_distribution(spec, exact_config)
        assert not dist.breakdown_detected
        assert all(p > 0 for p in dist.p)
    _pass(6, f"float flags at k={d1.breakdown_index} "
             f"(|p|={abs(d1.breakdown_value):.1e}); "
             f"heavy model reaches k_effective={d2.k_effective}; "
             "exact backend strictly positive to k=200")


def test_criterion_7_pgf_spot_check():
    worst = 0.0
    for f, g in PAPER_SETS:
        spec = from_strings(f, g, backend="exact")
        dist = queue_distribution(spec, NumericConfig(backend="exact", k_max=200))
        for tenths in range(1, 10):
            z = Fraction(tenths, 10)
            truncated = sum(p * z**k for k, p in enumerate(dist.p))
            worst = max(worst, abs(float(pgf_eval(spec, z) - truncated)))
    assert worst <= 1e-8
    _pass(7, f"pgf and truncated series agree to {worst:.2e} on the z grid")
