"""Tests for ComputeOptimalSingleR and the SingleD fit (paper §4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.singled import compute_optimal_singled
from repro.core.optimizer import (
    compute_optimal_singler,
    discrete_cdf,
    fit_singled_policy,
    singler_success_rate,
)
from repro.core.policies import SingleR


def heavy_log(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.pareto(1.1, n) * 2.0 + 2.0


class TestDiscreteCdf:
    def test_strictly_less_than_semantics(self):
        r = np.array([1.0, 2.0, 3.0])
        assert discrete_cdf(r, 2.0) == pytest.approx(1 / 3)
        assert discrete_cdf(r, 2.5) == pytest.approx(2 / 3)
        assert discrete_cdf(r, 100.0) == 1.0
        assert discrete_cdf(r, 0.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            discrete_cdf(np.array([]), 1.0)


class TestSuccessRate:
    def test_matches_equation3_with_clamped_q(self):
        rx = np.sort(heavy_log())
        ry = rx
        t, d, B = 30.0, 5.0, 0.1
        px = discrete_cdf(rx, t)
        surv = 1 - discrete_cdf(rx, d)
        q = min(1.0, B / surv)
        expected = px + q * (1 - px) * discrete_cdf(ry, t - d)
        assert singler_success_rate(rx, ry, B, t, d) == pytest.approx(expected)

    def test_degenerate_surv_zero(self):
        rx = np.array([1.0, 2.0])
        # d beyond every sample: no request can be outstanding.
        assert singler_success_rate(rx, rx, 0.1, 5.0, 10.0) == 1.0


class TestComputeOptimalSingleR:
    def test_budget_respected_in_expectation(self):
        rx = heavy_log()
        fit = compute_optimal_singler(rx, rx, 0.95, 0.10)
        surv = float((rx >= fit.delay).mean())
        assert fit.prob * surv <= 0.10 * 1.05 + 1e-9

    def test_predicted_tail_beats_baseline(self):
        rx = heavy_log()
        fit = compute_optimal_singler(rx, rx, 0.95, 0.10)
        assert fit.predicted_tail <= fit.baseline_tail
        assert fit.predicted_reduction_ratio >= 1.0

    def test_predicted_success_meets_percentile(self):
        rx = heavy_log()
        fit = compute_optimal_singler(rx, rx, 0.95, 0.10)
        assert fit.predicted_success >= 0.95 - 1e-9

    def test_policy_property_roundtrip(self):
        rx = heavy_log()
        fit = compute_optimal_singler(rx, rx, 0.9, 0.2)
        assert isinstance(fit.policy, SingleR)
        assert fit.policy.delay == fit.delay

    def test_bigger_budget_never_worse(self):
        rx = heavy_log()
        t_small = compute_optimal_singler(rx, rx, 0.95, 0.05).predicted_tail
        t_big = compute_optimal_singler(rx, rx, 0.95, 0.30).predicted_tail
        assert t_big <= t_small + 1e-9

    def test_beats_singled_below_1_minus_k(self):
        # §2.4: with B < 1-k, SingleD cannot reduce the k-th percentile at
        # all; SingleR can.
        rx = heavy_log()
        k, B = 0.95, 0.03
        sr = compute_optimal_singler(rx, rx, k, B)
        sd = compute_optimal_singled(rx, rx, k, B)
        assert sr.predicted_tail < sd.predicted_tail
        assert sd.predicted_tail == pytest.approx(sd.baseline_tail, rel=0.05)

    def test_verified_against_brute_force(self):
        """The sweep must match an O(N^2) exhaustive search."""
        rng = np.random.default_rng(3)
        rx = np.sort(rng.lognormal(1.0, 1.0, 300))
        k, B = 0.9, 0.15
        best_t = np.inf
        i_max = max(int(np.ceil(rx.size * (1 - B))) - 1, 0)
        for d in rx[: i_max + 1]:
            for t in rx:
                if t < d:
                    continue
                if singler_success_rate(rx, rx, B, t, d) >= k and t < best_t:
                    best_t = t
        fit = compute_optimal_singler(rx, rx, k, B)
        assert fit.predicted_tail == pytest.approx(best_t)

    def test_distinct_reissue_distribution(self):
        # Reissues served by faster dedicated replicas: optimizer should
        # exploit the faster RY log.
        rx = heavy_log(seed=1)
        ry_fast = rx * 0.2
        fit_fast = compute_optimal_singler(rx, ry_fast, 0.95, 0.1)
        fit_same = compute_optimal_singler(rx, rx, 0.95, 0.1)
        assert fit_fast.predicted_tail <= fit_same.predicted_tail

    @pytest.mark.parametrize("pct,budget", [(0.0, 0.1), (1.0, 0.1), (0.9, 0.0), (0.9, 1.5)])
    def test_parameter_validation(self, pct, budget):
        rx = heavy_log(n=50)
        with pytest.raises(ValueError):
            compute_optimal_singler(rx, rx, pct, budget)

    def test_empty_logs_rejected(self):
        with pytest.raises(ValueError):
            compute_optimal_singler([], [1.0], 0.9, 0.1)


class TestSingleDFit:
    def test_delay_matches_budget_quantile(self):
        rx = heavy_log()
        pol = fit_singled_policy(rx, 0.1)
        surv = float((rx >= pol.delay).mean())
        assert surv <= 0.1 + 1 / rx.size + 1e-9

    def test_full_budget_reissues_immediately(self):
        rx = np.array([5.0, 1.0, 3.0])
        assert fit_singled_policy(rx, 1.0).delay == 1.0

    def test_compute_optimal_singled_is_q1(self):
        rx = heavy_log()
        fit = compute_optimal_singled(rx, rx, 0.95, 0.2)
        assert fit.prob == 1.0
        assert fit.predicted_success >= 0.95 - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    budget=st.floats(0.02, 0.9),
    pct=st.floats(0.6, 0.99),
)
def test_property_fit_invariants(seed, budget, pct):
    """For any log: the fit is feasible, on-budget, and no worse than the
    no-reissue baseline."""
    rng = np.random.default_rng(seed)
    rx = rng.lognormal(0.5, 1.2, 400)
    fit = compute_optimal_singler(rx, rx, pct, budget)
    assert 0.0 <= fit.prob <= 1.0
    assert fit.delay in rx
    assert fit.predicted_tail <= fit.baseline_tail + 1e-9
    surv = float((rx >= fit.delay).mean())
    assert fit.prob * surv <= budget + 1 / rx.size + 1e-9
    assert fit.predicted_success >= pct - 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_sweep_matches_bruteforce_small(seed):
    rng = np.random.default_rng(seed)
    rx = np.sort(rng.exponential(5.0, 60))
    k, B = 0.8, 0.25
    best_t = np.inf
    i_max = max(int(np.ceil(rx.size * (1 - B))) - 1, 0)
    for d in rx[: i_max + 1]:
        for t in rx:
            if t < d:
                continue
            if singler_success_rate(rx, rx, B, t, d) >= k and t < best_t:
                best_t = t
    fit = compute_optimal_singler(rx, rx, k, B)
    assert fit.predicted_tail == pytest.approx(best_t)
