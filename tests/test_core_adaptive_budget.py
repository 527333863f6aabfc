"""Tests for iterative adaptation (§4.3) and budget search (§4.4)."""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveSingleROptimizer, adapt_singled
from repro.core.budget_search import (
    BudgetSearchResult,
    find_optimal_budget,
    min_budget_for_sla,
)
from repro.core.interfaces import RunResult
from repro.core.policies import NoReissue, SingleD, SingleR
from repro.simulation.workloads import queueing_workload


class StaticSystem:
    """A queueing-free stand-in with a known heavy-tailed distribution."""

    def __init__(self, seed=0, n=6000):
        self.rng = np.random.default_rng(seed)
        self.n = n

    def run(self, policy, rng=None):
        rng = rng or self.rng
        x = rng.pareto(1.1, self.n) * 2.0 + 2.0
        lat = x.copy()
        pair_x, pair_y = [], []
        n_re = 0
        for d, q in policy.stages:
            fire = (rng.random(self.n) < q) & (lat > d)
            y = rng.pareto(1.1, int(fire.sum())) * 2.0 + 2.0
            lat[fire] = np.minimum(lat[fire], d + y)
            pair_x.append(x[fire])
            pair_y.append(y)
            n_re += int(fire.sum())
        return RunResult(
            latencies=lat,
            primary_response_times=x,
            reissue_pair_x=np.concatenate(pair_x) if pair_x else np.empty(0),
            reissue_pair_y=np.concatenate(pair_y) if pair_y else np.empty(0),
            reissue_rate=n_re / self.n,
        )


class TestAdaptiveOptimizer:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveSingleROptimizer(percentile=0.0, budget=0.1)
        with pytest.raises(ValueError):
            AdaptiveSingleROptimizer(percentile=0.95, budget=0.0)
        with pytest.raises(ValueError):
            AdaptiveSingleROptimizer(percentile=0.95, budget=0.1, learning_rate=0.0)

    def test_initial_policy_is_immediate_with_budget_prob(self):
        opt = AdaptiveSingleROptimizer(percentile=0.95, budget=0.2)
        p = opt.initial_policy()
        assert p.delay == 0.0 and p.prob == 0.2

    def test_converges_on_static_system(self):
        opt = AdaptiveSingleROptimizer(
            percentile=0.95, budget=0.1, learning_rate=0.5
        )
        result = opt.optimize(StaticSystem(), trials=10, rng=1)
        assert len(result.trials) >= 2
        final = result.trials[-1]
        # On a static system the fitted prediction must track reality.
        assert final.predicted_tail == pytest.approx(
            final.actual_tail, rel=0.35
        )
        assert final.reissue_rate == pytest.approx(0.1, abs=0.05)

    def test_improves_over_baseline_static(self):
        system = StaticSystem(seed=3)
        base = system.run(NoReissue(), np.random.default_rng(0))
        opt = AdaptiveSingleROptimizer(percentile=0.95, budget=0.15)
        result = opt.optimize(system, trials=8, rng=2)
        run = system.run(result.policy, np.random.default_rng(5))
        assert run.tail(0.95) < base.tail(0.95)

    def test_trace_arrays(self):
        opt = AdaptiveSingleROptimizer(percentile=0.95, budget=0.1)
        result = opt.optimize(StaticSystem(), trials=4, rng=0)
        assert result.predicted.shape == result.actual.shape
        assert result.final_run is result.trials[-1]

    def test_policy_delay_moves_by_learning_rate(self):
        opt = AdaptiveSingleROptimizer(
            percentile=0.95, budget=0.1, learning_rate=0.5, use_correlation=False
        )
        system = StaticSystem(seed=4)
        current = SingleR(0.0, 0.1)
        run = system.run(current, np.random.default_rng(1))
        fit = opt.fit_from_run(run)
        stepped = opt.step(current, run)
        assert stepped.delay == pytest.approx(0.5 * fit.delay)

    def test_queueing_system_budget_honoured(self):
        system = queueing_workload(n_queries=6000, utilization=0.3)
        opt = AdaptiveSingleROptimizer(
            percentile=0.95, budget=0.2, learning_rate=0.3
        )
        result = opt.optimize(system, trials=6, rng=3)
        rates = [t.reissue_rate for t in result.trials[1:]]
        assert min(rates) <= 0.3  # adaptation reins the measured rate in


class TestAdaptSingleD:
    def test_measured_rate_approaches_budget(self):
        system = queueing_workload(n_queries=6000, utilization=0.3)
        pol = adapt_singled(system, budget=0.2, trials=6, rng=1)
        assert isinstance(pol, SingleD)
        run = system.run(pol, np.random.default_rng(9))
        assert run.reissue_rate == pytest.approx(0.2, abs=0.1)


class TestBudgetSearch:
    def test_finds_parabola_minimum(self):
        calls = []

        def evaluate(b):
            calls.append(b)
            return (b - 0.08) ** 2 * 1000 + 50

        res = find_optimal_budget(evaluate, initial_step=0.01, max_trials=20)
        assert res.best_budget == pytest.approx(0.08, abs=0.03)
        assert res.best_latency < 52

    def test_monotone_decreasing_expands(self):
        res = find_optimal_budget(lambda b: 100 - 50 * b, max_budget=0.5)
        assert res.best_budget > 0.05

    def test_baseline_already_optimal(self):
        res = find_optimal_budget(lambda b: 100 + 100 * b)
        assert res.best_budget == 0.0
        assert res.best_latency == pytest.approx(100.0)

    def test_trials_recorded(self):
        res = find_optimal_budget(lambda b: (b - 0.05) ** 2, max_trials=8)
        assert res.trials[0].budget == 0.0
        assert len(res.budgets) == len(res.latencies) == len(res.trials)

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            find_optimal_budget(lambda b: b, initial_step=0.0)


class TestSlaSearch:
    def test_returns_zero_when_sla_met_without_reissue(self):
        res = min_budget_for_sla(lambda b: 50.0, target_latency=100.0)
        assert res.best_budget == 0.0

    def test_finds_small_sufficient_budget(self):
        # latency = 200 at b=0 declining linearly; SLA 100 met at b>=0.1.
        def evaluate(b):
            return max(200 - 1000 * b, 20)

        res = min_budget_for_sla(evaluate, target_latency=100.0, max_trials=25)
        assert evaluate(res.best_budget) <= 100.0
        assert res.best_budget <= 0.2

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            min_budget_for_sla(lambda b: b, target_latency=0.0)

    def test_result_type(self):
        res = min_budget_for_sla(lambda b: 10.0, target_latency=5.0)
        assert isinstance(res, BudgetSearchResult)
