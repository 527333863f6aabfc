"""Tests for the §5.1 workload models, arrivals, calibration, metrics."""

import numpy as np
import pytest

from repro.core.policies import ImmediateReissue, NoReissue, SingleR
from repro.distributions import Exponential, Pareto, Uniform
from repro.simulation.arrivals import PoissonArrivals
from repro.simulation.metrics import (
    LatencySummary,
    inverse_cdf_series,
    reduction_ratio,
)
from repro.simulation.workloads import (
    InfiniteServerSystem,
    QueueingSystem,
    ServiceModel,
    correlated_workload,
    independent_workload,
    queueing_workload,
)


class TestServiceModel:
    def test_independent_reissue(self):
        m = ServiceModel(Uniform(1.0, 2.0), correlation=0.0)
        x = np.full(1000, 10.0)
        y = m.sample_reissue(x, np.random.default_rng(0))
        assert y.max() <= 2.0  # no dependence on x

    def test_correlated_reissue_formula(self):
        m = ServiceModel(Uniform(1.0, 1.0 + 1e-12), correlation=0.5)
        x = np.array([10.0, 20.0])
        y = m.sample_reissue(x, np.random.default_rng(0))
        assert y == pytest.approx(0.5 * x + 1.0, rel=1e-6)

    def test_negative_correlation_rejected(self):
        with pytest.raises(ValueError):
            ServiceModel(Uniform(0, 1), correlation=-0.5)


class TestInfiniteServer:
    def test_latency_equals_service_without_reissue(self):
        sys_ = independent_workload(5000)
        run = sys_.run(NoReissue(), np.random.default_rng(0))
        assert np.array_equal(run.latencies, run.primary_response_times)
        assert run.utilization == 0.0

    def test_immediate_reissue_is_min_of_two(self):
        sys_ = independent_workload(50_000)
        run = sys_.run(ImmediateReissue(), np.random.default_rng(1))
        base = sys_.run(NoReissue(), np.random.default_rng(1))
        # min of two i.i.d. heavy-tailed draws has a much lighter P99
        assert run.tail(0.99) < base.tail(0.99) * 0.7
        assert run.reissue_rate == pytest.approx(1.0)

    def test_reissue_only_fires_if_outstanding(self):
        sys_ = InfiniteServerSystem(ServiceModel(Uniform(0.1, 0.2)), 10_000)
        run = sys_.run(SingleR(0.5, 1.0), np.random.default_rng(0))
        assert run.reissue_rate == 0.0  # every query done before d=0.5

    def test_correlated_workload_reissues_less_effective(self):
        ind = independent_workload(50_000)
        cor = correlated_workload(50_000, ratio=0.9)
        pol = SingleR(2.5, 1.0)
        r_ind = ind.run(pol, np.random.default_rng(3))
        r_cor = cor.run(pol, np.random.default_rng(3))
        base_i = ind.run(NoReissue(), np.random.default_rng(3)).tail(0.95)
        base_c = cor.run(NoReissue(), np.random.default_rng(3)).tail(0.95)
        gain_i = base_i / r_ind.tail(0.95)
        gain_c = base_c / r_cor.tail(0.95)
        assert gain_i > gain_c  # §5.4: correlation shrinks the benefit

    def test_rejects_zero_queries(self):
        with pytest.raises(ValueError):
            InfiniteServerSystem(ServiceModel(Uniform(0, 1)), 0)


class TestQueueingSystem:
    def test_utilization_parameter_respected(self):
        sys_ = queueing_workload(n_queries=20_000, utilization=0.5)
        run = sys_.run(NoReissue(), np.random.default_rng(2))
        assert run.utilization == pytest.approx(0.5, abs=0.12)

    def test_queueing_inflates_tail_over_service(self):
        svc = ServiceModel(Exponential(1.0))
        queued = QueueingSystem(svc, utilization=0.7, n_servers=4, n_queries=20_000)
        run = queued.run(NoReissue(), np.random.default_rng(0))
        # P99 latency well above the P99 of Exp(1) service (~4.6)
        assert run.tail(0.99) > 6.0

    def test_invalid_utilization(self):
        with pytest.raises(ValueError):
            queueing_workload(utilization=0.0)

    def test_balancer_and_discipline_forwarded(self):
        sys_ = queueing_workload(
            n_queries=2000, discipline="prioritized-lifo", balancer="min-of-2"
        )
        run = sys_.run(SingleR(0.1, 0.5), np.random.default_rng(1))
        assert run.n_queries > 0


class TestArrivals:
    def test_poisson_rate(self):
        arr = PoissonArrivals(2.0).generate(100_000, np.random.default_rng(0))
        assert np.all(np.diff(arr) >= 0)
        rate = (arr.size - 1) / (arr[-1] - arr[0])
        assert rate == pytest.approx(2.0, rel=0.05)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)


class TestMetrics:
    def test_summary_from_run(self):
        sys_ = independent_workload(5000)
        run = sys_.run(NoReissue(), np.random.default_rng(0))
        s = LatencySummary.from_run(run)
        assert s.n == 5000
        assert s.p50 <= s.p95 <= s.p99 <= s.p999 <= s.max
        assert "p99=" in s.row()

    def test_reduction_ratio(self):
        assert reduction_ratio(100.0, 50.0) == 2.0
        assert reduction_ratio(100.0, 0.0) == float("inf")

    def test_inverse_cdf_series_monotone(self):
        vals = np.random.default_rng(0).exponential(1.0, 1000)
        probs = np.linspace(0.1, 0.99, 10)
        q = inverse_cdf_series(vals, probs)
        assert np.all(np.diff(q) >= 0)

    def test_inverse_cdf_empty_rejected(self):
        with pytest.raises(ValueError):
            inverse_cdf_series([], [0.5])

    def test_remediation_rate_definition(self):
        from repro.core.interfaces import RunResult

        run = RunResult(
            latencies=np.array([1.0]),
            primary_response_times=np.array([1.0]),
            reissue_pair_x=np.array([10.0, 10.0, 1.0]),
            reissue_pair_y=np.array([1.0, 9.0, 1.0]),
            reissue_rate=0.3,
        )
        # t=5, d=2: needed = x>5 (two), useful = y<3 (first only)
        assert run.remediation_rate(5.0, 2.0) == pytest.approx(1 / 3)

    def test_remediation_rate_no_pairs(self):
        from repro.core.interfaces import RunResult

        run = RunResult(
            latencies=np.array([1.0]),
            primary_response_times=np.array([1.0]),
            reissue_pair_x=np.empty(0),
            reissue_pair_y=np.empty(0),
            reissue_rate=0.0,
        )
        assert run.remediation_rate(5.0, 2.0) == 0.0
