"""Tests for the discrete-event cluster engine (paper §5)."""

import numpy as np
import pytest

from repro.core.policies import ImmediateReissue, NoReissue, SingleD, SingleR
from repro.distributions import Exponential, Pareto, Uniform
from repro.simulation.arrivals import PoissonArrivals
from repro.simulation.engine import ClusterConfig, simulate_cluster
from repro.simulation.workloads import ServiceModel, queueing_workload


def make_config(**over):
    defaults = dict(
        arrivals=PoissonArrivals(1.0),
        service_model=ServiceModel(Exponential(1.0)),
        n_queries=2000,
        n_servers=4,
        warmup_fraction=0.0,
    )
    defaults.update(over)
    return ClusterConfig(**defaults)


class TestConfigValidation:
    def test_rejects_zero_queries(self):
        with pytest.raises(ValueError):
            make_config(n_queries=0)

    def test_rejects_zero_servers(self):
        with pytest.raises(ValueError):
            make_config(n_servers=0)

    def test_rejects_missing_rate_spec(self):
        with pytest.raises(ValueError):
            make_config(arrivals=None, target_utilization=None)

    def test_rejects_bad_utilization(self):
        with pytest.raises(ValueError):
            make_config(arrivals=None, target_utilization=1.2)

    def test_rejects_bad_warmup(self):
        with pytest.raises(ValueError):
            make_config(warmup_fraction=0.7)


class TestConservation:
    """Every query must complete exactly once; reissues are accounted."""

    def test_all_queries_complete(self):
        run = simulate_cluster(make_config(), NoReissue(), 0)
        assert run.n_queries == 2000
        assert np.all(run.latencies >= 0)
        assert np.all(np.isfinite(run.latencies))

    def test_no_reissue_means_no_pairs(self):
        run = simulate_cluster(make_config(), NoReissue(), 0)
        assert run.reissue_rate == 0.0
        assert run.reissue_pair_x.size == 0

    def test_latency_never_exceeds_primary_response(self):
        run = simulate_cluster(make_config(), SingleR(0.5, 0.5), 0)
        assert np.all(run.latencies <= run.primary_response_times + 1e-9)

    def test_immediate_reissue_rate_is_one(self):
        run = simulate_cluster(make_config(), ImmediateReissue(), 0)
        assert run.reissue_rate == pytest.approx(1.0)

    def test_reissue_rate_respects_eq4_upper_bound(self):
        # Rate = q * Pr(no response by d) <= q.
        q = 0.3
        run = simulate_cluster(make_config(), SingleR(0.0, q), 0)
        assert run.reissue_rate <= q + 0.03

    def test_pair_logs_have_equal_length(self):
        run = simulate_cluster(make_config(), SingleR(0.2, 0.8), 1)
        assert run.reissue_pair_x.shape == run.reissue_pair_y.shape
        assert run.reissue_pair_x.size > 0


class TestUtilization:
    def test_target_utilization_is_hit(self):
        cfg = make_config(
            arrivals=None,
            target_utilization=0.4,
            n_queries=20_000,
            service_model=ServiceModel(Uniform(0.5, 1.5)),
        )
        run = simulate_cluster(cfg, NoReissue(), 3)
        assert run.utilization == pytest.approx(0.4, abs=0.05)

    def test_reissues_increase_utilization(self):
        cfg = make_config(
            arrivals=None,
            target_utilization=0.3,
            n_queries=20_000,
            service_model=ServiceModel(Uniform(0.5, 1.5)),
        )
        base = simulate_cluster(cfg, NoReissue(), 3)
        dup = simulate_cluster(cfg, ImmediateReissue(), 3)
        assert dup.utilization > base.utilization * 1.5

    def test_busy_fraction_below_one(self):
        run = simulate_cluster(make_config(), ImmediateReissue(2), 0)
        assert 0.0 < run.utilization <= 1.0


class TestReissueSemantics:
    def test_completed_queries_not_reissued(self):
        # With a huge delay, nothing is outstanding: no reissues dispatched.
        cfg = make_config(service_model=ServiceModel(Uniform(0.1, 0.2)))
        run = simulate_cluster(cfg, SingleD(1e9), 0)
        assert run.reissue_rate == 0.0

    def test_delayed_reissue_dispatch_times(self):
        # Eq. 2 with load feedback (§4.3): the measured budget equals
        # Pr(latency > d) *under the policy itself* — at least the
        # no-reissue fraction (extra load only inflates latencies) and
        # matching the policy run's own outstanding fraction exactly.
        cfg = make_config(n_queries=20_000)
        d = 1.0
        base = simulate_cluster(cfg, NoReissue(), 5)
        frac_base = float((base.latencies > d).mean())
        run = simulate_cluster(cfg, SingleD(d), 5)
        frac_self = float((run.latencies > d).mean())
        assert run.reissue_rate >= frac_base - 0.02
        assert run.reissue_rate == pytest.approx(frac_self, abs=0.02)

    def test_reissue_reduces_tail_in_light_load(self):
        # Median over seed-paired runs, like the paper's §6.3 protocol:
        # a single Pareto(1.1) run's P99 is dominated by whoever queued
        # behind the trace's one or two giant jobs, so single-run
        # comparisons flip sign on unlucky seeds.
        cfg = make_config(
            arrivals=None,
            target_utilization=0.05,
            n_queries=20_000,
            service_model=ServiceModel(Pareto(1.1, 2.0)),
        )
        seeds = (7, 8, 9)
        base = np.median(
            [simulate_cluster(cfg, NoReissue(), s).tail(0.99) for s in seeds]
        )
        hedged = np.median(
            [
                simulate_cluster(cfg, ImmediateReissue(), s).tail(0.99)
                for s in seeds
            ]
        )
        assert hedged < base

    def test_multistage_policy_runs(self):
        from repro.core.policies import MultipleR

        pol = MultipleR([(0.5, 0.3), (1.5, 0.3)])
        run = simulate_cluster(make_config(), pol, 0)
        assert run.meta["n_reissues_total"] >= 0


class TestWarmup:
    def test_warmup_trims_measurement_window(self):
        cfg = make_config(warmup_fraction=0.25, n_queries=1000)
        run = simulate_cluster(cfg, NoReissue(), 0)
        assert run.n_queries == 750
        assert run.meta["n_measured"] == 750
        # The paper's workloads measure all but the first 5% of queries.
        system = queueing_workload(n_queries=2000, utilization=0.3)
        assert system.run(NoReissue(), np.random.default_rng(3)).n_queries == 1900

    def test_determinism_same_seed(self):
        a = simulate_cluster(make_config(), SingleR(0.5, 0.5), 11)
        b = simulate_cluster(make_config(), SingleR(0.5, 0.5), 11)
        assert np.array_equal(a.latencies, b.latencies)
        assert a.reissue_rate == b.reissue_rate

    def test_different_seeds_differ(self):
        a = simulate_cluster(make_config(), NoReissue(), 1)
        b = simulate_cluster(make_config(), NoReissue(), 2)
        assert not np.array_equal(a.latencies, b.latencies)
