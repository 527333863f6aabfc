"""Ablations of the paper's design choices (docs/paper_map.md).

* randomization (q) vs determinism — covered by bench_fig3/bench_fig7;
* correlation-aware conditional CDF vs the independence assumption;
* adaptive refinement vs a one-shot fit under queueing feedback;
* learning-rate sensitivity of the adaptive loop.
"""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveSingleROptimizer
from repro.core.correlated import compute_optimal_singler_correlated
from repro.core.optimizer import compute_optimal_singler
from repro.core.policies import NoReissue, SingleR
from repro.simulation.workloads import correlated_workload, queueing_workload

PCT = 0.95


def _median_tail(system, policy, seeds=(31, 33, 37)):
    return float(
        np.median(
            [system.run(policy, np.random.default_rng(s)).tail(PCT) for s in seeds]
        )
    )


def test_ablation_correlation_aware_optimizer(benchmark):
    """Fitting with the §4.2 conditional CDF must not do worse than the
    independence-assuming fit on a strongly correlated workload, and its
    tail prediction must be more honest (not optimistic)."""
    system = correlated_workload(30_000, ratio=0.9)

    def fit_both():
        rng = np.random.default_rng(5)
        base = system.run(NoReissue(), rng)
        probe = system.run(SingleR(0.0, 0.1), rng)
        rx = base.primary_response_times
        naive = compute_optimal_singler(rx, probe.reissue_pair_y, PCT, 0.1)
        aware = compute_optimal_singler_correlated(
            rx, probe.reissue_pair_x, probe.reissue_pair_y, PCT, 0.1
        )
        return naive, aware

    naive, aware = benchmark.pedantic(fit_both, rounds=1, iterations=1)
    t_naive = _median_tail(system, naive.policy)
    t_aware = _median_tail(system, aware.policy)
    print(
        f"\nnaive fit: d={naive.delay:.1f} q={naive.prob:.2f} "
        f"predicted={naive.predicted_tail:.1f} achieved={t_naive:.1f}\n"
        f"aware fit: d={aware.delay:.1f} q={aware.prob:.2f} "
        f"predicted={aware.predicted_tail:.1f} achieved={t_aware:.1f}"
    )
    # The achieved tails are close (both near-optimal here), but the naive
    # predictor must be the more optimistic one: it ignores that slow
    # primaries imply slow reissues.
    assert naive.predicted_tail <= aware.predicted_tail + 1e-9
    assert t_aware <= t_naive * 1.15
    # And the correlation-aware prediction is the better-calibrated one.
    err_naive = abs(naive.predicted_tail - t_naive)
    err_aware = abs(aware.predicted_tail - t_aware)
    assert err_aware <= err_naive * 1.5


def test_ablation_adaptive_vs_oneshot(benchmark):
    """Under queueing feedback a one-shot fit overshoots the budget; the
    adaptive loop (§4.3) reins the measured reissue rate back in."""
    system = queueing_workload(n_queries=8_000, utilization=0.4)
    budget = 0.15

    def run_both():
        rng = np.random.default_rng(3)
        base = system.run(NoReissue(), rng)
        rx = base.primary_response_times
        oneshot = compute_optimal_singler(rx, rx, PCT, budget).policy
        opt = AdaptiveSingleROptimizer(
            percentile=PCT, budget=budget, learning_rate=0.3
        )
        adaptive = opt.optimize(system, trials=5, rng=rng).policy
        return oneshot, adaptive

    oneshot, adaptive = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rate_oneshot = float(
        np.median(
            [
                system.run(oneshot, np.random.default_rng(s)).reissue_rate
                for s in (41, 43)
            ]
        )
    )
    rate_adaptive = float(
        np.median(
            [
                system.run(adaptive, np.random.default_rng(s)).reissue_rate
                for s in (41, 43)
            ]
        )
    )
    print(
        f"\nbudget={budget}: one-shot measured rate={rate_oneshot:.3f}, "
        f"adaptive measured rate={rate_adaptive:.3f}"
    )
    # The adaptive policy's measured rate must be at least as faithful.
    assert abs(rate_adaptive - budget) <= abs(rate_oneshot - budget) + 0.03


@pytest.mark.parametrize("lr", [0.1, 0.5])
def test_ablation_learning_rate(benchmark, lr):
    """Convergence-speed sweep: both learning rates must converge to
    policies with comparable tails; λ=0.5 in fewer effective moves."""
    system = queueing_workload(n_queries=8_000, utilization=0.3)
    opt = AdaptiveSingleROptimizer(percentile=PCT, budget=0.2, learning_rate=lr)

    result = benchmark.pedantic(
        lambda: opt.optimize(system, trials=6, rng=np.random.default_rng(7)),
        rounds=1,
        iterations=1,
    )
    print(
        f"\nlambda={lr}: delays="
        f"{[round(t.policy.delay, 1) for t in result.trials]} "
        f"tails={[round(t.actual_tail, 1) for t in result.trials]}"
    )
    base = _median_tail(system, NoReissue(), seeds=(41,))
    # Both learning rates must reach a helping policy at some point in the
    # chain (single-run trial tails are too noisy under Pareto(1.1) to pin
    # the *final* iterate at this scale).
    assert min(t.actual_tail for t in result.trials) < base


def test_ablation_duplicate_cancellation(benchmark):
    """Extension ablation: cancelling stale duplicates (Lee et al.) frees
    capacity; with zero overhead it can only help utilization."""
    from repro.distributions import Pareto
    from repro.simulation.arrivals import PoissonArrivals
    from repro.simulation.engine import ClusterConfig, simulate_cluster
    from repro.simulation.workloads import ServiceModel

    def run_pair():
        common = dict(
            arrivals=None,
            target_utilization=0.5,
            service_model=ServiceModel(Pareto(1.1, 2.0)),
            n_queries=12_000,
            n_servers=4,
        )
        pol = SingleR(5.0, 0.5)
        plain = simulate_cluster(ClusterConfig(**common), pol, 3)
        cancel = simulate_cluster(
            ClusterConfig(**common, cancel_queued=True), pol, 3
        )
        return plain, cancel

    plain, cancel = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print(
        f"\nnever-cancel: util={plain.utilization:.3f} p99={plain.tail(0.99):.0f}"
        f"\ncancelling  : util={cancel.utilization:.3f} p99={cancel.tail(0.99):.0f}"
        f" ({cancel.meta['n_cancelled']} duplicates cancelled)"
    )
    assert cancel.utilization <= plain.utilization
