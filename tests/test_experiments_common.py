"""Tests for the machinery every figure driver shares: scales, the §6.3
median-of-runs reduction and the adaptive fit protocol."""

import numpy as np
import pytest

from repro.core.policies import NoReissue, SingleD, SingleR
from repro.distributions.base import as_rng
from repro.experiments.common import SCALES, Scale, get_scale
from repro.optimize import fit_singled_protocol, fit_singler_protocol
from repro.pipeline.cells import evaluate_replications, median_tail_reduce
from repro.simulation.workloads import queueing_workload

TINY = Scale(
    name="tiny", n_queries=2500, eval_seeds=(1, 2), adaptive_trials=2,
    sweep_points=2,
)


class TestScale:
    def test_budget_grid(self):
        s = SCALES["standard"]
        grid = s.budgets(0.1, 0.5)
        assert grid[0] == 0.1 and grid[-1] == 0.5
        assert grid.size == s.sweep_points

    def test_scales_are_ordered_by_fidelity(self):
        assert (
            SCALES["quick"].n_queries
            < SCALES["standard"].n_queries
            < SCALES["full"].n_queries
        )
        assert len(SCALES["quick"].eval_seeds) <= len(SCALES["full"].eval_seeds)

    def test_get_scale_passthrough_and_errors(self):
        assert get_scale(TINY) is TINY
        with pytest.raises(KeyError):
            get_scale("nope")


def median_tail(system, policy, percentile, seeds):
    """The figures' §6.3 reduction: seed-paired runs, then medians."""
    runs = evaluate_replications(system, policy, seeds, (percentile,))
    return median_tail_reduce(runs, percentile)


class TestMedianTail:
    def test_median_over_seeds(self):
        system = queueing_workload(n_queries=2000, utilization=0.3)
        tail, rate = median_tail(system, NoReissue(), 0.95, (1, 2, 3))
        assert tail > 0 and rate == 0.0

    def test_baseline_tail_helper(self):
        # The no-reissue baseline each figure reports against: over two
        # seeds its median is the midpoint of the two runs' tails.
        system = queueing_workload(n_queries=2000, utilization=0.3)
        tail, _ = median_tail(system, NoReissue(), 0.95, (1, 2))
        runs = [system.run(NoReissue(), as_rng(s)) for s in (1, 2)]
        assert tail > 0
        assert tail == float(np.median([r.tail(0.95) for r in runs]))

    def test_batch_path_matches_seed_loop(self):
        # evaluate_replications goes through fastsim.run_replications; it
        # must reproduce the per-seed loop exactly.
        system = queueing_workload(n_queries=2000, utilization=0.3)
        pol = SingleR(1.0, 0.3)
        seeds = (101, 103, 107)
        batch_tail, batch_rate = median_tail(system, pol, 0.95, seeds)
        runs = [system.run(pol, as_rng(s)) for s in seeds]
        assert batch_tail == float(np.median([r.tail(0.95) for r in runs]))
        assert batch_rate == float(np.median([r.reissue_rate for r in runs]))


class TestFitProtocol:
    def test_fit_singler_returns_budget_honouring_policy(self):
        system = queueing_workload(n_queries=3000, utilization=0.3)
        pol = fit_singler_protocol(
            system, 0.95, 0.15, TINY.adaptive_trials, rng=np.random.default_rng(0)
        )
        assert isinstance(pol, SingleR)
        run = system.run(pol, np.random.default_rng(9))
        assert run.reissue_rate <= 0.15 * 2.0  # within the protocol's slack

    def test_fit_singled_returns_singled(self):
        system = queueing_workload(n_queries=3000, utilization=0.3)
        pol = fit_singled_protocol(
            system, 0.15, TINY.adaptive_trials, rng=np.random.default_rng(0)
        )
        assert isinstance(pol, SingleD)

    def test_fit_singler_never_much_worse_than_corner(self):
        """The SingleD-corner probe inside the protocol guards against bad
        adaptive chains: the fitted policy must not lose badly to the
        plain Eq.-2 corner policy."""
        system = queueing_workload(n_queries=3000, utilization=0.3)
        rng = np.random.default_rng(5)
        pol = fit_singler_protocol(system, 0.95, 0.2, TINY.adaptive_trials, rng=rng)
        t_fit, _ = median_tail(system, pol, 0.95, (11, 13, 17))
        base = system.run(NoReissue(), np.random.default_rng(11))
        rx = np.sort(base.primary_response_times)
        corner = SingleR(float(np.quantile(rx, 0.8)), 1.0)
        t_corner, _ = median_tail(system, corner, 0.95, (11, 13, 17))
        # Loose bound: at this tiny scale the Pareto(1.1) P95 estimates
        # carry ~1.5x run-to-run noise themselves.
        assert t_fit <= t_corner * 2.5
