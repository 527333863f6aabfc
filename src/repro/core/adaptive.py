"""Iterative adaptation for load-dependent queueing delays (paper §4.3).

Reissue requests add load, which perturbs the very response-time
distributions the optimizer fitted. The adaptive loop measures the system
*under the current policy*, refits, and moves the reissue delay a fraction
``learning_rate`` toward the refit — repeating until the predicted and
observed tail latencies agree and the empirical reissue rate matches the
budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..distributions.base import RngLike, as_rng
from .correlated import compute_optimal_singler_correlated
from .interfaces import RunResult, SystemUnderTest
from .optimizer import SingleRFit, discrete_cdf, fit_singled_policy
from .policies import ReissuePolicy, SingleD, SingleR


@dataclass
class AdaptiveTrial:
    """One iteration of the adaptive loop (one point on Fig. 2b)."""

    trial: int
    policy: SingleR
    predicted_tail: float
    actual_tail: float
    reissue_rate: float
    utilization: float


@dataclass
class AdaptiveResult:
    """Final policy plus the convergence trace."""

    policy: SingleR
    trials: List[AdaptiveTrial] = field(default_factory=list)
    converged: bool = False

    @property
    def predicted(self) -> np.ndarray:
        return np.array([t.predicted_tail for t in self.trials])

    @property
    def actual(self) -> np.ndarray:
        return np.array([t.actual_tail for t in self.trials])

    @property
    def final_run(self) -> AdaptiveTrial:
        return self.trials[-1]


class AdaptiveSingleROptimizer:
    """Refine a SingleR policy against a live system (§4.3).

    Parameters
    ----------
    percentile:
        Target tail percentile in (0, 1), e.g. 0.95.
    budget:
        Reissue budget B in (0, 1].
    learning_rate:
        λ — the step fraction toward each refit's delay. The paper uses
        0.2 (simulation) and 0.5 (system experiments).
    use_correlation:
        Estimate ``Pr(Y <= t-d | X > t)`` from paired logs when enough
        reissue pairs were observed; otherwise fall back to independence.
    tail_tolerance, budget_tolerance:
        Relative convergence thresholds comparing predicted vs observed
        tail latency and empirical reissue rate vs budget.
    """

    def __init__(
        self,
        percentile: float,
        budget: float,
        learning_rate: float = 0.2,
        use_correlation: bool = True,
        tail_tolerance: float = 0.05,
        budget_tolerance: float = 0.25,
        min_pairs_for_correlation: int = 50,
    ):
        if not 0.0 < percentile < 1.0:
            raise ValueError("percentile must be in (0, 1)")
        if not 0.0 < budget <= 1.0:
            raise ValueError("budget must be in (0, 1]")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        self.percentile = percentile
        self.budget = budget
        self.learning_rate = learning_rate
        self.use_correlation = use_correlation
        self.tail_tolerance = tail_tolerance
        self.budget_tolerance = budget_tolerance
        self.min_pairs_for_correlation = min_pairs_for_correlation

    def initial_policy(self) -> SingleR:
        """The paper's starting point: reissue at d=0 with probability B."""
        return SingleR(0.0, self.budget)

    def fit_from_run(self, result: RunResult) -> SingleRFit:
        """Refit the locally optimal SingleR from one run's logs.

        The independence path runs the vectorized sweep from
        :mod:`repro.optimize.vectorized` (bit-for-bit equal to
        :func:`~repro.core.optimizer.compute_optimal_singler`, just not
        a per-probe Python loop) — this is the inner loop of every
        adaptive trial, so the whole fit protocol inherits the speedup.
        """
        # Lazy: repro.optimize imports this module for the fit protocol.
        from ..optimize.vectorized import compute_optimal_singler_vectorized

        rx = result.primary_response_times
        pairs_ok = (
            self.use_correlation
            and result.reissue_pair_x.size >= self.min_pairs_for_correlation
        )
        if pairs_ok:
            return compute_optimal_singler_correlated(
                rx,
                result.reissue_pair_x,
                result.reissue_pair_y,
                self.percentile,
                self.budget,
            )
        ry = result.reissue_pair_y if result.reissue_pair_y.size else rx
        return compute_optimal_singler_vectorized(
            rx, ry, self.percentile, self.budget
        )

    def apply_step(
        self, current: SingleR, fit: SingleRFit, result: RunResult
    ) -> SingleR:
        """The §4.3 update rule: ``d' = d + λ(d_local - d)`` with ``q``
        rebalanced to spend B against the observed survival."""
        d_new = current.delay + self.learning_rate * (fit.delay - current.delay)
        rx_sorted = np.sort(result.primary_response_times)
        surv = 1.0 - discrete_cdf(rx_sorted, d_new)
        q_new = 1.0 if surv <= self.budget else self.budget / surv
        return SingleR(float(d_new), float(q_new))

    def step(self, current: SingleR, result: RunResult) -> SingleR:
        """One refinement step: d' = d + λ(d_local - d); q rebalanced to B."""
        return self.apply_step(current, self.fit_from_run(result), result)

    def optimize(
        self,
        system: SystemUnderTest,
        trials: int = 10,
        rng: RngLike = None,
    ) -> AdaptiveResult:
        """Run the full adaptive loop for up to ``trials`` iterations."""
        rng = as_rng(rng)
        policy = self.initial_policy()
        out = AdaptiveResult(policy=policy)
        for trial in range(trials):
            result = system.run(policy, rng)
            fit = self.fit_from_run(result)
            actual = result.tail(self.percentile)
            out.trials.append(
                AdaptiveTrial(
                    trial=trial,
                    policy=policy,
                    predicted_tail=fit.predicted_tail,
                    actual_tail=actual,
                    reissue_rate=result.reissue_rate,
                    utilization=result.utilization,
                )
            )
            if self._converged(fit.predicted_tail, actual, result) and trial > 0:
                out.converged = True
                break
            policy = self.apply_step(policy, fit, result)
        out.policy = policy
        return out

    def _converged(self, predicted: float, actual: float, result: RunResult) -> bool:
        if actual <= 0.0:
            return False
        tail_ok = abs(predicted - actual) / actual <= self.tail_tolerance
        budget_ok = (
            abs(result.reissue_rate - self.budget)
            <= self.budget_tolerance * self.budget
        )
        return tail_ok and budget_ok


def adapt_singled(
    system: SystemUnderTest,
    budget: float,
    trials: int = 10,
    learning_rate: float = 0.5,
    rng: RngLike = None,
) -> ReissuePolicy:
    """Adaptively pick a SingleD delay whose *measured* reissue rate is B.

    Under queueing, reissues perturb the response-time distribution, so the
    one-shot Eq.-2 delay overshoots the budget (Fig. 3's Queueing panel
    notes SingleD also needs adaptive refinement). This loop adjusts the
    delay against the observed primary distribution.
    """
    rng = as_rng(rng)
    policy: ReissuePolicy = SingleD(0.0)
    # Start from the no-reissue distribution's Eq.-2 delay.
    from .policies import NoReissue

    base = system.run(NoReissue(), rng)
    rx = np.sort(base.primary_response_times)
    policy = fit_singled_policy(rx, budget)
    for _ in range(trials):
        result = system.run(policy, rng)
        rx_obs = np.sort(result.primary_response_times)
        target = fit_singled_policy(rx_obs, budget)
        d_new = policy.delay + learning_rate * (target.delay - policy.delay)
        policy = SingleD(float(d_new))
        if abs(result.reissue_rate - budget) <= 0.15 * budget:
            break
    return policy
