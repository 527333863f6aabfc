"""Analytic (closed-form distribution) reissue-policy optimization.

The theory of Sections 2-3 operates on true distributions rather than
sample logs. This module solves the constrained optimization problem of
§2.3 for :class:`~repro.distributions.base.Distribution` objects:

    minimize t  s.t.  Pr(X<=t) + q Pr(X>t) Pr(Y<=t-d) >= k,
                      q Pr(X>=d) <= B

It backs the ``analytic`` solver, and the tests use it to validate the
data-driven optimizer against ground truth and to check Theorems 3.1/3.2
numerically against the brute-force fitters in ``tests/oracles/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distributions.base import Distribution
from .policies import SingleD, SingleR


@dataclass(frozen=True)
class AnalyticFit:
    """Optimal policy parameters under known distributions."""

    policy: object
    tail: float
    percentile: float
    budget: float


def singler_tail_for_delay(
    d: float,
    primary: Distribution,
    reissue: Distribution,
    percentile: float,
    budget: float,
    t_hi: float,
) -> float:
    """k-th percentile tail achieved by SingleR at delay ``d`` (full budget)."""
    surv_d = float(primary.survival(d))
    q = 1.0 if surv_d <= budget else budget / surv_d
    policy = SingleR(d, q)
    return policy.tail_latency(percentile * 100.0, primary, reissue, t_hi=t_hi)


def optimal_singler(
    primary: Distribution,
    reissue: Distribution,
    percentile: float,
    budget: float,
    grid: int = 256,
) -> AnalyticFit:
    """Optimal SingleR by grid search + golden-section refinement over ``d``.

    The objective ``tail(d)`` is continuous but not convex in general, so a
    dense quantile-spaced grid locates the basin and a bounded scalar
    minimize polishes it.
    """
    _check(percentile, budget)
    t_hi = float(primary.quantile(1.0 - min(1e-9, (1.0 - percentile) / 1e3)))
    # Candidate delays spread over the quantiles of X, from immediate to
    # the SingleD delay d' where Pr(X > d') = B (the MultipleR upper end).
    d_max = float(primary.quantile(1.0 - budget)) if budget < 1.0 else 0.0
    ps = np.linspace(0.0, 1.0, grid)
    cands = np.unique(
        np.concatenate([[0.0], np.asarray(primary.quantile(ps * (1.0 - budget)))])
    )
    cands = cands[cands <= d_max + 1e-12]
    tails = np.array(
        [
            singler_tail_for_delay(d, primary, reissue, percentile, budget, t_hi)
            for d in cands
        ]
    )
    best_i = int(np.argmin(tails))
    lo = cands[max(best_i - 1, 0)]
    hi = cands[min(best_i + 1, cands.size - 1)]
    if hi > lo:
        # Lazy: importing serving or the CLI must load no scipy.
        from scipy import optimize

        res = optimize.minimize_scalar(
            lambda d: singler_tail_for_delay(
                d, primary, reissue, percentile, budget, t_hi
            ),
            bounds=(float(lo), float(hi)),
            method="bounded",
            options={"xatol": 1e-10 * max(hi, 1.0)},
        )
        d_best = float(res.x) if res.fun <= tails[best_i] else float(cands[best_i])
    else:
        d_best = float(cands[best_i])
    surv = float(primary.survival(d_best))
    q = 1.0 if surv <= budget else budget / surv
    policy = SingleR(d_best, q)
    tail = policy.tail_latency(percentile * 100.0, primary, reissue, t_hi=t_hi)
    return AnalyticFit(policy=policy, tail=tail, percentile=percentile, budget=budget)


def optimal_singled(
    primary: Distribution,
    reissue: Distribution,
    percentile: float,
    budget: float,
) -> AnalyticFit:
    """The SingleD policy for a budget (delay fixed by Eq. 2) and its tail."""
    _check(percentile, budget)
    policy = SingleD.for_budget(primary, budget)
    t_hi = float(primary.quantile(1.0 - min(1e-9, (1.0 - percentile) / 1e3)))
    tail = policy.tail_latency(percentile * 100.0, primary, reissue, t_hi=t_hi)
    return AnalyticFit(policy=policy, tail=tail, percentile=percentile, budget=budget)


def _check(percentile: float, budget: float) -> None:
    if not 0.0 < percentile < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {percentile}")
    if not 0.0 < budget <= 1.0:
        raise ValueError(f"budget must be in (0, 1], got {budget}")
