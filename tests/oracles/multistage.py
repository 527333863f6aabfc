"""Brute-force multi-stage fitters: the numerical face of Theorems 3.1/3.2
(test oracles).

The theorems of §3 say the *optimal* DoubleR/MultipleR policy is no
better than the optimal SingleR policy at the same budget. These fitters
try hard to beat SingleR and must fail:

* :func:`optimal_doubler` searches a grid over DoubleR ``(d1, d2, q1)``
  on closed-form distributions (Theorem 3.1), solving ``q2`` from the
  Eq.-15 budget;
* :func:`compute_optimal_multipler` searches n-stage policies on
  response-time logs (Theorem 3.2 on data): a coarse grid over stage
  delays with the remaining budget pushed into the last stage.
  O(grid^n_stages · n_stages) success evaluations over pre-sorted logs.

Only the production SingleR fitters they are compared against live in
``repro.core``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.analytic import AnalyticFit
from repro.core.optimizer import discrete_cdf
from repro.core.policies import DoubleR, MultipleR
from repro.distributions.base import Distribution


@dataclass(frozen=True)
class MultipleRFit:
    """Best n-stage policy found, with its predicted tail."""

    stages: tuple
    predicted_tail: float
    baseline_tail: float
    budget: float
    percentile: float

    @property
    def policy(self) -> MultipleR:
        return MultipleR(self.stages)


def _policy_miss(rx, ry, stages, t: float) -> float:
    """Empirical Pr(Q > t) under independence (Eq. 3 generalized)."""
    miss = 1.0 - discrete_cdf(rx, t)
    for d, q in stages:
        if t > d:
            miss *= 1.0 - q * discrete_cdf(ry, t - d)
    return miss


def _policy_budget(rx, ry, stages) -> float:
    """Empirical Eq.-15 budget: stage i fires iff the coin succeeds, the
    primary is outstanding at d_i, and no earlier issued copy returned."""
    total = 0.0
    for i, (d_i, q_i) in enumerate(stages):
        p = 1.0 - discrete_cdf(rx, d_i)
        for d_j, q_j in stages[:i]:
            p *= 1.0 - q_j * discrete_cdf(ry, max(d_i - d_j, 0.0))
        total += q_i * p
    return total


def _min_feasible_tail(rx, ry, stages, percentile: float) -> float:
    """Smallest log sample t with empirical Pr(Q <= t) >= k (bisection on
    the sorted log)."""
    lo, hi = 0, rx.size - 1
    if 1.0 - _policy_miss(rx, ry, stages, float(rx[hi])) < percentile:
        return float(rx[hi])
    while lo < hi:
        mid = (lo + hi) // 2
        if 1.0 - _policy_miss(rx, ry, stages, float(rx[mid])) >= percentile:
            hi = mid
        else:
            lo = mid + 1
    return float(rx[lo])


def compute_optimal_multipler(
    rx,
    ry,
    percentile: float,
    budget: float,
    n_stages: int = 2,
    delay_grid: int = 12,
    prob_grid: int = 6,
) -> MultipleRFit:
    """Best-effort n-stage MultipleR fit from logs (independence model).

    Parameters mirror :func:`repro.core.optimizer.compute_optimal_singler`;
    ``delay_grid``/``prob_grid`` control the search resolution. Stage
    delays range over log quantiles up to the Eq.-5 cap (``Pr(X > d) >=
    B``); the final stage's probability is solved to exhaust whatever
    budget the earlier stages left, so every candidate spends exactly
    ``budget`` (or as much of it as feasible).
    """
    rx = np.sort(np.asarray(rx, dtype=np.float64))
    ry = np.sort(np.asarray(ry, dtype=np.float64))
    if rx.size == 0 or ry.size == 0:
        raise ValueError("rx and ry must be non-empty")
    if not 0.0 < percentile < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {percentile}")
    if not 0.0 < budget <= 1.0:
        raise ValueError(f"budget must be in (0, 1], got {budget}")
    if n_stages < 1:
        raise ValueError("n_stages must be >= 1")

    d_cap = float(np.quantile(rx, 1.0 - budget)) if budget < 1.0 else 0.0
    delays = np.unique(
        np.concatenate(
            [[float(rx[0])], np.quantile(rx, np.linspace(0.0, 1.0, delay_grid))]
        )
    )
    delays = delays[delays <= d_cap + 1e-12]
    if delays.size == 0:
        delays = np.array([float(rx[0])])
    probs = np.linspace(0.0, 1.0, prob_grid)

    baseline = float(np.quantile(rx, percentile, method="higher"))
    best_tail = baseline
    best_stages: tuple = ((float(delays[0]), 0.0),) * n_stages

    for ds in itertools.combinations_with_replacement(delays.tolist(), n_stages):
        for qs_head in itertools.product(probs.tolist(), repeat=n_stages - 1):
            stages = list(zip(ds[:-1], qs_head))
            spent = _policy_budget(rx, ry, stages)
            if spent > budget + 1e-12:
                continue
            # Exhaust the remaining budget in the last stage.
            p_last = 1.0 - discrete_cdf(rx, ds[-1])
            for d_j, q_j in stages:
                p_last *= 1.0 - q_j * discrete_cdf(ry, max(ds[-1] - d_j, 0.0))
            if p_last <= 1e-12:
                q_last = 0.0
            else:
                q_last = min(1.0, (budget - spent) / p_last)
            full = tuple(stages) + ((ds[-1], q_last),)
            tail = _min_feasible_tail(rx, ry, full, percentile)
            if tail < best_tail:
                best_tail, best_stages = tail, full

    return MultipleRFit(
        stages=tuple((float(d), float(q)) for d, q in best_stages),
        predicted_tail=float(best_tail),
        baseline_tail=baseline,
        budget=float(budget),
        percentile=float(percentile),
    )


def optimal_doubler(
    primary: Distribution,
    reissue: Distribution,
    percentile: float,
    budget: float,
    grid: int = 24,
) -> AnalyticFit:
    """Best DoubleR policy by exhaustive grid over (d1, d2, q1 split).

    Used to check Theorem 3.1 numerically: the returned tail should never
    be (meaningfully) below the optimal SingleR tail for the same budget.
    The budget constraint (Eq. 15) is enforced by solving for q2 given q1.
    """
    if not 0.0 < percentile < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {percentile}")
    if not 0.0 < budget <= 1.0:
        raise ValueError(f"budget must be in (0, 1], got {budget}")
    t_hi = float(primary.quantile(1.0 - min(1e-9, (1.0 - percentile) / 1e3)))
    d_max = float(primary.quantile(1.0 - budget)) if budget < 1.0 else 0.0
    ds = np.asarray(
        primary.quantile(np.linspace(0.0, 1.0, grid) * (1.0 - budget))
    )
    ds = np.unique(np.concatenate([[0.0], ds[ds <= d_max + 1e-12]]))
    q1s = np.linspace(0.0, 1.0, grid)

    best_tail = np.inf
    best = None
    for d1 in ds:
        surv1 = float(primary.survival(d1))
        for d2 in ds[ds >= d1]:
            surv2 = float(primary.survival(d2))
            fy12 = float(reissue.cdf(max(d2 - d1, 0.0)))
            for q1 in q1s:
                if q1 * surv1 > budget + 1e-12:
                    continue
                denom = surv2 * (1.0 - q1 * fy12)
                if denom <= 0.0:
                    q2 = 1.0
                else:
                    q2 = min(1.0, (budget - q1 * surv1) / denom)
                if q2 < 0.0:
                    continue
                pol = DoubleR(float(d1), float(q1), float(d2), float(q2))
                tail = pol.tail_latency(
                    percentile * 100.0, primary, reissue, t_hi=t_hi
                )
                if tail < best_tail:
                    best_tail, best = tail, pol
    assert best is not None
    return AnalyticFit(
        policy=best, tail=float(best_tail), percentile=percentile, budget=budget
    )
