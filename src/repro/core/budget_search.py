"""Reissue-budget selection (paper §4.4, Fig. 8).

Tail latency as a function of the reissue budget tends to be bowl-shaped:
too little redundancy leaves the tail unremediated, too much inflates
queueing delay. The paper's procedure is an expanding/halving step search:
starting from budget 0 with step δ=1%, accept a trial budget if it improved
the tail (and grow δ by 1.5x), otherwise flip and halve δ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List


@dataclass
class BudgetTrial:
    """One probe of the budget search (one point on Fig. 8)."""

    trial: int
    budget: float
    latency: float
    accepted: bool


@dataclass
class BudgetSearchResult:
    best_budget: float
    best_latency: float
    trials: List[BudgetTrial] = field(default_factory=list)
    #: Number of ``evaluate`` calls actually made (< len(trials) when
    #: step reversals revisited an already-evaluated budget).
    evaluations: int = 0

    @property
    def budgets(self):
        return [t.budget for t in self.trials]

    @property
    def latencies(self):
        return [t.latency for t in self.trials]


class _Memo:
    """``evaluate`` memoized on the exact candidate budget.

    The expanding/halving step search can revisit a budget after a step
    reversal (grow, reject, halve back onto an earlier probe). Probes are
    expensive — a full fit-then-measure protocol — and the probe contract
    is deterministic per budget (fits draw from a fresh seed-derived
    stream), so an identical candidate never needs a second evaluation.
    The trial trace still records every probe, cached or not.
    """

    def __init__(self, evaluate: Callable[[float], float]):
        self._evaluate = evaluate
        self._cache: dict[float, float] = {}

    def __call__(self, budget: float) -> float:
        budget = float(budget)
        if budget not in self._cache:
            self._cache[budget] = float(self._evaluate(budget))
        return self._cache[budget]

    @property
    def calls(self) -> int:
        return len(self._cache)


def _step_search(
    evaluate: _Memo,
    base_latency: float,
    key: Callable[[float, float], object],
    accepted_step: Callable[[float, float], float],
    initial_step: float,
    max_trials: int,
    min_step: float,
    max_budget: float,
) -> BudgetSearchResult:
    """The §4.4 loop both searches share, from budget 0 at ``base_latency``.

    Probe ``best + δ``. A probe whose ``key(budget, latency)`` is below
    the best one's is accepted and sets ``δ = accepted_step(δ, latency)``;
    a rejected probe sets ``δ = -δ/2``. Stop when |δ| underflows or trials
    are exhausted.
    """
    result = BudgetSearchResult(best_budget=0.0, best_latency=base_latency)
    result.trials.append(BudgetTrial(0, 0.0, base_latency, accepted=True))
    best_budget, best_latency = 0.0, base_latency
    step = initial_step
    for trial in range(1, max_trials + 1):
        if abs(step) < min_step:
            break
        cand = best_budget + step
        if cand <= 0.0 or cand > max_budget:
            step = -step / 2.0
            continue
        latency = evaluate(cand)
        improved = key(cand, latency) < key(best_budget, best_latency)
        result.trials.append(BudgetTrial(trial, cand, latency, accepted=improved))
        if improved:
            best_budget, best_latency = cand, latency
            step = accepted_step(step, latency)
        else:
            step = -step / 2.0
    result.best_budget = best_budget
    result.best_latency = best_latency
    result.evaluations = evaluate.calls
    return result


def find_optimal_budget(
    evaluate: Callable[[float], float],
    initial_step: float = 0.01,
    max_trials: int = 15,
    min_step: float = 1e-3,
    max_budget: float = 1.0,
    baseline_latency: float | None = None,
) -> BudgetSearchResult:
    """Paper §4.4 binary-search procedure for the tail-minimizing budget.

    Parameters
    ----------
    evaluate:
        Callback mapping a budget to the achieved k-th percentile latency
        (typically: run the adaptive optimizer for a few trials at that
        budget, then measure). Budget 0 means no reissue. It is called
        once per distinct budget: a revisit is served from a memo and
        still recorded in the trial trace.
    initial_step:
        δ — the paper uses 1%.
    baseline_latency:
        Latency at budget 0; evaluated via ``evaluate(0.0)`` if omitted.

    Steps: probe ``best + δ``; on improvement set ``best`` and ``δ = 1.5δ``,
    else ``δ = -δ/2``; stop when |δ| underflows or trials are exhausted.
    """
    if initial_step <= 0.0:
        raise ValueError("initial_step must be positive")
    evaluate = _Memo(evaluate)
    base = (
        float(baseline_latency)
        if baseline_latency is not None
        else evaluate(0.0)
    )
    return _step_search(
        evaluate,
        base,
        key=lambda budget, latency: latency,
        accepted_step=lambda step, latency: 1.5 * step,
        initial_step=initial_step,
        max_trials=max_trials,
        min_step=min_step,
        max_budget=max_budget,
    )


def min_budget_for_sla(
    evaluate: Callable[[float], float],
    target_latency: float,
    initial_step: float = 0.01,
    max_trials: int = 20,
    min_step: float = 1e-3,
    max_budget: float = 1.0,
) -> BudgetSearchResult:
    """Smallest budget meeting a latency SLA (§4.4 "minimal resources").

    Uses the paper's suggested transform ``f(L) = min(T, L)`` so that once
    the SLA is met, smaller budgets are preferred: we search on the pair
    ``(latency clipped to T, budget)`` lexicographically. ``evaluate`` is
    memoized as in :func:`find_optimal_budget`.
    """
    if target_latency <= 0.0:
        raise ValueError("target_latency must be positive")

    evaluate = _Memo(evaluate)
    base = evaluate(0.0)
    if base <= target_latency:
        max_trials = 0  # SLA already met with zero redundancy: no probes.

    # Two-phase lexicographic acceptance. The paper suggests searching on
    # f(L) = min{T, L}, but that transform is flat for every budget still
    # missing the SLA, which stalls the expanding search before it reaches
    # T. We keep the intent — "meeting the SLA dominates; among meeting
    # budgets the smaller wins" — with an explicit key:
    #   not meeting:  (1, latency)  — move toward the SLA,
    #   meeting:      (0, budget)   — then shrink the budget.
    def key(budget: float, latency: float) -> tuple:
        if latency <= target_latency:
            return (0, budget)
        return (1, latency)

    def accepted_step(step: float, latency: float) -> float:
        if latency <= target_latency:
            # SLA met: probe downward with halved step to shrink budget.
            return -abs(step) / 2.0
        return 1.5 * step

    return _step_search(
        evaluate,
        base,
        key=key,
        accepted_step=accepted_step,
        initial_step=initial_step,
        max_trials=max_trials,
        min_step=min_step,
        max_budget=max_budget,
    )
