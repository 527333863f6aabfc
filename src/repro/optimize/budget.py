"""Budget selection (§4.4) as solver strategies.

``find_optimal_budget`` / ``min_budget_for_sla`` are generic step
searches over an ``evaluate(budget) -> latency`` callback. These
strategies supply the callback the paper actually uses — fit a SingleR
at the trial budget with the §4.3 protocol, then measure the median
tail over seed-paired replications
(:func:`repro.fastsim.run_replications`) — and register the pair as
``optimal-budget`` and ``sla-budget`` solvers.

The probe is exactly what :func:`repro.pipeline.cells.budget_search_cell`
ran before this layer existed (that cell now delegates here), so fig7
panel (c) and fig8 digests are unchanged.
"""

from __future__ import annotations

import numpy as np

from ..core.budget_search import (
    BudgetSearchResult,
    find_optimal_budget,
    min_budget_for_sla,
)
from ..core.policies import NoReissue
from ..distributions.base import RngLike, as_rng
from .request import FitRequest, FitResult
from .solvers import SOLVERS, fit_singler_protocol


def simulated_budget_probe(
    system,
    percentile: float,
    trials: int,
    seed: RngLike,
    eval_seeds,
    baseline_latency: float,
    learning_rate: float = 0.5,
):
    """``evaluate(budget)`` for the §4.4 searches: fit then measure.

    Each probe fits a SingleR at the trial budget from a *fresh*
    seed-derived stream (so identical budgets evaluate identically —
    which is what lets :func:`find_optimal_budget` cache them) and
    evaluates it over the seed-paired replications via
    :func:`repro.fastsim.run_replications`, all probes being siblings
    of the same seed-paired protocol.
    """
    from ..fastsim import run_replications
    from ..obs.metrics import get_metrics
    from ..obs.trace import get_tracer

    eval_seeds = list(eval_seeds)

    def evaluate(budget: float) -> float:
        tracer = get_tracer()
        if tracer.enabled:
            # One counter tick per *candidate budget actually evaluated*
            # (the search's dedupe memo never reaches this function), so
            # a trace shows how much probing the search really spent.
            get_metrics().counter("optimize.budget_evaluations").inc()
            tracer.event("optimize.budget_probe", budget=float(budget))
        if budget <= 0.0:
            return baseline_latency
        policy = fit_singler_protocol(
            system,
            percentile,
            budget,
            trials,
            learning_rate=learning_rate,
            rng=as_rng(seed),
        )
        evaluate.fitted[float(budget)] = policy
        runs = run_replications(system, policy, eval_seeds)
        return float(np.median([run.tail(percentile) for run in runs]))

    # Probe memo: budget -> the policy that probe fitted. Probes are
    # deterministic per budget (fresh seed-derived stream), so the
    # search result's policy can be read back instead of re-running the
    # whole fit protocol at the winning budget.
    evaluate.fitted = {}
    return evaluate


def _baseline_latency(request: FitRequest, system) -> float:
    """Median no-reissue tail over the evaluation seeds (budget 0)."""
    from ..fastsim import run_replications

    baseline = request.options.get("baseline_latency")
    if baseline is not None:
        return float(baseline)
    seeds = request.seeds or (0,)
    runs = run_replications(system, NoReissue(), list(seeds))
    return float(
        np.median([run.tail(request.percentile) for run in runs])
    )


def _search_request_parts(request: FitRequest, solver: str):
    system = request.resolved_system(solver)
    base = _baseline_latency(request, system)
    eval_seeds = list(request.seeds or (0,))
    count = request.options.get("eval_seed_count")
    if count is not None:
        eval_seeds = eval_seeds[: int(count)]
    evaluate = simulated_budget_probe(
        system,
        request.percentile,
        request.trials,
        request.seed,
        eval_seeds,
        base,
        learning_rate=request.learning_rate,
    )
    return system, base, evaluate


def _result(
    request: FitRequest,
    solver: str,
    system,
    search: BudgetSearchResult,
    fitted: dict | None = None,
) -> FitResult:
    if search.best_budget > 0.0:
        policy = (fitted or {}).get(float(search.best_budget))
        if policy is None:  # pragma: no cover - probes always memoize
            policy = fit_singler_protocol(
                system,
                request.percentile,
                search.best_budget,
                request.trials,
                learning_rate=request.learning_rate,
                rng=as_rng(request.seed),
            )
    else:
        policy = NoReissue()
    # No meta duplication: summary()/render() already derive the
    # best-budget/latency/probe figures from the attached search.
    return FitResult(
        solver=solver,
        family=request.family,
        policy=policy,
        request=request,
        search=search,
    )


@SOLVERS.register(
    "optimal-budget",
    summary="§4.4 expanding/halving search for the tail-minimizing budget",
)
def solve_optimal_budget(request: FitRequest) -> FitResult:
    system, base, evaluate = _search_request_parts(request, "optimal-budget")
    search = find_optimal_budget(
        evaluate,
        initial_step=float(request.options.get("initial_step", 0.01)),
        max_trials=int(request.options.get("max_trials", 15)),
        baseline_latency=base,
    )
    return _result(request, "optimal-budget", system, search, evaluate.fitted)


@SOLVERS.register(
    "sla-budget",
    summary="§4.4 smallest budget meeting a latency SLA",
)
def solve_sla_budget(request: FitRequest) -> FitResult:
    if request.sla_ms is None:
        raise ValueError(
            "solver 'sla-budget' needs the latency target: set sla_ms="
        )
    system, _, evaluate = _search_request_parts(request, "sla-budget")
    search = min_budget_for_sla(
        evaluate,
        target_latency=float(request.sla_ms),
        initial_step=float(request.options.get("initial_step", 0.01)),
        max_trials=int(request.options.get("max_trials", 20)),
    )
    return _result(request, "sla-budget", system, search, evaluate.fitted)


__all__ = [
    "simulated_budget_probe",
    "solve_optimal_budget",
    "solve_sla_budget",
]
