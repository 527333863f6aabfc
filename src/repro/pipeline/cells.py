"""Module-level cell functions (worker-safe, deterministic by seed).

Every function here derives its randomness exclusively from explicit
seed arguments (via ``as_rng``), so a cell's value is independent of
which process runs it, in which order, alongside which other cells —
the property the pipeline's serial == parallel == cached guarantee
rests on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..core.adaptive import AdaptiveSingleROptimizer
from ..core.budget_search import find_optimal_budget
from ..core.interfaces import RunResult
from ..distributions.base import as_rng
from ..fastsim import run_replications
from .spec import SystemRef

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.common import Scale

# The fit protocol lives in repro.optimize (and experiments.common
# re-wraps it with Scale-based signatures); experiments eagerly imports
# the figure drivers, which import this package — so the experiments /
# optimize imports below must stay inside the functions (the figure
# drivers are the only importers at module-load time, and they load
# experiments first; anyone importing repro.pipeline directly must not
# drag the drivers in transitively).


def _build(system) -> Any:
    return system.build() if isinstance(system, SystemRef) else system


def summarize_run(
    run: RunResult, percentiles: Sequence[float], measure: Sequence[str]
) -> dict:
    """Reduce a ``RunResult`` to the measures a figure actually plots.

    Full runs carry arrays per query; cells only ship/cache what their
    figure consumes: tail percentiles, the empirical reissue rate, the
    sorted primary response times, and/or the paired reissue log.
    """
    out: dict[str, Any] = {}
    if "tails" in measure:
        out["tails"] = {float(p): run.tail(float(p)) for p in percentiles}
    if "reissue_rate" in measure:
        out["reissue_rate"] = run.reissue_rate
    if "sorted_primary" in measure:
        out["sorted_primary"] = np.sort(run.primary_response_times)
    if "sorted_latencies" in measure:
        out["sorted_latencies"] = np.sort(run.latencies)
    if "pairs" in measure:
        out["pairs"] = (run.reissue_pair_x, run.reissue_pair_y)
    if "utilization" in measure:
        out["utilization"] = run.utilization
    return out


def evaluate_replication(
    system,
    policy,
    seed: int,
    percentiles: Sequence[float] = (),
    measure: Sequence[str] = ("tails", "reissue_rate"),
) -> dict:
    """One (system, policy, seed) replication → measure summary."""
    return evaluate_replications(system, policy, [seed], percentiles, measure)[0]


def evaluate_replications(
    system,
    policy,
    seeds: Sequence[int],
    percentiles: Sequence[float] = (),
    measure: Sequence[str] = ("tails", "reissue_rate"),
) -> list[dict]:
    """Seed-paired replications via :func:`repro.fastsim.run_replications`.

    This is the executor's group job: ready evaluation cells sharing a
    (system, policy) pair become one call over their seeds, so one job
    (one dispatch, one build of the system) serves the whole seed set.
    Each summary is the one :func:`evaluate_replication` gives for its
    seed alone.
    """
    runs = run_replications(_build(system), policy, list(seeds))
    return [summarize_run(run, percentiles, measure) for run in runs]


def median_tail_reduce(
    runs: Sequence[Mapping], percentile: float
) -> tuple[float, float]:
    """§6.3 reduction over evaluation summaries: median (tail, rate)."""
    tails = [r["tails"][percentile] for r in runs]
    rates = [r["reissue_rate"] for r in runs]
    return float(np.median(tails)), float(np.median(rates))


# -- protocol fits (shared by several figures) -------------------------------


def fit_singler_cell(
    system, percentile: float, budget: float, scale: "Scale", seed: int,
    learning_rate: float = 0.5,
):
    """Adaptive SingleR fit (§4.3/§6.1) with a fresh seed-derived stream,
    through the :mod:`repro.optimize` solver layer."""
    from ..optimize import fit_singler_protocol

    return fit_singler_protocol(
        _build(system), percentile, budget,
        trials=scale.adaptive_trials,
        learning_rate=learning_rate, rng=as_rng(seed),
    )


def fit_singled_cell(system, budget: float, scale: "Scale", seed: int):
    """Adaptive SingleD baseline fit (§5.1), through the solver layer."""
    from ..optimize import fit_singled_protocol

    return fit_singled_protocol(
        _build(system), budget=budget, trials=scale.adaptive_trials,
        rng=as_rng(seed),
    )


def adaptive_trace_cell(
    system,
    percentile: float,
    budget: float,
    learning_rate: float,
    trials: int,
    seed: int,
):
    """Full adaptive-loop trace (Fig. 2b): returns the AdaptiveResult."""
    opt = AdaptiveSingleROptimizer(
        percentile=percentile, budget=budget, learning_rate=learning_rate
    )
    return opt.optimize(_build(system), trials=trials, rng=as_rng(seed))


def budget_search_cell(
    system,
    percentile: float,
    scale: "Scale",
    seed: int,
    baseline: tuple[float, float],
    initial_step: float,
    max_trials: int,
    eval_seed_count: int = 2,
):
    """§4.4 expanding/halving budget search, sequential by nature.

    The search adaptively decides each probe from the previous one, so it
    compiles to a single cell rather than a fan-out; each probe is the
    optimize layer's :func:`~repro.optimize.simulated_budget_probe` —
    fit at the trial budget, then seed-paired fastsim evaluation.
    ``baseline`` is the (tail, rate) reduction of the no-reissue
    evaluation cells — a dependency, so the planner shares those
    replications with the panels that plot them.
    """
    from ..optimize import simulated_budget_probe

    sys_ = _build(system)
    base = baseline[0]
    evaluate = simulated_budget_probe(
        sys_,
        percentile,
        trials=scale.adaptive_trials,
        seed=seed,
        eval_seeds=scale.eval_seeds[:eval_seed_count],
        baseline_latency=base,
    )
    return find_optimal_budget(
        evaluate,
        initial_step=initial_step,
        max_trials=max_trials,
        baseline_latency=base,
    )
