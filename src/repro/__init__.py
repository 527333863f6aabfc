"""repro — reproduction of "Optimal Reissue Policies for Reducing Tail Latency".

Public API highlights:

* :mod:`repro.core` — SingleR/SingleD/MultipleR policies and optimizers.
* :mod:`repro.distributions` — service-time distribution library.
* :mod:`repro.simulation` — discrete-event cluster simulator (§5).
* :mod:`repro.systems` — Redis and Lucene substrates (§6).
* :mod:`repro.serving` — asyncio hedging runtime executing the policies
  against live async backends (``repro loadgen``).
* :mod:`repro.pipeline` — declarative, cached, batch-parallel experiment
  pipeline (spec → plan → execute → cache).
* :mod:`repro.experiments` — declarative specs + render functions
  regenerating every paper figure (``repro figure``).
* :mod:`repro.optimize` — one policy-fitting API: ``solve(FitRequest(...))``.
* :mod:`repro.scenarios` — the declarative Scenario API: one workload +
  system + policy + objective + scale description, executed on the
  ``sim`` or ``live`` engine through the ``Session`` facade and the
  unified ``repro`` CLI (``repro run``).
"""

from .core import (
    AdaptiveSingleROptimizer,
    DoubleR,
    ImmediateReissue,
    MultipleR,
    NoReissue,
    ReissuePolicy,
    RunResult,
    SingleD,
    SingleR,
    SingleRFit,
    compute_optimal_singler_correlated,
    find_optimal_budget,
    min_budget_for_sla,
    OnlinePolicyController,
)
from .distributions import (
    Distribution,
    Empirical,
    Exponential,
    LogNormal,
    Pareto,
    Weibull,
    tail_percentile,
)

__version__ = "1.0.0"

__all__ = [
    "ReissuePolicy",
    "NoReissue",
    "ImmediateReissue",
    "SingleD",
    "SingleR",
    "DoubleR",
    "MultipleR",
    "SingleRFit",
    "compute_optimal_singler_correlated",
    "AdaptiveSingleROptimizer",
    "OnlinePolicyController",
    "find_optimal_budget",
    "min_budget_for_sla",
    "RunResult",
    "Distribution",
    "Pareto",
    "LogNormal",
    "Exponential",
    "Weibull",
    "Empirical",
    "tail_percentile",
    "__version__",
]
