"""Core reissue-policy library: policy families, optimizers, adaptation."""

from .policies import (
    DoubleR,
    ImmediateReissue,
    MultipleR,
    NoReissue,
    ReissuePolicy,
    SingleD,
    SingleR,
)
from .optimizer import (
    SingleRFit,
    compute_optimal_singler,
    discrete_cdf,
    fit_singled_policy,
    singler_success_rate,
)
from .correlated import compute_optimal_singler_correlated
from .analytic import (
    AnalyticFit,
    optimal_singled,
    optimal_singler,
    singler_tail_for_delay,
)
from .adaptive import (
    AdaptiveResult,
    AdaptiveSingleROptimizer,
    AdaptiveTrial,
    adapt_singled,
)
from .budget_search import (
    BudgetSearchResult,
    BudgetTrial,
    find_optimal_budget,
    min_budget_for_sla,
)
from .interfaces import RunResult, SystemUnderTest
from .online import (
    DriftDetector,
    OnlinePolicyController,
    RefitEvent,
    SlidingWindowLog,
)

__all__ = [
    "ReissuePolicy",
    "NoReissue",
    "ImmediateReissue",
    "SingleD",
    "SingleR",
    "DoubleR",
    "MultipleR",
    "SingleRFit",
    "compute_optimal_singler",
    "fit_singled_policy",
    "singler_success_rate",
    "discrete_cdf",
    "compute_optimal_singler_correlated",
    "AnalyticFit",
    "optimal_singler",
    "optimal_singled",
    "singler_tail_for_delay",
    "AdaptiveSingleROptimizer",
    "AdaptiveResult",
    "AdaptiveTrial",
    "adapt_singled",
    "find_optimal_budget",
    "min_budget_for_sla",
    "BudgetSearchResult",
    "BudgetTrial",
    "RunResult",
    "SystemUnderTest",
    "OnlinePolicyController",
    "DriftDetector",
    "SlidingWindowLog",
    "RefitEvent",
]
