"""Service-time distributions for reissue-policy analysis and simulation."""

from .base import Distribution, as_rng
from .pareto import Pareto
from .lognormal import LogNormal
from .exponential import Exponential
from .weibull import Weibull
from .uniform import Uniform, Deterministic
from .empirical import Empirical, tail_percentile

__all__ = [
    "Distribution",
    "as_rng",
    "Pareto",
    "LogNormal",
    "Exponential",
    "Weibull",
    "Uniform",
    "Deterministic",
    "Empirical",
    "tail_percentile",
]
