"""repro.optimize — one vectorized policy-solver layer behind every fitter.

The point of the paper is *computing* optimal reissue policies; this
package is the single place the repo computes them. One
:class:`FitRequest` (an objective plus whichever evidence you have —
sample logs, closed-form distributions, or a live system) dispatches
through the :data:`SOLVERS` registry::

    from repro.optimize import FitRequest, solve

    result = solve(
        FitRequest(percentile=0.99, budget=0.05, rx=latency_log),
        solver="empirical",
    )
    result.policy          # the fitted SingleR
    result.fit.predicted_tail

Solvers: ``empirical`` (vectorized Figure-1 sweep), ``correlated``
(§4.2 conditional-CDF search), ``analytic`` (§2.3 closed-form),
``simulated`` (§4.3 adaptive protocol, one fit per budget of a
grid), ``online`` (the live autotuner's sliding-window refit rule),
and the §4.4 budget strategies ``optimal-budget`` / ``sla-budget``.

Every other fitting path in the repo — the figure drivers, the pipeline
fit cells, the serving autotuner — routes through this layer; the
vectorized sweeps are bit-for-bit equal to the retained scalar
references in :mod:`repro.core.optimizer`
(``tests/test_optimize_vectorized.py``), so the reroute changed speed,
not results. ``repro optimize`` is the CLI front door.
"""

from .request import FAMILIES, FitRequest, FitResult
from .solvers import (
    SOLVERS,
    correlated_probe_logs,
    fit_singled_protocol,
    fit_singler_protocol,
    solve,
    solver_names,
)
from .vectorized import (
    compute_optimal_singled_vectorized,
    compute_optimal_singler_vectorized,
)
from .budget import simulated_budget_probe

__all__ = [
    "FAMILIES",
    "FitRequest",
    "FitResult",
    "SOLVERS",
    "solve",
    "solver_names",
    "fit_singler_protocol",
    "fit_singled_protocol",
    "correlated_probe_logs",
    "simulated_budget_probe",
    "compute_optimal_singler_vectorized",
    "compute_optimal_singled_vectorized",
]
