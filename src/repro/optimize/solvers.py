"""The ``SOLVERS`` registry: every way this repo fits a reissue policy.

One :class:`~repro.optimize.request.FitRequest` in, one
:class:`~repro.optimize.request.FitResult` out, dispatched by solver
kind exactly like the scenario layer's ``SYSTEMS``/``POLICIES``:

* ``empirical``   — the Figure-1 data-driven sweep over response-time
  logs, vectorized (:mod:`repro.optimize.vectorized`);
* ``correlated``  — the §4.2 conditional-CDF search over paired logs;
* ``analytic``    — the §2.3 closed-form-distribution optimization;
* ``simulated``   — the §4.3 adaptive fit protocol against a live
  system, one fit per budget when a ``budgets`` grid is requested;
* ``online``      — the sliding-window refit rule the live serving
  stack (:class:`~repro.core.online.OnlinePolicyController` behind
  :class:`~repro.serving.autotune.AutoTuner`) runs on every refit.

plus the §4.4 budget strategies (``optimal-budget``, ``sla-budget``)
registered by :mod:`repro.optimize.budget`.

Every solver is bit-for-bit faithful to the pre-registry fitter it
replaced: the figure drivers and the serving runtime route through this
module and their golden digests are unchanged.
"""

from __future__ import annotations

import numpy as np

from ..core.analytic import optimal_singled as _analytic_singled
from ..core.analytic import optimal_singler as _analytic_singler
from ..core.correlated import compute_optimal_singler_correlated
from ..core.optimizer import fit_singled_policy
from ..core.policies import NoReissue, SingleD, SingleR
from ..distributions.base import RngLike, as_rng
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..registry import Registry
from .request import FitRequest, FitResult
from .storefit import resolve_store_logs
from .vectorized import (
    compute_optimal_singled_chunked,
    compute_optimal_singler_chunked,
    compute_optimal_singler_vectorized,
    sort_logs,
)

#: Solver kind -> registry entry whose factory is ``solve_fn(request)``.
SOLVERS = Registry("solver")


def solver_names() -> list[str]:
    # Budget strategies live in a sibling module; importing it here (not
    # at module top) avoids the circular budget -> solvers import.
    from . import budget  # noqa: F401

    return SOLVERS.names()


def solve(request: FitRequest, solver: str = "empirical") -> FitResult:
    """Dispatch one fit request to a registered solver.

    Under tracing every fit gets a span carrying the solver kind, policy
    family, and objective, and the ``optimize.fits`` counter ticks — so
    a trace of an adaptive run shows exactly which refits ran and how
    long each took.
    """
    from . import budget  # noqa: F401  (registers the budget strategies)

    factory = SOLVERS.get(solver).factory
    tracer = get_tracer()
    if not tracer.enabled:
        return factory(request)
    with tracer.span(
        "optimize.solve",
        solver=solver,
        family=request.family,
        percentile=request.percentile,
        budget=request.budget,
    ):
        get_metrics().counter("optimize.fits").inc()
        return factory(request)


# ---------------------------------------------------------------------------
# Sample-log solvers
# ---------------------------------------------------------------------------


def _baseline_logs(request: FitRequest, solver: str, rng=None):
    """``(rx, ry)`` from the request, sampling a no-reissue baseline run
    from the system when no log was supplied."""
    if request.rx is not None:
        return request.sample_logs(solver)
    system = request.resolved_system(solver)
    rng = as_rng(request.seed) if rng is None else rng
    rx = system.run(NoReissue(), rng).primary_response_times
    return np.asarray(rx, dtype=np.float64), np.asarray(rx, dtype=np.float64)


@SOLVERS.register(
    "empirical",
    summary="Figure-1 sweep over response-time logs (vectorized)",
)
def solve_empirical(request: FitRequest) -> FitResult:
    # A sorted store's mmap is swept as it is (out-of-core, one chunk
    # resident at a time); an in-memory log is sorted first. Either way
    # it is the same sweep, bit-for-bit.
    logs = resolve_store_logs(request)
    meta: dict = {}
    if logs is None:
        logs = (*sort_logs(*_baseline_logs(request, "empirical")), None)
    else:
        meta["store"] = True
    rx, ry, release = logs
    sweep = (
        compute_optimal_singled_chunked
        if request.family == "single-d"
        else compute_optimal_singler_chunked
    )
    fit = sweep(rx, ry, request.percentile, request.budget, release=release)
    policy = SingleD(fit.delay) if request.family == "single-d" else fit.policy
    meta["n_samples"] = int(rx.size)
    return FitResult(
        solver="empirical",
        family=request.family,
        policy=policy,
        request=request,
        fit=fit,
        meta=meta,
    )


def correlated_probe_logs(system, budget: float, rng: RngLike = None):
    """Collect ``(rx, pair_x, pair_y)`` with the fig3 probe protocol:
    one no-reissue baseline for ``RX``, then an immediate low-probability
    reissue probe for the correlated ``(X, Y)`` pairs."""
    rng = as_rng(rng)
    base = system.run(NoReissue(), rng)
    probe = system.run(
        SingleR(0.0, min(1.0, max(budget, 0.05))), rng
    )
    return (
        base.primary_response_times,
        probe.reissue_pair_x,
        probe.reissue_pair_y,
    )


@SOLVERS.register(
    "correlated",
    summary="§4.2 conditional-CDF sweep over paired (X, Y) logs",
)
def solve_correlated(request: FitRequest) -> FitResult:
    presorted = False
    if request.pair_x is not None and request.pair_y is not None:
        store_logs = resolve_store_logs(request)
        if store_logs is not None:
            # Store-backed rx: the sorted mmap goes straight into the
            # sweep (presorted skips the sort copy); only the small
            # pair log lives in RAM.
            rx = store_logs[0]
            presorted = True
        else:
            rx, _ = request.sample_logs("correlated")
        pair_x, pair_y = request.pair_logs("correlated")
    else:
        system = request.resolved_system("correlated")
        rx, pair_x, pair_y = correlated_probe_logs(
            system, request.budget, as_rng(request.seed)
        )
    fit = compute_optimal_singler_correlated(
        rx,
        pair_x,
        pair_y,
        request.percentile,
        request.budget,
        presorted=presorted,
    )
    meta = {
        "n_samples": int(np.asarray(rx).size),
        "n_pairs": int(np.asarray(pair_x).size),
    }
    if presorted:
        meta["store"] = True
    if request.family == "single-d":
        # SingleD couples its delay to the budget (Eq. 2); reusing the
        # SingleR d* (fitted jointly with q < 1) would overspend at
        # q = 1. The SingleRFit diagnostics describe the SingleR
        # optimum, not this policy, so they are not attached.
        policy = fit_singled_policy(rx, request.budget, presorted=presorted)
        meta["note"] = (
            "Eq.-2 budget-matched SingleD delay; no tail prediction "
            "(the correlated sweep predicts the SingleR optimum)"
        )
        return FitResult(
            solver="correlated",
            family=request.family,
            policy=policy,
            request=request,
            meta=meta,
        )
    return FitResult(
        solver="correlated",
        family=request.family,
        policy=fit.policy,
        request=request,
        fit=fit,
        meta=meta,
    )


@SOLVERS.register(
    "analytic",
    summary="§2.3 closed-form optimization against true distributions",
)
def solve_analytic(request: FitRequest) -> FitResult:
    primary, reissue = request.distributions("analytic")
    if request.family == "single-d":
        fit = _analytic_singled(
            primary, reissue, request.percentile, request.budget
        )
    else:
        fit = _analytic_singler(
            primary,
            reissue,
            request.percentile,
            request.budget,
            grid=int(request.options.get("grid", 256)),
        )
    return FitResult(
        solver="analytic",
        family=request.family,
        policy=fit.policy,
        request=request,
        fit=fit,
    )


# ---------------------------------------------------------------------------
# The simulated (adaptive-protocol) solver
# ---------------------------------------------------------------------------


def fit_singler_protocol(
    system,
    percentile: float,
    budget: float,
    trials: int,
    learning_rate: float = 0.5,
    rng: RngLike = None,
    use_correlation: bool = True,
) -> SingleR:
    """The paper's adaptive SingleR fit protocol (§4.3/§6.1).

    This is the one implementation the figure drivers use (through
    :mod:`repro.pipeline.cells` or directly): run the adaptive loop, keep the trial with the best
    *measured* tail among trials honouring 1.5x the budget (among all
    trials when none does, which ticks the
    ``optimize.protocol.overspend_fallbacks`` counter), then probe the
    SingleD ``(d', q=1)`` corner the chain may not have reached.

    The corner's delay is read off the best trial's run, which is under
    a different load; when that overspends past the gate, the delay is
    re-read once from the corner run's own primaries (the update of
    :func:`repro.core.adaptive.adapt_singled` at learning rate 1) and
    probed again.
    """
    from ..core.adaptive import AdaptiveSingleROptimizer

    rng = as_rng(rng)
    opt = AdaptiveSingleROptimizer(
        percentile=percentile,
        budget=budget,
        learning_rate=learning_rate,
        use_correlation=use_correlation,
    )
    result = opt.optimize(system, trials=trials, rng=rng)
    best = _best_trial(result, budget)
    rx = np.sort(system.run(best.policy, rng).primary_response_times)
    corner = _corner_policy(rx, budget)
    corner_run = system.run(corner, rng)
    if corner_run.reissue_rate > 1.5 * budget:
        rx = np.sort(corner_run.primary_response_times)
        corner = _corner_policy(rx, budget)
        corner_run = system.run(corner, rng)
    if (
        corner_run.reissue_rate <= 1.5 * budget
        and corner_run.tail(percentile) < best.actual_tail
    ):
        return corner
    return best.policy


def fit_singled_protocol(
    system,
    budget: float,
    trials: int,
    rng: RngLike = None,
):
    """The adaptive SingleD baseline fit (§5.1 budget honouring).

    SingleD has no tail objective to fit: its delay only spends the budget.
    """
    from ..core.adaptive import adapt_singled

    return adapt_singled(system, budget=budget, trials=trials, rng=rng)


def _best_trial(result, budget: float):
    ok = [t for t in result.trials if t.reissue_rate <= 1.5 * budget]
    if not ok:
        # No trial honours the gate: the best tail among all of them is
        # kept, and the overspend is counted rather than silent.
        get_metrics().counter("optimize.protocol.overspend_fallbacks").inc()
        ok = list(result.trials)
    return min(ok, key=lambda t: t.actual_tail)


def _corner_policy(rx_sorted: np.ndarray, budget: float) -> SingleR:
    idx = min(
        int(np.ceil(rx_sorted.size * (1.0 - budget))), rx_sorted.size - 1
    )
    return SingleR(float(rx_sorted[idx]), 1.0)


@SOLVERS.register(
    "simulated",
    summary="§4.3 adaptive fit against a live system",
)
def solve_simulated(request: FitRequest) -> FitResult:
    system = request.resolved_system("simulated")
    use_correlation = bool(request.options.get("use_correlation", True))

    def fit(budget: float):
        if request.family == "single-d":
            return fit_singled_protocol(
                system, budget, request.trials, rng=as_rng(request.seed)
            )
        return fit_singler_protocol(
            system,
            request.percentile,
            budget,
            request.trials,
            learning_rate=request.learning_rate,
            rng=as_rng(request.seed),
            use_correlation=use_correlation,
        )

    if not request.budgets:
        return FitResult(
            solver="simulated",
            family=request.family,
            policy=fit(request.budget),
            request=request,
            meta={"trials": request.trials},
        )
    if request.family == "single-r" and (
        request.seed is None or isinstance(request.seed, np.random.Generator)
    ):
        raise ValueError(
            "a simulated single-r budget grid needs a stateless seed (int "
            "or SeedSequence): with a shared Generator each budget's fit "
            "would depend on the fits before it, and None is not "
            "reproducible"
        )
    # One independent §4.3 fit per grid budget, each seeded afresh.
    policies = [fit(b) for b in request.budgets]
    # Representative policy: the grid point nearest the request's
    # declared budget (the full grid rides in ``policies``).
    rep = policies[
        int(np.argmin([abs(b - request.budget) for b in request.budgets]))
    ]
    return FitResult(
        solver="simulated",
        family=request.family,
        policy=rep,
        request=request,
        policies=tuple(policies),
        meta={"n_budgets": len(policies)},
    )


# ---------------------------------------------------------------------------
# The online (sliding-window refit) solver
# ---------------------------------------------------------------------------


@SOLVERS.register(
    "online",
    summary="sliding-window refit rule used by the live autotuner",
)
def solve_online(request: FitRequest) -> FitResult:
    """The refit rule :class:`~repro.core.online.OnlinePolicyController`
    applies to its window on every refit (batch or drift).

    With enough observed reissue pairs the §4.2 correlated search runs;
    otherwise the vectorized empirical sweep, with ``ry`` falling back
    to ``rx`` when the pair log alone is too thin to estimate the
    reissue distribution. Without an ``rx`` window (e.g. ``repro
    optimize --solver online`` on a scenario), a no-reissue baseline
    run of the system stands in for the window.
    """
    if request.family != "single-r":
        raise ValueError(
            "solver 'online' fits the controller's SingleR family only; "
            f"got family={request.family!r} (use the empirical solver "
            "for a single-d fit)"
        )
    rx, _ = _baseline_logs(request, "online")
    px = (
        np.asarray(request.pair_x, dtype=np.float64)
        if request.pair_x is not None
        else np.empty(0)
    )
    py = (
        np.asarray(request.pair_y, dtype=np.float64)
        if request.pair_y is not None
        else np.empty(0)
    )
    use_correlation = bool(request.options.get("use_correlation", True))
    min_pairs = int(request.options.get("min_pairs", 50))
    if use_correlation and px.size >= min_pairs:
        fit = compute_optimal_singler_correlated(
            rx, px, py, request.percentile, request.budget
        )
        mode = "correlated"
    else:
        ry = py if py.size >= min_pairs else rx
        fit = compute_optimal_singler_vectorized(
            rx, ry, request.percentile, request.budget
        )
        mode = "empirical"
    return FitResult(
        solver="online",
        family="single-r",
        policy=fit.policy,
        request=request,
        fit=fit,
        meta={"mode": mode, "n_samples": int(rx.size), "n_pairs": int(px.size)},
    )


__all__ = [
    "SOLVERS",
    "solve",
    "solver_names",
    "solve_empirical",
    "solve_correlated",
    "solve_analytic",
    "solve_simulated",
    "solve_online",
    "fit_singler_protocol",
    "fit_singled_protocol",
    "fit_singled_policy",
    "correlated_probe_logs",
]
