"""The ``SOLVERS`` registry: every way this repo fits a reissue policy.

One :class:`~repro.optimize.request.FitRequest` in, one
:class:`~repro.optimize.request.FitResult` out, dispatched by solver
kind exactly like the scenario layer's ``SYSTEMS``/``POLICIES``:

* ``empirical``   — the Figure-1 data-driven sweep over response-time
  logs, vectorized (:mod:`repro.optimize.vectorized`);
* ``correlated``  — the §4.2 conditional-CDF search over paired logs;
* ``analytic``    — the §2.3 closed-form-distribution optimization;
* ``simulated``   — the §4.3 adaptive fit protocol against a live
  system, with trial replications grouped through the fastsim batch
  layer when a ``budgets`` grid is requested;
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
from .storefit import (
    compute_optimal_singled_chunked,
    compute_optimal_singler_chunked,
    resolve_store_logs,
)
from .vectorized import (
    compute_optimal_singled_vectorized,
    compute_optimal_singler_vectorized,
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
    store_logs = resolve_store_logs(request)
    meta: dict = {}
    if store_logs is not None:
        # Out-of-core path: the sorted store mmap is swept in chunks,
        # bit-for-bit equal to the in-memory sweep on the same samples.
        rx, ry, release = store_logs
        meta["store"] = True
        if request.family == "single-d":
            fit = compute_optimal_singled_chunked(
                rx, ry, request.percentile, request.budget, release=release
            )
        else:
            fit = compute_optimal_singler_chunked(
                rx, ry, request.percentile, request.budget, release=release
            )
    else:
        rx, ry = _baseline_logs(request, "empirical")
        if request.family == "single-d":
            fit = compute_optimal_singled_vectorized(
                rx, ry, request.percentile, request.budget
            )
        else:
            fit = compute_optimal_singler_vectorized(
                rx, ry, request.percentile, request.budget
            )
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

    This is the one implementation behind
    :func:`repro.experiments.common.fit_singler` (which all figure
    drivers use): run the adaptive loop, keep the trial with the best
    *measured* tail among trials honouring 1.5x the budget, then probe
    the SingleD ``(d', q=1)`` corner the chain may not have reached.
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
    if (
        corner_run.reissue_rate <= 1.5 * budget
        and corner_run.tail(percentile) < best.actual_tail
    ):
        return corner
    return best.policy


def fit_singled_protocol(
    system,
    percentile: float,
    budget: float,
    trials: int,
    rng: RngLike = None,
):
    """The adaptive SingleD baseline fit (§5.1 budget honouring)."""
    from ..core.adaptive import adapt_singled

    return adapt_singled(
        system, percentile=percentile, budget=budget, trials=trials, rng=rng
    )


def _best_trial(result, budget: float):
    ok = [t for t in result.trials if t.reissue_rate <= 1.5 * budget]
    if not ok:
        ok = list(result.trials)
    return min(ok, key=lambda t: t.actual_tail)


def _corner_policy(rx_sorted: np.ndarray, budget: float) -> SingleR:
    idx = min(
        int(np.ceil(rx_sorted.size * (1.0 - budget))), rx_sorted.size - 1
    )
    return SingleR(float(rx_sorted[idx]), 1.0)


def fit_singler_grid(
    system,
    percentile: float,
    budgets,
    trials: int,
    learning_rate: float = 0.5,
    seed: RngLike = None,
    use_correlation: bool = True,
) -> list:
    """Batched budget-grid fitting: K adaptive chains in lockstep.

    Each budget's chain is seeded exactly like a standalone
    :func:`fit_singler_protocol` call (a fresh generator from ``seed``),
    so element ``k`` is bit-for-bit the serial fit at ``budgets[k]`` —
    but every round's K trial replications are grouped into one
    :func:`repro.fastsim.run_policy_batch` call, and the final
    best-trial and corner probes batch the same way. The per-trial refit
    inside each chain is the vectorized empirical sweep (or the §4.2
    correlated fitter once enough probe pairs are observed).
    """
    from ..core.adaptive import AdaptiveResult, AdaptiveSingleROptimizer
    from ..fastsim import run_policy_batch

    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "optimize.grid_fit",
            n_budgets=len(list(budgets)),
            trials=trials,
            percentile=percentile,
        )
    if seed is None or isinstance(seed, np.random.Generator):
        raise ValueError(
            "fit_singler_grid needs a stateless seed (int or "
            "SeedSequence): a shared Generator would interleave across "
            "chains and break per-chain equivalence with serial fits"
        )
    budgets = [float(b) for b in budgets]
    chains = []
    for b in budgets:
        opt = AdaptiveSingleROptimizer(
            percentile=percentile,
            budget=b,
            learning_rate=learning_rate,
            use_correlation=use_correlation,
        )
        policy = SingleR(0.0, b)
        chains.append(
            {
                "opt": opt,
                "budget": b,
                "rng": as_rng(seed),
                "policy": policy,
                "result": AdaptiveResult(policy=policy),
                "done": False,
            }
        )

    # -- the §4.3 loop, advanced one trial per round across all chains --
    for trial in range(trials):
        live = [c for c in chains if not c["done"]]
        if not live:
            break
        runs = run_policy_batch(
            system, [(c["policy"], c["rng"]) for c in live]
        )
        for c, run in zip(live, runs):
            c["policy"], c["done"] = c["opt"].advance(
                c["policy"], run, trial, c["result"]
            )
    for c in chains:
        if not c["done"]:
            c["result"].policy = c["policy"]

    # -- best-trial selection + corner probes, two more batched rounds --
    bests = [_best_trial(c["result"], c["budget"]) for c in chains]
    best_runs = run_policy_batch(
        system, [(b.policy, c["rng"]) for b, c in zip(bests, chains)]
    )
    corners = [
        _corner_policy(np.sort(run.primary_response_times), c["budget"])
        for run, c in zip(best_runs, chains)
    ]
    corner_runs = run_policy_batch(
        system, [(p, c["rng"]) for p, c in zip(corners, chains)]
    )
    fitted = []
    for best, corner, corner_run, c in zip(bests, corners, corner_runs, chains):
        if (
            corner_run.reissue_rate <= 1.5 * c["budget"]
            and corner_run.tail(percentile) < best.actual_tail
        ):
            fitted.append(corner)
        else:
            fitted.append(best.policy)
    return fitted


@SOLVERS.register(
    "simulated",
    summary="§4.3 adaptive fit against a live system (fastsim-batched)",
)
def solve_simulated(request: FitRequest) -> FitResult:
    system = request.resolved_system("simulated")
    use_correlation = bool(request.options.get("use_correlation", True))
    if request.budgets:
        if request.family == "single-d":
            policies = [
                fit_singled_protocol(
                    system,
                    request.percentile,
                    b,
                    request.trials,
                    rng=as_rng(request.seed),
                )
                for b in request.budgets
            ]
        else:
            policies = fit_singler_grid(
                system,
                request.percentile,
                request.budgets,
                request.trials,
                learning_rate=request.learning_rate,
                seed=request.seed,
                use_correlation=use_correlation,
            )
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
    if request.family == "single-d":
        policy = fit_singled_protocol(
            system,
            request.percentile,
            request.budget,
            request.trials,
            rng=as_rng(request.seed),
        )
    else:
        policy = fit_singler_protocol(
            system,
            request.percentile,
            request.budget,
            request.trials,
            learning_rate=request.learning_rate,
            rng=as_rng(request.seed),
            use_correlation=use_correlation,
        )
    return FitResult(
        solver="simulated",
        family=request.family,
        policy=policy,
        request=request,
        meta={"trials": request.trials},
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
    "fit_singler_grid",
    "fit_singled_policy",
    "correlated_probe_logs",
]
