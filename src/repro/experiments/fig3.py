"""Figure 3: SingleR vs SingleD across budgets on the three §5.1 workloads.

Panels (all with reissue budget on the x-axis, 0–30%):

* (a) 95th-percentile latency *reduction ratio* (baseline / achieved);
* (b) remediation rate — the fraction of dispatched reissues that were
  both needed (primary missed the target) and useful (reissue made it);
* (c) the optimal policy's reissue point, reported as the fraction of
  requests still outstanding at the reissue delay, plus its probability.

Workloads: Independent, Correlated (r = 0.5), and Queueing (10 servers,
30% utilization) — all Pareto(1.1, 2) service times.

Pipeline shape: per workload, one baseline replication set, one
reference run (for the outstanding-fraction axis), and per budget one
fit cell producing the (SingleR, SingleD) pair; evaluation and
remediation replications depend on the fitted policies.
"""

from __future__ import annotations

import numpy as np

from ..core.interfaces import remediation_rate
from ..core.optimizer import fit_singled_policy
from ..distributions.base import as_rng
from ..pipeline import SpecBuilder, run_pipeline
from ..pipeline.spec import SystemRef, system_ref
from ..scenarios.registry import build_system, make_policy
from ..viz.ascii_chart import line_chart
from .common import ExperimentResult, Scale, get_scale

PERCENTILE = 0.95
#: The three §5.1 workloads, by scenario-registry kind.
WORKLOADS = ("independent", "correlated", "queueing")


def make_workload(name: str, n_queries: int):
    if name == "queueing":
        return build_system(name, n_queries=n_queries, utilization=0.3)
    return build_system(name, n_queries=n_queries)


def fit_policies_cell(
    name: str, system: SystemRef, budget: float, scale: Scale, seed: int
):
    """(SingleR, SingleD) fitted per the workload's model (§4.1-§4.3),
    each through the matching :mod:`repro.optimize` solver."""
    from ..optimize import (
        FitRequest,
        correlated_probe_logs,
        fit_singled_protocol,
        fit_singler_protocol,
        solve,
    )

    system = system.build()
    rng = as_rng(seed)
    if name == "queueing":
        trials = scale.adaptive_trials
        sr = fit_singler_protocol(system, PERCENTILE, budget, trials, rng=rng)
        sd = fit_singled_protocol(system, budget, trials, rng=rng)
        return sr, sd
    if name == "correlated":
        # Collect correlated (X, Y) pairs with an immediate probe policy,
        # then run the §4.2 conditional-CDF search.
        rx, pair_x, pair_y = correlated_probe_logs(system, budget, rng)
        fit = solve(
            FitRequest(
                percentile=PERCENTILE, budget=budget,
                rx=rx, pair_x=pair_x, pair_y=pair_y,
            ),
            solver="correlated",
        )
    else:
        rx = system.run(make_policy("none"), rng).primary_response_times
        fit = solve(
            FitRequest(percentile=PERCENTILE, budget=budget, rx=rx, ry=rx),
            solver="empirical",
        )
    return fit.policy, fit_singled_policy(rx, budget)


def build_spec(scale: Scale, seed: int, budgets: np.ndarray):
    sb = SpecBuilder(
        "fig3",
        "SingleR vs SingleD across budgets (Independent/Correlated/Queueing)",
    )
    per_workload = {}
    for name in WORKLOADS:
        system = system_ref(make_workload, name=name, n_queries=scale.n_queries)
        baseline = sb.evaluate_seeds(
            system, make_policy("none"), scale.eval_seeds, PERCENTILE
        )
        base_run = sb.evaluate(
            system,
            make_policy("none"),
            seed,
            measure=("sorted_primary",),
            key=f"run/{name}/base",
        )
        per_budget = []
        for budget in budgets:
            fit = sb.cell(
                f"fit/{name}/b{float(budget):.6g}",
                fit_policies_cell,
                name=name,
                system=system,
                budget=float(budget),
                scale=scale,
                seed=seed,
            )
            entries = {}
            for idx, label in ((0, "SingleR"), (1, "SingleD")):
                policy = fit.get(idx)
                entries[label] = {
                    "policy": policy,
                    "evals": sb.evaluate_seeds(
                        system, policy, scale.eval_seeds, PERCENTILE
                    ),
                    "remediation": sb.evaluate(
                        system,
                        policy,
                        seed + 1,
                        measure=("pairs",),
                        key=f"run/{name}/b{float(budget):.6g}/{label}/remediation",
                    ),
                }
            per_budget.append((float(budget), fit, entries))
        per_workload[name] = (system, baseline, base_run, per_budget)

    headers = [
        "workload",
        "budget",
        "policy",
        "delay",
        "prob",
        "outstanding_at_d",
        "p95",
        "reduction_ratio",
        "remediation",
        "reissue_rate",
    ]

    def render(rs) -> ExperimentResult:
        rows: list[list] = []
        series_ratio: dict[str, tuple[list, list]] = {}
        notes: list[str] = []
        for name in WORKLOADS:
            _, baseline, base_run, per_budget = per_workload[name]
            base_tail, _ = rs.median_tail(baseline, PERCENTILE)
            rx_sorted = rs[base_run]["sorted_primary"]
            sr_xs, sr_ys, sd_xs, sd_ys = [], [], [], []
            for budget, fit, entries in per_budget:
                pols = rs[fit]
                for idx, label in ((0, "SingleR"), (1, "SingleD")):
                    pol = pols[idx]
                    entry = entries[label]
                    tail, rate = rs.median_tail(entry["evals"], PERCENTILE)
                    d = pol.stages[0][0]
                    q = pol.stages[0][1]
                    outstanding = float(
                        1.0
                        - np.searchsorted(rx_sorted, d, side="left")
                        / rx_sorted.size
                    )
                    pair_x, pair_y = rs[entry["remediation"]]["pairs"]
                    remediation = remediation_rate(pair_x, pair_y, base_tail, d)
                    ratio = base_tail / tail if tail > 0 else float("inf")
                    rows.append(
                        [
                            name,
                            budget,
                            label,
                            d,
                            q,
                            outstanding,
                            tail,
                            ratio,
                            remediation,
                            rate,
                        ]
                    )
                    if label == "SingleR":
                        sr_xs.append(budget)
                        sr_ys.append(ratio)
                    else:
                        sd_xs.append(budget)
                        sd_ys.append(ratio)
            series_ratio[f"{name}/SingleR"] = (sr_xs, sr_ys)
            series_ratio[f"{name}/SingleD"] = (sd_xs, sd_ys)
            gaps = [r - d for r, d in zip(sr_ys, sd_ys)]
            notes.append(
                f"{name}: baseline P95={base_tail:.1f}; SingleR ratio "
                f"{min(sr_ys):.2f}-{max(sr_ys):.2f}; SingleR-SingleD gap at "
                f"smallest budget {gaps[0]:+.2f}"
            )

        chart = line_chart(
            series_ratio,
            title="Fig 3a: P95 reduction ratio vs reissue budget",
            x_label="budget",
            y_label="reduction ratio",
        )
        return ExperimentResult(
            experiment_id="fig3",
            title=sb.title,
            headers=headers,
            rows=rows,
            chart=chart,
            notes=notes,
            meta={"percentile": PERCENTILE, "budgets": list(map(float, budgets))},
        )

    return sb.build(render)


def run(
    scale: str | Scale = "standard",
    seed: int = 42,
    budgets=None,
    workers: int | None = None,
    cache_dir=None,
) -> ExperimentResult:
    """Regenerate Figure 3 (all three panels, all three workloads)."""
    scale = get_scale(scale)
    budgets = (
        np.asarray(budgets, dtype=np.float64)
        if budgets is not None
        else scale.budgets(0.03, 0.30)
    )
    spec = build_spec(scale, seed, budgets)
    return run_pipeline(spec, workers=workers, cache_dir=cache_dir)
