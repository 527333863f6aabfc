#!/usr/bin/env python
"""Quickstart: fit an optimal SingleR reissue policy from a latency log.

This walks the paper's core loop end to end on a synthetic workload,
driven by the declarative Scenario API (``repro.scenarios``):

1. describe the workload once as a Scenario and collect a response-time
   log from a baseline (no-reissue) run;
2. fit the optimal SingleR(d, q) policy for a target percentile and
   reissue budget with ``repro.optimize.solve`` (the Figure 1 sweep of
   the paper);
3. drop the fitted policy into the same Scenario and measure the
   achieved tail latency;
4. compare against the "Tail at Scale" SingleD baseline with the same
   budget.

The same Scenario objects run unchanged on either engine — ``sim`` or
``live`` — and from the CLI via ``repro run``.

Run:  python examples/quickstart.py
"""

from repro.core.optimizer import fit_singled_policy
from repro.optimize import FitRequest, solve
from repro.scenarios import Session, scenario

PERCENTILE = 0.99  # minimize the P99
BUDGET = 0.05  # at most 5% extra requests
SEEDS = (7,)


def workload_scenario(name: str, policy) -> "scenario":
    """The one workload description every step below shares: a service
    whose response times follow Pareto(1.1, 2) — the paper's default
    heavy-tailed workload; 'independent' means replicas respond
    independently and there is spare capacity (no queueing)."""
    return scenario(
        name,
        system="independent",
        n_queries=100_000,
        policy=policy,
        percentile=PERCENTILE,
        budget=BUDGET,
        seeds=SEEDS,
    )


def main() -> None:
    session = Session(engine="sim")

    # Step 1 — measure the baseline.
    baseline = session.run(workload_scenario("quickstart-baseline", "none"))
    log = baseline.runs[0].primary_response_times
    p99_baseline = baseline.median_tail
    print(f"baseline P99                     : {p99_baseline:8.1f}")

    # Step 2 — fit the optimal SingleR policy from the log.
    request = FitRequest(percentile=PERCENTILE, budget=BUDGET, rx=log)
    fit = solve(request, "empirical").fit
    policy = fit.policy
    print(
        f"fitted SingleR                   : reissue after d={policy.delay:.1f} "
        f"with probability q={policy.prob:.2f}"
    )
    print(f"predicted P99 under the policy   : {fit.predicted_tail:8.1f}")

    # Step 3 — apply it: same scenario, fitted policy plugged in.
    hedged = session.run(workload_scenario("quickstart-singler", policy))
    print(
        f"achieved P99 (measured)          : {hedged.median_tail:8.1f}"
        f"   (reissue rate {hedged.median_reissue_rate:.3f}, budget {BUDGET})"
    )

    # Step 4 — the SingleD strawman with the same budget reissues at the
    # (1-B) quantile, far too late to help the P99.
    singled = fit_singled_policy(log, BUDGET)
    delayed = session.run(workload_scenario("quickstart-singled", singled))
    print(
        f"SingleD (same budget) P99        : {delayed.median_tail:8.1f}"
        f"   (d={singled.delay:.1f})"
    )

    reduction = p99_baseline / hedged.median_tail
    print(f"\nSingleR cut the P99 by {reduction:.2f}x with {BUDGET:.0%} extra load.")
    assert reduction > 1.0


if __name__ == "__main__":
    main()
