#!/usr/bin/env python
"""Taming a key-value store's P99 with a 2-3% reissue budget (paper §6.2).

Scenario: a Redis-style cluster serves set-intersection queries. Most
queries finish in ~2 ms, but the rare intersection of two huge sets — a
"query of death" — blocks a server for hundreds of milliseconds, and
every request queued behind it blows through its latency target. The
baseline P99 is hundreds of times the mean.

This example drives the full production workflow through the declarative
Scenario API:

1. describe the cluster once as a Scenario and capture its baseline
   anatomy (sim engine: bit-for-bit the reference simulation);
2. tune a SingleR policy with the adaptive optimizer (§4.3) against the
   scenario's system, which accounts for the load reissues themselves
   add;
3. drop the tuned policy into the same Scenario, verify the collapse of
   the P99 and that the measured reissue rate honours the budget;
4. peek inside: which reissues actually remediated the tail?

A pinned variant of this scenario ships with the package — run it from
the CLI with ``repro run redis-tail-taming``.

Run:  python examples/redis_tail_taming.py        (~1 minute)
"""

from repro.core.adaptive import AdaptiveSingleROptimizer
from repro.scenarios import Session, scenario
from repro.simulation.metrics import LatencySummary

PERCENTILE = 0.99
BUDGET = 0.03
SEEDS = (11, 13, 17)


def redis_scenario(name: str, policy) -> "scenario":
    return scenario(
        name,
        system="redis",
        utilization=0.4,
        n_queries=20_000,
        policy=policy,
        percentile=PERCENTILE,
        budget=BUDGET,
        seeds=SEEDS,
    )


def main() -> None:
    session = Session(engine="sim")
    baseline_scenario = redis_scenario("redis-baseline", "none")

    # 1 — baseline anatomy.
    base_report = session.run(baseline_scenario)
    print("baseline:", LatencySummary.from_run(base_report.runs[0]).row())
    system = baseline_scenario.build_system()
    svc = system.service_time_sample(20_000, rng=1)
    print(
        f"service times: mean={svc.mean():.2f}ms, "
        f"{(svc > 150).sum()} queries of death (>150ms), max={svc.max():.0f}ms"
    )
    p99_base = base_report.median_tail
    print(f"baseline P99 (median of {len(SEEDS)} runs): {p99_base:.0f} ms\n")

    # 2 — adaptive SingleR tuning against the live system.
    import numpy as np

    opt = AdaptiveSingleROptimizer(
        percentile=PERCENTILE, budget=BUDGET, learning_rate=0.5
    )
    result = opt.optimize(system, trials=6, rng=np.random.default_rng(1))
    candidates = [
        t for t in result.trials if t.reissue_rate <= 1.5 * BUDGET
    ] or result.trials
    policy = min(candidates, key=lambda t: t.actual_tail).policy
    print("adaptive trials (policy -> measured P99 / reissue rate):")
    for t in result.trials:
        print(
            f"  trial {t.trial}: d={t.policy.delay:7.1f} q={t.policy.prob:.2f}"
            f" -> P99 {t.actual_tail:7.0f} ms, rate {t.reissue_rate:.3f}"
        )
    print(f"selected policy: {policy}\n")

    # 3 — verify: same scenario, tuned policy plugged in.
    hedged_report = session.run(redis_scenario("redis-singler", policy))
    p99_hedged = hedged_report.median_tail
    final = hedged_report.runs[1]
    print(
        f"SingleR P99: {p99_hedged:.0f} ms "
        f"({100 * (1 - p99_hedged / p99_base):.0f}% below baseline) "
        f"at measured reissue rate {final.reissue_rate:.3f}"
    )

    # 4 — remediation anatomy: reissues of queued victims respond fast on
    # another replica; reissues of queries of death are futile (the work is
    # slow everywhere), which is why the optimizer leaves headroom for the
    # victims instead of burning budget late.
    px, py = final.reissue_pair_x, final.reissue_pair_y
    if px.size:
        victims = (px > p99_hedged) & (py < p99_hedged - policy.delay)
        print(
            f"dispatched reissues: {px.size}; remediated the tail: "
            f"{int(victims.sum())} ({100 * victims.mean():.0f}%)"
        )


if __name__ == "__main__":
    main()
