#!/usr/bin/env python
"""Fit a reissue policy offline from a production trace file (§4.1-§4.2).

Most users will not embed the simulator — they will export a latency log
from their service and want a ``(d, q)`` pair back. This example shows
that path, including the correlation-aware variant:

1. capture a trace (here: from the Redis substrate, standing in for a
   production log) and save it with :mod:`repro.io`;
2. reload it — as an SRE would from a file shipped out of the fleet;
3. fit independence-assuming and correlation-aware SingleR policies;
4. show how correlation changes the recommended parameters.

Run:  python examples/offline_trace_fitting.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import SingleR
from repro.io import TraceLog, read_trace, write_trace
from repro.optimize import FitRequest, solve
from repro.systems import RedisClusterSystem

PERCENTILE = 0.99
BUDGET = 0.03


def main() -> None:
    system = RedisClusterSystem(utilization=0.4, n_queries=20_000)

    # 1 — capture: run with a small immediate probe so the trace contains
    # correlated (primary, reissue) pairs, then persist it.
    probe_run = system.run(SingleR(0.0, 0.05), np.random.default_rng(3))
    trace = TraceLog.from_run(probe_run)
    path = Path(tempfile.mkdtemp()) / "redis-p99.trace.csv"
    write_trace(path, trace)
    print(
        f"captured {trace.n_primary} primary samples and "
        f"{trace.n_pairs} correlated pairs -> {path}"
    )

    # 2 — reload (this is all a policy-fitting service needs).
    trace = read_trace(path)

    # 3a — independence-assuming fit (the Figure 1 sweep).
    naive = solve(
        FitRequest(
            percentile=PERCENTILE,
            budget=BUDGET,
            rx=trace.primary,
            ry=trace.reissue_log(),
        ),
        "empirical",
    ).fit
    print(
        f"\nindependence fit : d={naive.delay:8.1f} q={naive.prob:.2f} "
        f"predicted P99={naive.predicted_tail:.0f} "
        f"(baseline {naive.baseline_tail:.0f})"
    )

    # 3b — correlation-aware fit (§4.2): conditions the reissue CDF on the
    # primary having missed the deadline.
    aware = solve(
        FitRequest(
            percentile=PERCENTILE,
            budget=BUDGET,
            rx=trace.primary,
            pair_x=trace.pair_x,
            pair_y=trace.pair_y,
        ),
        "correlated",
    ).fit
    print(
        f"correlation fit  : d={aware.delay:8.1f} q={aware.prob:.2f} "
        f"predicted P99={aware.predicted_tail:.0f}"
    )

    # 4 — deploy both against the system and compare honestly.
    for name, fit in (("independence", naive), ("correlation", aware)):
        runs = [
            system.run(fit.policy, np.random.default_rng(s)) for s in (21, 23)
        ]
        p99 = float(np.median([r.tail(PERCENTILE) for r in runs]))
        rate = float(np.median([r.reissue_rate for r in runs]))
        print(
            f"deployed {name:13s}: measured P99={p99:.0f} ms "
            f"(predicted {fit.predicted_tail:.0f}), reissue rate {rate:.3f}"
        )
    print(
        "\nThe correlation-aware fit is the less optimistic of the two: it "
        "knows a reissue of a slow query tends to be slow too. Both still "
        "under-predict the deployed P99 because reissues add load the "
        "offline fit cannot see — closing that gap is exactly what the "
        "adaptive loop (examples/redis_tail_taming.py) is for."
    )


if __name__ == "__main__":
    main()
