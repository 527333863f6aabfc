"""Execution engines: one Scenario, two ways to run it.

Both take ``(scenario, seeds, **options)`` and return ``(runs, meta)``;
:class:`~repro.scenarios.session.Session` wraps them into one
:class:`ScenarioReport`.

* ``sim`` — one pipeline cell per seed: inline by default, on a process
  pool with ``workers``, resumed from the result cache with
  ``cache_dir``. Each run is bit-for-bit ``system.run(policy,
  as_rng(seed))``, and the report names the kernel tiers that ran.
* ``live`` — a live :class:`~repro.serving.hedge.HedgedClient` run
  against an async backend approximating the system's workload (real
  concurrency/timers/cancellation, no queueing model): statistically
  comparable to ``sim``, not bit-for-bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from ..core.interfaces import RunResult
from ..distributions import Pareto
from .model import Scenario
from .registry import SYSTEMS

#: The live engine's fixed client settings, which no caller varies:
#: 64 requests in flight, closed-loop arrivals (0 ms apart), 2% of
#: requests sent as correlation probes, and no deadline.
LIVE_CONCURRENCY = 64
LIVE_INTERARRIVAL_MS = 0.0
LIVE_PROBE_FRACTION = 0.02
LIVE_DEADLINE_MS = None


@dataclass
class ScenarioReport:
    """RunResult-based report, identical in shape across engines."""

    scenario: Scenario
    engine: str
    seeds: tuple[int, ...]
    runs: list[RunResult]
    meta: dict = field(default_factory=dict)

    @property
    def tails(self) -> list[float]:
        p = self.scenario.objective.percentile
        return [run.tail(p) for run in self.runs]

    @property
    def median_tail(self) -> float:
        """The §6.3 protocol: median tail over seed-paired runs."""
        return float(np.median(self.tails))

    @property
    def median_reissue_rate(self) -> float:
        return float(np.median([run.reissue_rate for run in self.runs]))

    @property
    def sla_met(self) -> bool | None:
        """Whether the median tail meets the objective's SLA (None: no SLA)."""
        sla = self.scenario.objective.sla_ms
        return None if sla is None else self.median_tail <= sla

    #: Acceptance slack on the declared budget: the measured reissue rate
    #: may exceed it by up to 50% before a run is flagged as over budget —
    #: the same tolerance the §6.1 adaptive fit protocol uses when it
    #: accepts trial policies (``optimize.fit_singler_protocol``).
    BUDGET_TOLERANCE = 1.5

    @property
    def within_budget(self) -> bool | None:
        """Measured rate ≤ ``BUDGET_TOLERANCE`` × declared budget
        (None: the objective declares no budget)."""
        budget = self.scenario.objective.budget
        if budget is None:
            return None
        return self.median_reissue_rate <= self.BUDGET_TOLERANCE * budget

    def summary(self) -> dict:
        obj = self.scenario.objective
        out = {
            "scenario": self.scenario.name,
            "engine": self.engine,
            "seeds": list(self.seeds),
            "n_queries": sum(run.n_queries for run in self.runs),
            "percentile": obj.percentile,
            "median_tail_ms": self.median_tail,
            "median_reissue_rate": self.median_reissue_rate,
        }
        if obj.budget is not None:
            out["budget"] = obj.budget
            out["budget_tolerance"] = self.BUDGET_TOLERANCE
            out["within_budget"] = self.within_budget
        if obj.sla_ms is not None:
            out["sla_ms"] = obj.sla_ms
            out["sla_met"] = self.sla_met
        if "pipeline" in self.meta:
            pipe = self.meta["pipeline"]
            keys = ("cache_hits", "cache_misses", "cache_writes", "per_wave")
            out["pipeline"] = {key: pipe[key] for key in keys}
        # The kernel tiers that ran (sim), and out-of-core trace-store
        # activity during the run (deltas counted by Session).
        for section in ("fastsim", "store"):
            if section in self.meta:
                out[section] = dict(self.meta[section])
        return out

    def render(self) -> str:
        obj = self.scenario.objective
        lines = [
            f"== scenario {self.scenario.name} "
            f"[engine={self.engine}, {len(self.runs)} run(s)] ==",
            f"  policy               {self.scenario.build_policy()!r}",
            f"  queries observed     {sum(r.n_queries for r in self.runs):>10d}",
            f"  P{100 * obj.percentile:<5g} (median)      "
            f"{self.median_tail:>10.2f} ms",
            f"  reissue rate         {self.median_reissue_rate:>10.3f}"
            + (f"  (budget {obj.budget:g})" if obj.budget is not None else ""),
        ]
        if obj.sla_ms is not None:
            verdict = "MET" if self.sla_met else "MISSED"
            lines.append(f"  SLA {obj.sla_ms:g} ms           {verdict:>10s}")
        fastsim = self.meta.get("fastsim")
        if fastsim and fastsim["kernel_tier"]:
            breakdown = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(fastsim["kernel_tiers"].items())
            )
            lines.append(
                f"  kernel tier          {fastsim['kernel_tier']:>10s}"
                f"  ({breakdown})"
            )
        pipe = self.meta.get("pipeline")
        if pipe and (pipe["cache_hits"] or pipe["cache_misses"]):
            # Where the cells came from, when a result cache ran.
            lines.append(
                f"  pipeline cache       hits {pipe['cache_hits']}  "
                f"misses {pipe['cache_misses']}  writes {pipe['cache_writes']}"
            )
        store = self.meta.get("store")
        if store:
            lines.append(
                f"  trace store          "
                f"blocks {store.get('blocks_loaded', 0)}  "
                f"hits {store.get('cache_hits', 0)}  "
                f"bytes {store.get('bytes_read', 0)}"
            )
        return "\n".join(lines)


def scenario_replication_cell(system, policy, seed: int) -> RunResult:
    """Pipeline cell: one (system ref, policy, seed) replication.

    Module-level (fingerprintable, picklable) and routed through
    :func:`repro.fastsim.run_replications`. The kernel tiers it ran go
    into ``meta["kernel_tiers"]``, so they survive a pool worker and a
    cache replay.
    """
    from ..fastsim import run_replications, tier_counts

    before = tier_counts()
    (run,) = run_replications(system.build(), policy, [int(seed)])
    run.meta["kernel_tiers"] = {
        name: count - before[name]
        for name, count in tier_counts().items()
        if count > before[name]
    }
    return run


def run_sim(
    scenario: Scenario,
    seeds: Sequence[int],
    *,
    workers: int | None = None,
    cache_dir=None,
) -> tuple[list[RunResult], dict]:
    """Replications as cells of an auto-generated ExperimentSpec.

    ``workers`` spreads seeds over a process pool; ``cache_dir`` makes
    re-runs (and scale upgrades sharing seeds) resume from the
    content-addressed cache; the runs are the same bits either way.
    ``meta["fastsim"]`` sums the cells' kernel tiers, so a structural
    fallback (an unspecialized queue discipline) shows, not just slows.
    """
    from ..pipeline import SpecBuilder, run_pipeline

    sb = SpecBuilder(
        f"scenario/{scenario.name}",
        scenario.description or f"scenario {scenario.name}",
    )
    system = scenario.system_ref()
    policy = scenario.build_policy()
    handles = [
        sb.cell(
            f"run/s{seed}",
            scenario_replication_cell,
            system=system,
            policy=policy,
            seed=seed,
        )
        for seed in seeds
    ]
    # run_pipeline hangs its execution report on the rendered meta dict.
    render = lambda rs: SimpleNamespace(runs=[rs[h] for h in handles], meta={})
    out = run_pipeline(sb.build(render), workers=workers, cache_dir=cache_dir)
    tiers: Counter = Counter()
    for run in out.runs:
        tiers.update(run.meta["kernel_tiers"])
    return out.runs, {
        "pipeline": out.meta["pipeline"],
        "fastsim": {
            "kernel_tiers": dict(tiers),
            # Dominant tier, or None when no replication touched the
            # simulation kernel (e.g. closed-form executors).
            "kernel_tier": max(tiers, key=tiers.get) if tiers else None,
        },
    }


def serving_backend(scenario: Scenario, time_scale: float, rng):
    """An async backend approximating the scenario's workload.

    Public because the fleet load generator (``repro loadgen``) builds
    one per shard from the same scenario the live engine uses.
    """
    kind = SYSTEMS.get(scenario.system.kind).metadata.get(
        "serving_backend", "synthetic"
    )
    from ..serving.backends import (
        RedisBackend,
        SearchBackend,
        SyntheticBackend,
    )

    if kind == "redis":
        return RedisBackend(time_scale=time_scale, rng=rng)
    if kind == "search":
        return SearchBackend(time_scale=time_scale, rng=rng)
    if scenario.workload.service is not None:
        base = scenario.workload.service.build()
    else:
        params = dict(scenario.system.params)
        base = params.get("base") or Pareto()
    return SyntheticBackend(base, time_scale=time_scale, rng=rng)


def run_live(
    scenario: Scenario,
    seeds: Sequence[int],
    *,
    requests: int | None = None,
    time_scale: float = 1e-5,
) -> tuple[list[RunResult], dict]:
    """One live :class:`HedgedClient` pass of ``requests`` requests
    (default: the scenario's ``n_queries``, else 2 000) per seed.

    Seed-paired like ``sim``: each seed spawns independent backend and
    client streams. ``time_scale`` is wall seconds per model ms.
    """
    import asyncio

    from ..serving.hedge import HedgedClient

    n_requests = (
        requests if requests is not None else scenario.scale.n_queries or 2_000
    )
    if n_requests < 1:
        raise ValueError(f"requests must be >= 1, got {n_requests}")
    policy = scenario.build_policy()
    runs: list[RunResult] = []
    for seed in seeds:
        backend_seq, client_seq = np.random.SeedSequence(int(seed)).spawn(2)
        backend = serving_backend(
            scenario, time_scale, np.random.default_rng(backend_seq)
        )
        client = HedgedClient(
            backend,
            policy,
            concurrency=LIVE_CONCURRENCY,
            deadline_ms=LIVE_DEADLINE_MS,
            probe_fraction=LIVE_PROBE_FRACTION,
            rng=np.random.default_rng(client_seq),
        )
        outcomes = asyncio.run(
            client.serve(n_requests, interarrival_ms=LIVE_INTERARRIVAL_MS)
        )
        runs.append(_outcomes_to_run_result(outcomes, backend))
    return runs, {}


def _outcomes_to_run_result(outcomes, backend) -> RunResult:
    """Fold served RequestOutcomes into the simulators' RunResult shape."""
    latencies = np.array([o.latency_ms for o in outcomes], dtype=np.float64)
    # The RX log: requests the primary answered end-to-end (its latency is
    # its own response time), plus both halves of every probe pair.
    primary = [
        o.latency_ms for o in outcomes if o.winner == "primary" and o.pair is None
    ]
    pair_x = [o.pair[0] for o in outcomes if o.pair is not None]
    pair_y = [o.pair[1] for o in outcomes if o.pair is not None]
    policy_served = [o for o in outcomes if o.pair is None]
    n_reissues = sum(o.n_reissues for o in policy_served)
    return RunResult(
        latencies=latencies,
        primary_response_times=np.array(primary + pair_x, dtype=np.float64),
        reissue_pair_x=np.array(pair_x, dtype=np.float64),
        reissue_pair_y=np.array(pair_y, dtype=np.float64),
        reissue_rate=n_reissues / max(len(policy_served), 1),
        utilization=0.0,
        meta={
            "backend": type(backend).__name__,
            "deadline_misses": sum(o.deadline_exceeded for o in outcomes),
            "cancelled_attempts": sum(o.cancelled_attempts for o in outcomes),
        },
    )
