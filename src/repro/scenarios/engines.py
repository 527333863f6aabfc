"""Execution engines: one Scenario, four ways to run it.

Every engine has the same shape — ``(scenario, seeds, **options) ->
list[RunResult]``, or ``(list[RunResult], extra_meta_dict)`` when the
engine has execution metadata to surface (the pipeline engine's cache /
worker report) — and the :class:`~repro.scenarios.session.Session`
facade wraps whichever one is selected into the common
:class:`ScenarioReport`.

* ``reference`` — one ``system.run(policy, seed)`` per seed: the §5
  discrete-event simulation (or closed-form infinite-server executor),
  unbatched. The ground truth.
* ``fastsim`` — the same replications through
  :func:`repro.fastsim.run_replications`, which routes batch-capable
  systems through their vectorized ``run_batch``. Bit-for-bit equal to
  ``reference`` per seed (that is fastsim's contract, and
  ``tests/test_scenarios_engines.py`` re-checks it per registered
  system).
* ``pipeline`` — each replication becomes a cell in an auto-generated
  :class:`~repro.pipeline.spec.ExperimentSpec`, executed by the cached /
  process-parallel pipeline executor. Same results; adds ``--workers``
  scaling and content-addressed resume.
* ``serving`` — bridges the scenario into a live
  :class:`~repro.serving.hedge.HedgedClient` run against an async
  backend approximating the system's workload (no queueing model, real
  concurrency/timers/cancellation). Statistically comparable, not
  bit-for-bit — it measures the policy on an event loop, not in a
  simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.interfaces import RunResult
from ..distributions import Pareto
from ..distributions.base import as_rng
from .model import Scenario
from .registry import SYSTEMS

#: Engine name → callable(scenario, seeds, **options) returning either
#: list[RunResult] or (list[RunResult], extra_meta_dict).
ENGINES: dict[str, Callable] = {}


def register_engine(name: str):
    def deco(fn):
        ENGINES[name] = fn
        return fn

    return deco


def engine_names() -> list[str]:
    return sorted(ENGINES)


# ---------------------------------------------------------------------------
# The report every engine's output is wrapped into.
# ---------------------------------------------------------------------------


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
        if sla is None:
            return None
        return self.median_tail <= sla

    #: Acceptance slack on the declared budget: the measured reissue rate
    #: may exceed it by up to 50% before a run is flagged as over budget —
    #: the same tolerance the §6.1 adaptive fit protocol uses when it
    #: accepts trial policies (``experiments.common.fit_singler``).
    BUDGET_TOLERANCE = 1.5

    @property
    def within_budget(self) -> bool | None:
        """Measured rate ≤ ``BUDGET_TOLERANCE`` × declared budget
        (None: the objective declares no budget)."""
        budget = self.scenario.objective.budget
        if budget is None:
            return None
        return bool(self.median_reissue_rate <= self.BUDGET_TOLERANCE * budget)

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
        if self.meta.get("pipeline"):
            pipe = self.meta["pipeline"]
            out["pipeline"] = {
                "cache_hits": pipe.get("cache_hits", 0),
                "cache_misses": pipe.get("cache_misses", 0),
                "cache_writes": pipe.get("cache_writes", 0),
                "per_wave": pipe.get("per_wave", []),
            }
        if self.meta.get("fastsim"):
            out["fastsim"] = dict(self.meta["fastsim"])
        if self.meta.get("store"):
            # Out-of-core trace-store activity during this run: block
            # reads/writes and cache hits (deltas, counted by Session).
            out["store"] = dict(self.meta["store"])
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
            lines.append(
                f"  SLA {obj.sla_ms:g} ms           {verdict:>10s}"
            )
        fastsim = self.meta.get("fastsim")
        if fastsim and fastsim.get("kernel_tier"):
            tiers = fastsim.get("kernel_tiers", {})
            breakdown = ", ".join(
                f"{name} x{count}" for name, count in sorted(tiers.items())
            )
            lines.append(
                f"  kernel tier          {fastsim['kernel_tier']:>10s}"
                f"  ({breakdown})"
            )
        pipe = self.meta.get("pipeline")
        if pipe:
            # The executor's cache story, previously swallowed: where
            # each wave's cells came from (cache vs fresh vs deduped).
            lines.append(
                f"  pipeline cache       "
                f"hits {pipe.get('cache_hits', 0)}  "
                f"misses {pipe.get('cache_misses', 0)}  "
                f"writes {pipe.get('cache_writes', 0)}"
            )
            for w in pipe.get("per_wave", []):
                lines.append(
                    f"    wave {w['wave']:<3d}"
                    f"cells {w['cells']:<5d}"
                    f"hits {w['cache_hits']:<5d}"
                    f"misses {w['cache_misses']:<5d}"
                    f"deduped {w['deduped_cells']}"
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


def _tag(runs: list[RunResult], scenario: Scenario, engine: str):
    for run in runs:
        run.meta.setdefault("scenario", scenario.name)
        run.meta.setdefault("engine", engine)
    return runs


# ---------------------------------------------------------------------------
# reference / fastsim
# ---------------------------------------------------------------------------


@register_engine("reference")
def run_reference(
    scenario: Scenario, seeds: Sequence[int], **options
) -> list[RunResult]:
    """One unbatched ``system.run`` per seed — the ground truth."""
    _reject_options("reference", options)
    system = scenario.build_system()
    policy = scenario.build_policy()
    return [system.run(policy, as_rng(int(s))) for s in seeds]


@register_engine("fastsim")
def run_fastsim(
    scenario: Scenario, seeds: Sequence[int], **options
) -> tuple[list[RunResult], dict]:
    """Seed-paired replications through the fastsim batch layer.

    Besides the runs, reports which kernel tiers actually executed
    (``meta["fastsim"]``, surfaced in ``ScenarioReport.summary()``), so
    a structural fallback — numba missing, an unspecialized queue
    discipline — is visible instead of just slow.
    """
    _reject_options("fastsim", options)
    from ..fastsim import run_replications, tier_counts

    before = tier_counts()
    runs = run_replications(
        scenario.build_system(),
        scenario.build_policy(),
        [int(s) for s in seeds],
    )
    executed = {
        name: count - before.get(name, 0)
        for name, count in tier_counts().items()
        if count - before.get(name, 0) > 0
    }
    meta = {
        "fastsim": {
            "kernel_tiers": executed,
            # Dominant tier, or None when no replication touched the
            # simulation kernel (e.g. closed-form executors).
            "kernel_tier": (
                max(executed, key=executed.get) if executed else None
            ),
        }
    }
    return runs, meta


def _reject_options(engine: str, options: dict) -> None:
    if options:
        raise TypeError(
            f"engine {engine!r} takes no options, got {sorted(options)}"
        )


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def scenario_replication_cell(system, policy, seed: int) -> RunResult:
    """Pipeline cell: one full (system, policy, seed) replication.

    Module-level (fingerprintable, picklable) and routed through
    :func:`repro.fastsim.run_replications`, so a pipeline-engine
    replication is the same bits as a fastsim-engine one.
    """
    from ..fastsim import run_replications
    from ..pipeline.spec import SystemRef

    built = system.build() if isinstance(system, SystemRef) else system
    return run_replications(built, policy, [int(seed)])[0]


@register_engine("pipeline")
def run_pipeline_engine(
    scenario: Scenario,
    seeds: Sequence[int],
    workers: int | None = None,
    cache_dir=None,
    **options,
) -> tuple[list[RunResult], dict]:
    """Replications as cells of an auto-generated ExperimentSpec.

    ``workers`` spreads seeds over a process pool; ``cache_dir`` makes
    re-runs (and scale upgrades sharing seeds) resume from the
    content-addressed cache. Results are bit-for-bit the fastsim
    engine's either way.
    """
    _reject_options("pipeline", options)
    from ..pipeline import SpecBuilder, run_pipeline

    sb = SpecBuilder(
        f"scenario/{scenario.name}",
        scenario.description or f"scenario {scenario.name}",
    )
    system = scenario.system_ref()
    policy = scenario.build_policy()
    handles = [
        sb.cell(
            f"run/s{int(seed)}",
            scenario_replication_cell,
            kind="fit",
            system=system,
            policy=policy,
            seed=int(seed),
        )
        for seed in seeds
    ]

    holder = run_pipeline(
        sb.build(lambda rs: _RunsHolder([rs[h] for h in handles])),
        workers=workers,
        cache_dir=cache_dir,
    )
    return holder.runs, {"pipeline": holder.meta.get("pipeline", {})}


class _RunsHolder:
    """run_pipeline attaches its ExecutionReport to ``.meta`` when the
    rendered object has a dict there — give it one."""

    def __init__(self, runs):
        self.runs = runs
        self.meta: dict = {}


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------


def serving_backend(scenario: Scenario, time_scale: float, rng):
    """An async backend approximating the scenario's workload.

    Public because the fleet load generator (``repro loadgen``) builds
    one per shard from the same scenario the serving engine uses.
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


@register_engine("serving")
def run_serving(
    scenario: Scenario,
    seeds: Sequence[int],
    requests: int | None = None,
    time_scale: float = 1e-5,
    concurrency: int = 64,
    interarrival_ms: float = 0.0,
    probe_fraction: float = 0.02,
    deadline_ms: float | None = None,
    **options,
) -> list[RunResult]:
    """Bridge the scenario into a live :class:`HedgedClient` run.

    One serving pass per seed (seed-paired like the simulators: the seed
    spawns independent backend and client streams). The backend
    approximates the system's service-time workload; queueing effects
    are not modeled live, so treat results as statistically comparable
    to the simulators rather than bit-for-bit.
    """
    _reject_options("serving", options)
    import asyncio

    from ..serving.hedge import HedgedClient

    policy = scenario.build_policy()
    n_requests = (
        requests if requests is not None else scenario.scale.n_queries or 2_000
    )
    runs: list[RunResult] = []
    for seed in seeds:
        backend_seq, client_seq = np.random.SeedSequence(int(seed)).spawn(2)
        backend = serving_backend(
            scenario, time_scale, np.random.default_rng(backend_seq)
        )
        client = HedgedClient(
            backend,
            policy,
            concurrency=concurrency,
            deadline_ms=deadline_ms,
            probe_fraction=probe_fraction,
            rng=np.random.default_rng(client_seq),
        )
        outcomes = asyncio.run(
            client.serve(
                n_requests,
                interarrival_ms=interarrival_ms,
                poisson=interarrival_ms > 0.0,
            )
        )
        runs.append(_outcomes_to_run_result(outcomes, backend))
    return runs


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
