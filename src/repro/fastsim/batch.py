"""Batch replication API: many independent cluster runs, one call.

A *batch* is a sequence of independent replications — e.g. the
seed-paired median protocol of the figure drivers. Both entry points
are plain loops over the single-replication kernel, sharing no state
between replications, so determinism is per replication, keyed only by
its seed:

* :func:`simulate_batch` runs :class:`ReplicationSpec`\\ s (config,
  policy, seed) through the fast kernel;
* :func:`run_replications` runs one policy over a seed list on any
  :class:`~repro.core.interfaces.SystemUnderTest`; element ``i`` is
  ``system.run(policy, as_rng(seeds[i]))``.

Under tracing both get the same batch-level span and counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core.interfaces import RunResult
from ..core.policies import ReissuePolicy
from ..distributions.base import RngLike, as_rng
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..simulation.engine import ClusterConfig
from .kernel import simulate_replication, tier_counts


@dataclass(frozen=True)
class ReplicationSpec:
    """One independent replication: a cluster, a policy, and a seed.

    ``seed`` accepts anything :func:`repro.distributions.base.as_rng`
    does. Prefer an int or ``SeedSequence``: a ``Generator`` instance is
    stateful, so sharing one across specs (or reusing it after the
    batch) couples the replications to batch order, and ``None`` draws
    OS entropy — both forfeit the composition guarantee below.
    ``key`` is an optional label carried into ``RunResult.meta``.
    """

    config: ClusterConfig
    policy: ReissuePolicy
    seed: RngLike = None
    key: str = ""


def simulate_batch(
    specs: Iterable[ReplicationSpec], tier: str | None = None
) -> list[RunResult]:
    """Run every replication spec; results in spec order.

    With stateless seeds (ints / ``SeedSequence``s) a fresh generator is
    built per spec, so batch composition never changes any individual
    result: ``simulate_batch([a, b])[0] == simulate_batch([a])[0]`` bit
    for bit. Specs carrying a shared ``Generator`` consume it in spec
    order instead, tying their results to the batch's composition.

    ``tier`` pins a kernel tier for the whole batch (see
    :func:`repro.fastsim.kernel.simulate_replication_tiered`); ``None``
    defers to ``REPRO_KERNEL`` / automatic selection.
    """
    specs = list(specs)

    def run() -> list[RunResult]:
        results = []
        for spec in specs:
            result = simulate_replication(
                spec.config, spec.policy, as_rng(spec.seed), tier=tier
            )
            if spec.key:
                result.meta["key"] = spec.key
            results.append(result)
        return results

    return _instrumented(run, len(specs))


def run_replications(
    system, policy: ReissuePolicy, seeds: Sequence[RngLike]
) -> list[RunResult]:
    """Seed-paired replications on any :class:`SystemUnderTest`.

    Element ``i`` is ``system.run(policy, as_rng(seeds[i]))`` — this is
    the single choke point the evaluation protocol
    (:func:`repro.pipeline.cells.evaluate_replications`, reduced by
    ``median_tail_reduce``), the pipeline executor, the sim engine and
    the budget search funnel through.
    """
    seeds = list(seeds)
    return _instrumented(
        lambda: [system.run(policy, as_rng(s)) for s in seeds],
        len(seeds),
        system=type(system).__name__,
    )


def _instrumented(
    run: Callable[[], list[RunResult]], n: int, **attrs
) -> list[RunResult]:
    """Run a batch, under tracing inside one ``fastsim.batch`` span.

    The span is batch-level, never per-event: replications and queries
    processed, throughput, and which kernel tiers actually executed,
    taken from the :func:`tier_counts` difference (``kernel_tier`` is
    the dominant tier, ``kernel_tiers`` the per-tier replication counts,
    ``{}`` for systems that never touch the kernel) — a silent
    structural fallback shows up here instead of just running slow.
    With the default null tracer the hot loop is untouched — a single
    ``enabled`` branch.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return run()
    with tracer.span("fastsim.batch", n_replications=n, **attrs) as span:
        before = tier_counts()
        t0 = time.perf_counter()
        results = run()
        elapsed = time.perf_counter() - t0
        tiers = {
            name: count - before[name]
            for name, count in tier_counts().items()
            if count > before[name]
        }
        queries = sum(r.n_queries for r in results)
        span.attrs["queries"] = queries
        span.attrs["kernel_tiers"] = tiers
        if tiers:
            span.attrs["kernel_tier"] = max(tiers, key=tiers.get)
        metrics = get_metrics()
        metrics.counter("fastsim.replications").inc(len(results))
        metrics.counter("fastsim.queries_processed").inc(queries)
        for name, count in tiers.items():
            metrics.counter(f"fastsim.tier.{name}").inc(count)
        if elapsed > 0.0:
            span.attrs["queries_per_sec"] = round(queries / elapsed, 1)
            metrics.gauge("fastsim.replications_per_sec").set(
                len(results) / elapsed
            )
            metrics.gauge("fastsim.queries_per_sec").set(queries / elapsed)
    return results
