"""Execute a compiled plan: group, dispatch, cache.

The executor walks the plan's waves. In each wave it:

1. resolves every cell's dependencies against already-computed values;
2. serves cells whose fingerprint is in the result cache;
3. groups the remaining evaluation cells by (system, policy, measures)
   into one job each — a seed loop through
   :func:`repro.fastsim.run_replications` — and wraps every other cell
   as its own job;
4. runs the wave's jobs through :func:`run_jobs`, inline or in chunks
   on a process pool, then scatters group results back to their cells
   and writes each value to the cache.

Because every cell derives randomness only from its own seed parameters,
the three execution modes (serial, process-parallel, cache-replay) are
bit-for-bit interchangeable.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..obs.metrics import get_metrics, metrics_scope
from ..obs.trace import absorb, get_tracer, remote_context, snapshot_context
from .cache import ResultCache
from .cells import evaluate_replication, evaluate_replications
from .fingerprint import fingerprint
from .plan import Plan, compile_plan
from .spec import Cell, ExperimentSpec, Results

_PENDING = object()


@dataclass(frozen=True)
class Job:
    """One unit of a wave: ``fn(**kwargs)`` labelled by key.

    ``fn`` must be module-level (pool workers unpickle it by reference)
    and must take any randomness from ``kwargs`` (seeds), never from
    ambient state, so a job's value does not depend on where it runs.
    """

    key: str
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)


def _run_job(job: Job) -> Any:
    with get_tracer().span("pipeline.cell", key=job.key):
        return job.fn(**job.kwargs)


def _run_chunk(chunk: Sequence[Job], obs_ctx: dict | None) -> tuple:
    """Pool-worker side: run a chunk of jobs in order.

    Under tracing the worker buffers its spans under the parent's
    shipped context and its metrics in a fresh registry, and returns
    both with the values for the parent to re-absorb.
    """
    with remote_context(obs_ctx) as tracer, metrics_scope() as registry:
        values = [_run_job(job) for job in chunk]
        spans = tuple(s.as_dict() for s in tracer.drain())
    return values, spans, registry if len(registry) else None


def run_jobs(
    jobs: Sequence[Job], pool: ProcessPoolExecutor | None = None
) -> list:
    """Values of ``jobs``, in job order.

    With no ``pool`` every job runs inline. With one, the jobs go out
    in contiguous chunks of ``ceil(len(jobs) / (4 * workers))`` — a few
    chunks per worker for load balance — and the workers' spans and
    metrics come home with the values, so parallel jobs trace like
    inline ones. A failing job raises its own exception on both paths
    (from a pool, with the worker traceback chained as ``__cause__``).
    """
    if pool is None:
        return [_run_job(job) for job in jobs]
    # ProcessPoolExecutor keeps its width only in this attribute.
    size = max(1, -(-len(jobs) // (4 * pool._max_workers)))
    obs_ctx = snapshot_context()  # None unless tracing is enabled
    futures = [
        pool.submit(_run_chunk, jobs[i : i + size], obs_ctx)
        for i in range(0, len(jobs), size)
    ]
    values: list = []
    for future in futures:
        chunk_values, spans, registry = future.result()
        absorb(spans)
        if registry is not None:
            get_metrics().merge(registry)
        values.extend(chunk_values)
    return values


@dataclass
class ExecutionReport:
    """What the pipeline actually did — attached to the figure's meta.

    ``wave_stats`` breaks the aggregate counters down per wave (cells,
    cache hits/misses, jobs, batches, deduped cells) so callers — the
    ``repro run`` report in particular — can show where the cache
    actually earned its keep instead of swallowing the numbers.
    """

    workers: int = 1
    n_waves: int = 0
    n_jobs: int = 0
    n_batches: int = 0
    n_batched_cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_writes: int = 0
    wall_s: float = 0.0
    plan: dict = field(default_factory=dict)
    wave_stats: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "waves": self.n_waves,
            "jobs": self.n_jobs,
            "batches": self.n_batches,
            "batched_cells": self.n_batched_cells,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_writes": self.cache_writes,
            "wall_s": round(self.wall_s, 3),
            "per_wave": [dict(w) for w in self.wave_stats],
            **self.plan,
        }


def _resolve(cell: Cell, values: dict[str, Any], aliases: dict[str, str]) -> dict:
    kwargs = dict(cell.params)
    for name, ref in cell.deps.items():
        if isinstance(ref, tuple):
            kwargs[name] = tuple(
                r.resolve(values[aliases[r.key]]) for r in ref
            )
        else:
            kwargs[name] = ref.resolve(values[aliases[ref.key]])
    return kwargs


def execute_plan(
    plan: Plan,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> tuple[Results, ExecutionReport]:
    t0 = time.perf_counter()
    report = ExecutionReport(workers=max(1, int(workers)), plan=plan.stats.as_dict())
    values: dict[str, Any] = {}
    # One pool for the whole plan (created lazily on the first parallel
    # wave): workers keep their warm state — imports, memoized systems —
    # across waves instead of paying startup per wave.
    pool_holder: list[ProcessPoolExecutor | None] = [None]
    tracer = get_tracer()
    try:
        with tracer.span(
            "pipeline.execute",
            experiment=plan.spec.experiment_id,
            workers=report.workers,
        ):
            _execute_waves(plan, report, values, cache, pool_holder)
    finally:
        if pool_holder[0] is not None:
            pool_holder[0].shutdown()

    report.wall_s = time.perf_counter() - t0
    return Results(values, plan.aliases), report


def _execute_waves(
    plan: Plan,
    report: ExecutionReport,
    values: dict[str, Any],
    cache: ResultCache | None,
    pool_holder: list,
) -> None:
    tracer = get_tracer()
    for wave in plan.waves:
        report.n_waves += 1
        before = (
            report.cache_hits,
            report.cache_misses,
            report.n_jobs,
            report.n_batches,
            report.n_batched_cells,
        )
        with tracer.span(
            "pipeline.wave", wave=report.n_waves, cells=len(wave)
        ) as wave_span:
            _execute_wave(plan, wave, report, values, cache, pool_holder)
            hits = report.cache_hits - before[0]
            misses = report.cache_misses - before[1]
            jobs = report.n_jobs - before[2]
            batches = report.n_batches - before[3]
            batched = report.n_batched_cells - before[4]
            deduped = max(batched - batches, 0)
            wave_span.attrs.update(
                cache_hits=hits, cache_misses=misses, jobs=jobs, deduped=deduped
            )
        report.wave_stats.append(
            {
                "wave": report.n_waves,
                "cells": len(wave),
                "cache_hits": hits,
                "cache_misses": misses,
                "jobs": jobs,
                "batches": batches,
                "deduped_cells": deduped,
            }
        )
        if tracer.enabled:
            metrics = get_metrics()
            metrics.counter("pipeline.cache.hits").inc(hits)
            metrics.counter("pipeline.cache.misses").inc(misses)
            metrics.counter("pipeline.jobs").inc(jobs)
            metrics.counter("pipeline.deduped_cells").inc(deduped)


def _execute_wave(
    plan: Plan,
    wave,
    report: ExecutionReport,
    values: dict[str, Any],
    cache: ResultCache | None,
    pool_holder: list,
) -> None:
    pending: list[tuple[str, dict]] = []
    for key in wave:
        fp = plan.fingerprints[key]
        kwargs = _resolve(plan.cells[key], values, plan.aliases)
        if cache is not None:
            hit = cache.get(fp, _PENDING)
            if hit is not _PENDING:
                values[key] = hit
                report.cache_hits += 1
                continue
            report.cache_misses += 1
        pending.append((key, kwargs))
    if not pending:
        return

    # Group ready evaluation replications by (system, policy, measures)
    # into one job per group: it sets the job granularity (and the
    # per-wave job/batch stats).
    jobs: list[Job] = []
    scatter: dict[str, list[str]] = {}  # job key -> cell keys (in order)
    groups: dict[str, str] = {}  # group fingerprint -> job key
    group_kwargs: dict[str, dict] = {}
    for key, kwargs in pending:
        cell = plan.cells[key]
        if cell.kind == "eval" and cell.fn is evaluate_replication:
            gfp = fingerprint(
                (
                    kwargs["system"],
                    kwargs["policy"],
                    kwargs["percentiles"],
                    kwargs["measure"],
                )
            )
            job_key = groups.get(gfp)
            if job_key is None:
                job_key = f"batch/{len(groups)}"
                groups[gfp] = job_key
                group_kwargs[job_key] = {
                    "system": kwargs["system"],
                    "policy": kwargs["policy"],
                    "seeds": [],
                    "percentiles": kwargs["percentiles"],
                    "measure": kwargs["measure"],
                }
                scatter[job_key] = []
            group_kwargs[job_key]["seeds"].append(kwargs["seed"])
            scatter[job_key].append(key)
        else:
            jobs.append(Job(key=f"cell/{key}", fn=cell.fn, kwargs=kwargs))
            scatter[f"cell/{key}"] = [key]
    for job_key, kw in group_kwargs.items():
        kw["seeds"] = tuple(kw["seeds"])
        jobs.append(Job(key=job_key, fn=evaluate_replications, kwargs=kw))
        report.n_batches += 1
        report.n_batched_cells += len(scatter[job_key])
    report.n_jobs += len(jobs)

    pool = None
    if report.workers > 1 and len(jobs) > 1:
        if pool_holder[0] is None:
            pool_holder[0] = ProcessPoolExecutor(max_workers=report.workers)
        pool = pool_holder[0]
    for job, value in zip(jobs, run_jobs(jobs, pool)):
        cell_keys = scatter[job.key]
        per_cell = value if job.key.startswith("batch/") else [value]
        for cell_key, cell_value in zip(cell_keys, per_cell):
            values[cell_key] = cell_value
            if cache is not None:
                cache.put(plan.fingerprints[cell_key], cell_value)
                report.cache_writes += 1


def run_pipeline(
    spec: ExperimentSpec,
    workers: int | None = None,
    cache_dir=None,
):
    """Compile, execute, render — the figure drivers' entry point."""
    from .spec import clear_system_memo

    plan = compile_plan(spec)
    cache = ResultCache(cache_dir) if cache_dir else None
    try:
        results, report = execute_plan(plan, workers=workers or 1, cache=cache)
        result = spec.render(results)
    finally:
        clear_system_memo()
    meta = getattr(result, "meta", None)
    if isinstance(meta, dict):
        meta["pipeline"] = report.as_dict()
    return result
