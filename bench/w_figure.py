"""Workload ``figure`` — simulation and the experiment pipeline.

The other half of the offline face: policy -> simulated figure.
``fastsim``, ``simulation``, ``pipeline`` and ``experiments`` do the
work; ``serving`` does none and ``optimize`` runs only inside fit cells.
One round is a cold fig3 run into an empty cache (plan, execute, cache
writes, render), a few kernel batches, and warm replays of that figure
against the cache the cold run just filled (the cache layer used as
reads beside the cold run's writes).
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import median, per_call_us, percentile, time_call

from repro.core.policies import SingleR
from repro.experiments import Scale, run_experiment
from repro.experiments import fig3
from repro.experiments.common import get_scale
from repro.fastsim import (
    ReplicationSpec,
    simulate_batch,
    simulate_replication,
    tier_counts,
)
from repro.pipeline import ResultCache, compile_plan, execute_plan, fingerprint
from repro.pipeline.spec import clear_system_memo
from repro.simulation.engine import draw_replication_inputs
from repro.simulation.workloads import queueing_workload

SETUP_REPEATS = 3
MIN_ROUNDS = 3

BATCH_REPLICATIONS = 8
BATCH_QUERIES = 20_000
BATCHES_PER_ROUND = 2
REPLAYS_PER_ROUND = 100
#: The warm replay's median and tail are taken per block of 50
#: consecutive replays (0.6 s), the fewest that keep ten samples beyond a
#: p80, and the run reports its best block (``Rounds.best``). Every
#: replay does the same work, so the tail here is the box's, not the
#: code's: over blocks of 100 the p90 spread 23% between runs of one
#: commit, this 9%.
REPLAY_TAIL = 0.80
REPLAY_BLOCK = 50

#: Cold runs use the quick scale once a round, not the standard scale
#: once a run: a single 15 s run read 11.7-16.3 s for one seed on this
#: box, and one reading leaves no round to choose from.
COLD_SCALE = "quick"
TINY_SCALE = Scale(
    name="bench-tiny",
    n_queries=2_000,
    eval_seeds=(101,),
    adaptive_trials=2,
    sweep_points=2,
)
POLICY = SingleR(10.0, 0.3)


@dataclass
class State:
    workdir: Path
    config: object
    scale: object


def _figure(run, scale, cache_dir):
    return run_experiment(
        "fig3", scale=scale, seed=run.seed, workers=None, cache_dir=cache_dir
    )


def setup(run, workdir: Path) -> State:
    """Build the cluster and warm the figure path (imports, memoised
    systems) with an untimed tiny-scale run."""
    system = queueing_workload(
        n_queries=run.size(BATCH_QUERIES), utilization=0.3
    )
    _figure(run, TINY_SCALE, workdir / "warmup")
    scale = TINY_SCALE if run.smoke else get_scale(COLD_SCALE)
    return State(workdir, system.batch_config, scale)


def teardown(state: State) -> None:
    shutil.rmtree(state.workdir, ignore_errors=True)


def _batch(state: State, first_seed: int, n: int = BATCH_REPLICATIONS):
    return [
        ReplicationSpec(state.config, POLICY, seed=first_seed + k)
        for k in range(n)
    ]


def measure(run, state: State, budget_s: float, spans) -> dict:
    queries = BATCH_REPLICATIONS * state.config.n_queries
    rounds = run.rounds(budget_s, MIN_ROUNDS)
    tiers_before = tier_counts()
    rows_match = no_misses = True
    replays = run.size(REPLAYS_PER_ROUND)
    for number in rounds:
        cache_dir = state.workdir / f"cache{number}"
        with spans.span("experiments.fig3.cold", op=number):
            dt, cold = time_call(_figure, run, state.scale, cache_dir)
        rounds.add("cold_s", dt)
        for k in range(BATCHES_PER_ROUND):
            first = 1_000 * run.seed + 100 * number + 10 * k
            with spans.span("fastsim.batch", op=number):
                dt, _ = time_call(simulate_batch, _batch(state, first))
            rounds.add("sim_qps", queries / dt)
        with spans.span("experiments.fig3.replays", op=number):
            for _ in range(replays):
                dt, warm = time_call(_figure, run, state.scale, cache_dir)
                rounds.add("replay_ms", dt * 1e3)
                rows_match &= warm.rows == cold.rows
                no_misses &= warm.meta["pipeline"]["cache_misses"] == 0
        shutil.rmtree(cache_dir, ignore_errors=True)
    run.ops(rounds.number * (1 + BATCHES_PER_ROUND) + rounds.count("replay_ms"))

    run.check("warm_rows_equal_cold_rows", rows_match)
    run.check("warm_replay_has_no_cache_misses", no_misses)
    spec = _batch(state, 7 * run.seed + 1, n=1)
    fast = simulate_batch(spec, tier="numpy")[0]
    reference = simulate_batch(spec, tier="reference")[0]
    run.check(
        "numpy_tier_equals_reference_tier",
        np.array_equal(fast.latencies, reference.latencies)
        and fast.reissue_rate == reference.reissue_rate,
    )

    run.notes.update(
        rounds=rounds.table(),
        replays=rounds.count("replay_ms"),
        cold_scale=state.scale.name,
        kernel_tiers={
            tier: count - tiers_before[tier]
            for tier, count in tier_counts().items()
            if count > tiers_before[tier]
        },
        pipeline=cold.meta["pipeline"]["cells_unique"],
    )
    return {
        "work_per_s": rounds.best("sim_qps", higher=True, block=1),
        "alt_ms": rounds.best("cold_s") * 1e3,
        "op_ms_p50": rounds.best("replay_ms", block=REPLAY_BLOCK),
        "op_ms_tail": rounds.best(
            "replay_ms",
            lambda v: percentile(v, REPLAY_TAIL, run.min_beyond),
            block=REPLAY_BLOCK,
        ),
    }


def layers(run, state: State, spans) -> dict:
    """Kernel tiers one by one, then the figure taken apart into plan,
    execute (cold and warm), cache and render."""
    out = {}
    n = state.config.n_queries
    one = _batch(state, 11 * run.seed + 3, n=1)
    for tier in ("numpy", "interpreted", "reference"):
        with spans.span(f"fastsim.kernel.{tier}"):
            dt, _ = time_call(simulate_batch, one, tier=tier)
        out[f"fastsim.kernel.{tier}_queries_per_s"] = n / dt

    dynamic = queueing_workload(
        n_queries=n, utilization=0.3, balancer="min-of-2"
    ).batch_config
    with spans.span("fastsim.kernel.dynamic"):
        dt, _ = time_call(
            simulate_replication, dynamic, POLICY, np.random.default_rng(run.seed)
        )
    out["fastsim.kernel.dynamic_queries_per_s"] = n / dt

    with spans.span("simulation.engine.draw_inputs"):
        out["simulation.engine.draw_inputs_s"], _ = time_call(
            draw_replication_inputs,
            state.config,
            POLICY,
            np.random.default_rng(run.seed),
        )

    batch = _batch(state, 13 * run.seed + 5)
    with spans.span("fastsim.batch"):
        batch_s, _ = time_call(simulate_batch, batch)
    singles_s = sum(
        time_call(simulate_replication, s.config, s.policy, s.seed)[0]
        for s in batch
    )
    out["fastsim.batch.overhead_ms"] = (batch_s - singles_s) * 1e3

    budgets = state.scale.budgets(0.03, 0.30)
    spec = fig3.build_spec(state.scale, run.seed, budgets)
    with spans.span("pipeline.plan.compile"):
        compile_s, plan = time_call(compile_plan, spec)
    out["pipeline.plan.compile_ms"] = compile_s * 1e3
    cells = list(plan.cells.values())
    out["pipeline.fingerprint.cell_us"] = median(
        time_call(fingerprint, ("cell", c.fn, c.params, ()))[0] for c in cells
    ) * 1e6

    cache = ResultCache(state.workdir / "layers-cache")
    try:
        with spans.span("pipeline.executor.execute_cold"):
            cold_s, (results, cold) = time_call(execute_plan, plan, 1, cache)
        with spans.span("experiments.fig3.render"):
            render_s, _ = time_call(spec.render, results)
        with spans.span("pipeline.executor.execute_warm"):
            warm_s, (_, warm) = time_call(execute_plan, plan, 1, cache)
    finally:
        clear_system_memo()
    out["pipeline.executor.execute_cold_s"] = cold_s
    out["pipeline.executor.execute_warm_ms"] = warm_s * 1e3
    out["experiments.fig3.render_ms"] = render_s * 1e3
    out["pipeline.cache.hits"] = float(warm.cache_hits)
    out["pipeline.cache.misses"] = float(cold.cache_misses)
    out["pipeline.executor.batches"] = float(cold.n_batches)

    fps = list(plan.fingerprints.values())
    get_us = median(time_call(cache.get, fp)[0] for fp in fps) * 1e6
    value = cache.get(fps[-1])
    scratch = ResultCache(state.workdir / "layers-scratch")
    out["pipeline.cache.get_us"] = get_us
    out["pipeline.cache.put_us"] = per_call_us(
        lambda: scratch.put(fps[-1], value), calls=20
    )
    return out
