"""Shared helpers for the paper-shape suite.

Lives in its own module (not conftest.py) because pytest imports every
conftest.py as the module name ``conftest`` — a bench file doing
``from conftest import ...`` would resolve to whichever conftest landed
in ``sys.modules`` first (tests/ or benchmarks/), breaking any pytest
invocation that mixes the two trees.
"""

from repro.experiments.common import Scale

#: Scale used by figure benches: small enough for a minutes-long suite,
#: large enough that the paper's shape checks are meaningful.
BENCH_SCALE = Scale(
    name="bench",
    n_queries=6_000,
    eval_seeds=(101, 103),
    adaptive_trials=3,
    sweep_points=3,
)


def run_and_report(benchmark, experiment_id, scale=BENCH_SCALE, **kwargs):
    """Run one figure driver under the benchmark timer and print it."""
    from repro.experiments import run_experiment

    result = benchmark.pedantic(
        lambda: run_experiment(experiment_id, scale=scale, seed=42, **kwargs),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())
    return result
