"""repro.pipeline — declarative, cached, batch-parallel experiment pipeline.

Every paper figure follows the same protocol: fit policies adaptively,
evaluate them with seed-paired fresh runs, report medians (§6.3). This
package factors that protocol out of the figure drivers into three
explicit stages:

``spec``
    A figure is an :class:`ExperimentSpec` — a declarative collection of
    *cells* (fit tasks, per-seed evaluation replications, reductions)
    plus a render function that turns cell results into the figure's
    ``ExperimentResult``. :class:`SpecBuilder` is the authoring API.
``plan``
    :func:`compile_plan` fingerprints every cell (a Merkle DAG over
    functions, parameters, and dependencies), merges cells with identical
    fingerprints — the same (system, policy, seed) replication declared
    by two panels runs once — and topologically orders the rest into
    executable waves.
``execute``
    :func:`execute_plan` runs ready cells wave by wave: evaluation cells
    sharing a (system, policy) pair are grouped into one seed-loop job,
    jobs run inline or in chunks on a process pool
    (:func:`~repro.pipeline.executor.run_jobs`), and every cell value is
    memoized in a content-addressed on-disk cache so re-runs and scale
    upgrades resume instead of recompute. Serial, parallel, and cached
    executions are bit-for-bit identical.

:func:`run_pipeline` strings the three together for the figure drivers.
"""

from .cache import ResultCache
from .executor import ExecutionReport, execute_plan, run_pipeline
from .fingerprint import fingerprint
from .plan import Plan, compile_plan
from .spec import (
    Cell,
    ExperimentSpec,
    Handle,
    Ref,
    Results,
    SpecBuilder,
    SystemRef,
)

__all__ = [
    "Cell",
    "ExecutionReport",
    "ExperimentSpec",
    "Handle",
    "Plan",
    "Ref",
    "ResultCache",
    "Results",
    "SpecBuilder",
    "SystemRef",
    "compile_plan",
    "execute_plan",
    "fingerprint",
    "run_pipeline",
]
