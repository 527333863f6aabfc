"""Experiment drivers: one module per figure of the paper's evaluation.

Every driver exposes ``build_spec(scale, seed) -> ExperimentSpec`` (the
figure as a declarative cell DAG — see :mod:`repro.pipeline`) and
``run(scale=..., seed=..., workers=..., cache_dir=...)
-> ExperimentResult``, which compiles and executes the spec and renders
the corresponding paper figure as an ASCII chart plus CSV rows. Serial,
process-parallel, and cache-replayed runs are bit-for-bit identical.
The registry maps experiment ids (``fig2`` … ``fig9``) to drivers; the
``repro figure`` CLI and the benchmark harness both dispatch
through it.

Scales
------
``quick``
    Minutes-of-CPU budget: fewer queries, seeds, and sweep points. Used
    by the benchmark harness and CI.
``full``
    Paper-fidelity sweeps (40 000-query traces, more seeds and budgets).
"""

from .common import ExperimentResult, Scale, SCALES
from .registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = [
    "ExperimentResult",
    "Scale",
    "SCALES",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
]
