"""Golden-equivalence and determinism matrix for the experiment pipeline.

The pipeline refactor's contract, enforced here across fig2–fig9 at
``quick`` scale:

* **Golden**: every figure's ``rows`` are bit-for-bit identical to the
  pre-refactor serial drivers (digests committed in
  ``tests/goldens/experiment_rows_quick.json``, captured at the PR 2
  state).
* **Determinism**: a process-parallel run and a cache-replayed run both
  reproduce the serial rows exactly.
* **Dedupe**: the planner/builder merge the replications the figures
  share (pinned counts — they only change when a figure's protocol
  does, which should be a conscious decision).
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.experiments import run_experiment
from repro.pipeline.golden import rows_digest

GOLDENS = json.loads(
    (Path(__file__).parent / "goldens" / "experiment_rows_quick.json").read_text()
)
FIGURES = sorted(GOLDENS["figures"])

#: (planner-merged cells, builder-merged eval requests) at quick/seed 42.
EXPECTED_DEDUPE = {
    "fig2": (0, 0),
    "fig3": (0, 0),
    "fig4": (0, 0),
    "fig5": (12, 4),   # random-balancer ≡ fifo-discipline sweeps + baselines
    "fig6": (0, 12),   # P95/P99 baselines share one replication set
    "fig7": (3, 16),   # 40% baselines span panels; lucene b=0.01 fit in a+b
    "fig8": (0, 0),
    "fig9": (0, 0),
}


@pytest.fixture(scope="module", params=FIGURES)
def figure_runs(request, tmp_path_factory):
    """Serial (cold cache), parallel, and cache-replay runs of one figure."""
    eid = request.param
    cache = tmp_path_factory.mktemp(f"cache_{eid}")
    serial = run_experiment(eid, scale="quick", seed=42, cache_dir=cache)
    parallel = run_experiment(eid, scale="quick", seed=42, workers=2)
    cached = run_experiment(eid, scale="quick", seed=42, cache_dir=cache)
    return eid, serial, parallel, cached


def test_serial_rows_match_pre_refactor_golden(figure_runs):
    eid, serial, _, _ = figure_runs
    golden = GOLDENS["figures"][eid]
    assert len(serial.rows) == golden["n_rows"]
    assert serial.headers == golden["headers"]
    assert rows_digest(serial.rows) == golden["digest"], (
        f"{eid}: rows diverged from the pre-pipeline serial driver "
        f"(numpy {np.__version__}, scipy {scipy.__version__})"
    )


def test_parallel_equals_serial(figure_runs):
    eid, serial, parallel, _ = figure_runs
    assert parallel.rows == serial.rows, f"{eid}: parallel != serial"
    assert rows_digest(parallel.rows) == rows_digest(serial.rows)
    assert parallel.chart == serial.chart
    assert parallel.notes == serial.notes


def test_cached_replay_equals_serial(figure_runs):
    eid, serial, _, cached = figure_runs
    assert cached.rows == serial.rows, f"{eid}: cache replay != serial"
    meta = cached.meta["pipeline"]
    assert meta["cache_hits"] == meta["cells_unique"], (
        f"{eid}: replay should be served entirely from the cache"
    )
    assert meta["jobs"] == 0


def test_dedupe_counts(figure_runs):
    eid, serial, _, _ = figure_runs
    meta = serial.meta["pipeline"]
    expected_merged, expected_eval_merged = EXPECTED_DEDUPE[eid]
    assert meta["cells_merged"] == expected_merged, eid
    assert meta["eval_requests_merged"] == expected_eval_merged, eid
    assert meta["cells_unique"] + meta["cells_merged"] == meta["cells_declared"]
