"""Golden-equivalence and determinism matrix for the experiment pipeline.

The pipeline refactor's contract, enforced here across fig2–fig9 at
``quick`` scale:

* **Golden**: every figure's serial ``rows`` (the session's shared run,
  ``figure_runs`` in ``conftest.py``) are bit-for-bit the committed ones
  (digests in ``tests/goldens/experiment_rows_quick.json``; a protocol
  fix re-records its figures deliberately). Beside each digest the
  file keeps every row's short digest and canonical values, so a
  mismatch names the first row and cell that moved and how far, in ulps —
  the diagnosis a drifting numpy/scipy needs.
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

from golden_rows import canonical_row, row_digest, rows_digest
from repro.experiments import run_experiment

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
def replays(request, figure_runs):
    """One figure's serial run (the session's shared cold-cache run), a
    process-parallel run, and a replay from the serial run's cache."""
    eid = request.param
    serial, cache = figure_runs(eid)
    parallel = run_experiment(eid, scale="quick", seed=42, workers=2)
    cached = run_experiment(eid, scale="quick", seed=42, cache_dir=cache)
    return eid, serial, parallel, cached


def _ulps(golden: str, got: str) -> str:
    """Ulp distance between two canonical floats (``f:<repr>``), or ''."""
    if not (golden.startswith("f:") and got.startswith("f:")):
        return ""
    bits = np.array([float(golden[2:]), float(got[2:])]).view(np.int64)
    a, b = (int(k) if k >= 0 else -(int(k) & 0x7FFF_FFFF_FFFF_FFFF) for k in bits)
    return f" ({abs(a - b)} ulp apart)"


def first_difference(eid: str, rows) -> str:
    """Where ``rows`` first leave the golden: row, column, both values."""
    golden = GOLDENS["figures"][eid]
    headers = golden["headers"]
    for i, (row, digest, want) in enumerate(
        zip(rows, golden["row_digests"], golden["rows"])
    ):
        if row_digest(row) == digest:
            continue
        got = canonical_row(row)
        for col, (w, g) in enumerate(zip(want, got)):
            if w != g:
                return (
                    f"row {i}, column {col} ({headers[col]}): "
                    f"golden {w}, got {g}{_ulps(w, g)}"
                )
        return f"row {i}: golden has {len(want)} values, got {len(got)}"
    return f"golden has {len(golden['rows'])} rows, got {len(rows)}"


@pytest.mark.parametrize("eid", FIGURES)
def test_serial_rows_match_pre_refactor_golden(eid, figure_runs):
    serial = figure_runs(eid).result
    golden = GOLDENS["figures"][eid]
    assert serial.headers == golden["headers"]
    if rows_digest(serial.rows) != golden["digest"]:
        pytest.fail(
            f"{eid}: rows diverged from the pre-pipeline serial driver at "
            f"{first_difference(eid, serial.rows)} (numpy {np.__version__}, "
            f"scipy {scipy.__version__}; golden captured on numpy "
            f"{GOLDENS['meta']['numpy']}, scipy {GOLDENS['meta']['scipy']})"
        )
    assert len(serial.rows) == golden["n_rows"]


def _decoded(eid: str) -> list[list]:
    """The golden rows as values (inverse of ``canonical_value`` for the
    tags the goldens use)."""
    decode = {"b": lambda t: t == "True", "i": int, "f": float, "s": str}
    return [
        [decode[tag](text) for tag, text in (v.split(":", 1) for v in row)]
        for row in GOLDENS["figures"][eid]["rows"]
    ]


@pytest.mark.parametrize("eid", FIGURES)
def test_golden_rows_reproduce_their_digests(eid):
    """The stored rows are the ones the figure digest was taken over."""
    golden = GOLDENS["figures"][eid]
    rows = _decoded(eid)
    assert [canonical_row(row) for row in rows] == golden["rows"]
    assert rows_digest(rows) == golden["digest"]
    assert [row_digest(row) for row in rows] == golden["row_digests"]
    assert len(rows) == golden["n_rows"]


def test_mismatch_names_first_differing_cell():
    golden = GOLDENS["figures"]["fig3"]
    rows = _decoded("fig3")
    assert first_difference("fig3", rows[:-1]) == "golden has 24 rows, got 23"
    col = golden["headers"].index("p95")
    rows[5][col] = float(np.nextafter(rows[5][col], np.inf))
    message = first_difference("fig3", rows)
    assert message.startswith("row 5, column 6 (p95): golden f:")
    assert message.endswith("(1 ulp apart)")


def test_parallel_equals_serial(replays):
    eid, serial, parallel, _ = replays
    assert parallel.rows == serial.rows, f"{eid}: parallel != serial"
    assert rows_digest(parallel.rows) == rows_digest(serial.rows)
    assert parallel.chart == serial.chart
    assert parallel.notes == serial.notes


def test_cached_replay_equals_serial(replays):
    eid, serial, _, cached = replays
    assert cached.rows == serial.rows, f"{eid}: cache replay != serial"
    meta = cached.meta["pipeline"]
    assert meta["cache_hits"] == meta["cells_unique"], (
        f"{eid}: replay should be served entirely from the cache"
    )
    assert meta["jobs"] == 0


@pytest.mark.parametrize("eid", FIGURES)
def test_dedupe_counts(eid, figure_runs):
    serial = figure_runs(eid).result
    meta = serial.meta["pipeline"]
    expected_merged, expected_eval_merged = EXPECTED_DEDUPE[eid]
    assert meta["cells_merged"] == expected_merged, eid
    assert meta["eval_requests_merged"] == expected_eval_merged, eid
    assert meta["cells_unique"] + meta["cells_merged"] == meta["cells_declared"]
