"""Smoke test of the benchmark itself (``pytest bench/tests``).

Outside tier-1's ``testpaths`` on purpose: it spawns worker processes
and takes about half a minute. Every workload runs once at a twentieth
of its size, untraced and traced, and must emit exactly the metrics that
``BENCHMARK.json`` names — each once, finite, with its unit.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

from harness import load_spec, percentile  # noqa: E402

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """``{(workload, trace): (stdout result, written result, out dir)}``."""
    out_dir = tmp_path_factory.mktemp("bench-smoke")
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable,
                    str(BENCH_DIR / "run.py"),
                    "--workload", workload,
                    "--seed", str(SEED),
                    "--trace", str(trace),
                    "--smoke",
                    "--out", str(out_dir),
                ],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            stem = f"{workload}-seed{SEED}-trace{trace}-smoke"
            runs[workload, trace] = (
                json.loads(proc.stdout.strip().splitlines()[-1]),
                json.loads((out_dir / f"{stem}.json").read_text()),
                out_dir / f"{stem}.spans.jsonl",
            )
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(smoke_runs, workload, trace):
    result, written, spans_path = smoke_runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0.0, metric["name"]
    assert written["environment"]["cpus"] >= 1
    assert written["skipped"] == {}
    if trace:
        assert written["spans"] == len(spans_path.read_text().splitlines()) > 0


def test_every_layer_metric_is_exercised_by_some_workload(smoke_runs):
    exercised = set()
    for workload in WORKLOADS:
        _, written, _ = smoke_runs[workload, 1]
        exercised |= set(written["metrics"]) - set(written["not_exercised"])
    assert exercised == {m["name"] for m in SPEC["per_layer"]}


def test_no_process_outlives_a_run():
    """Spawning a worker starts multiprocessing's resource tracker, which
    by default exits only after its parent has; ``stop_children`` must
    leave this process without a single child."""
    code = "\n".join(
        [
            "import multiprocessing, sys",
            f"sys.path.insert(0, {str(BENCH_DIR)!r})",
            "import harness",
            "worker = multiprocessing.get_context('spawn').Process(target=print)",
            "worker.start()",
            "worker.join()",
            "assert harness._child_pids(), 'expected the resource tracker'",
            "harness.stop_children()",
            "assert harness._child_pids() == []",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1, 1001), 0.99) == 990.0
    with pytest.raises(ValueError, match="beyond"):
        percentile(range(1, 1000), 0.99)  # 9 beyond
    with pytest.raises(ValueError, match="beyond"):
        percentile(range(19), 0.50)
    assert percentile(range(1, 21), 0.50) == 10.0
