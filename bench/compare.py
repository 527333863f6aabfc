"""Compare sets of benchmark results against the bounds in BENCHMARK.json.

    python3 bench/compare.py A [B]

``A`` and ``B`` are directories of result files written by ``run.py``
(``--out DIR``), or single result files. One row per workload and
end-to-end metric:

* with ``A`` alone — the repeatability check: the distance between the
  quartiles of the runs' values as a share of their median, against the
  metric's bound (``setup_s`` is shown but not held to it);
* with ``A`` and ``B`` — the regression check: by how much ``B``'s median
  is worse than ``A``'s, against the bound.

Exits non-zero when any row exceeds its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` from untraced results."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[str, dict[str, list[float]]] = {}
    for file in files:
        with file.open() as fh:
            result = json.load(fh)
        if result.get("trace") or result.get("smoke"):
            continue
        per_metric = runs.setdefault(result["workload"], {})
        for name, entry in result["metrics"].items():
            per_metric.setdefault(name, []).append(entry["value"])
    return runs


def spread(values: list[float]) -> float | None:
    """Interquartile distance over the median (needs four runs)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, base: float, new: float) -> float:
    """Share of ``base`` by which ``new`` is worse (negative: better)."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with SPEC_PATH.open() as fh:
        spec = json.load(fh)
    base = load_runs(Path(argv[0]))
    new = load_runs(Path(argv[1])) if len(argv) == 2 else None
    header = f"{'workload':<15} {'metric':<12} {'runs':>4} {'median A':>12} "
    header += (
        f"{'spread A':>9} {'bound':>6}"
        if new is None
        else f"{'median B':>12} {'B worse by':>10} {'bound':>6}"
    )
    print(header)
    exceeded = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            values = base.get(workload, {}).get(metric["name"])
            if not values:
                continue
            bound = metric["bound"]
            median_a = statistics.median(values)
            row = (
                f"{workload:<15} {metric['name']:<12} {len(values):>4} "
                f"{median_a:>12.5g} "
            )
            if new is None:
                share = spread(values)
                held = metric["name"] != "setup_s"
                over = held and share is not None and share > bound
                row += (
                    f"{'n/a' if share is None else format(share, '9.1%'):>9} "
                    f"{bound:>6.0%}"
                )
            else:
                other = new.get(workload, {}).get(metric["name"])
                if not other:
                    continue
                median_b = statistics.median(other)
                share = worse_by(metric, median_a, median_b)
                over = share > bound
                row += f"{median_b:>12.5g} {share:>+10.1%} {bound:>6.0%}"
            exceeded += over
            print(row + ("  EXCEEDED" if over else ""))
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
