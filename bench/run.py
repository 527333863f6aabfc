"""Benchmark entry point: one workload, one process, one JSON result.

    python3 bench/run.py --workload fit --seed 1 --seconds 28 --trace 0

prints every metric as ``name value unit`` and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs a short untraced pass, the same
pass with spans recorded from here around every call into a layer, and
the layer probes, and reports the per-layer metrics. The full result
(environment, checks, notes, spans) is written under ``bench/out/``.

Importing this module does nothing: the process fleet's workers are
spawned, and a spawned child imports its parent's main module.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = {
    "fit": "w_fit",
    "figure": "w_figure",
    "serve-hedged": "w_serve_hedged",
    "serve-saturate": "w_serve_saturate",
}

#: Per workload, the end-to-end metric whose traced and untraced values
#: give ``trace_overhead_share`` (throughput, except where the open
#: loop pins throughput to the offered rate).
OVERHEAD_METRIC = {
    "fit": "work_per_s",
    "figure": "work_per_s",
    "serve-hedged": "alt_ms",
    "serve-saturate": "work_per_s",
}

#: Shares of ``--seconds`` a traced run gives its untraced and traced
#: passes; the layer probes take what they need after that.
TRACE_PASS_SHARE = 0.25


def _prepare_process(tmp_dir: Path) -> None:
    """Make ``repro`` importable here and in spawned workers, and keep
    every temporary file (sort runs, socket directories) in the checkout."""
    src = str(ROOT / "src")
    for path in (src, str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        src if not inherited else src + os.pathsep + inherited
    )
    tmp_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp_dir)
    tempfile.tempdir = str(tmp_dir)


def _pin_allocator() -> bool:
    """Tell glibc malloc to keep freed memory instead of returning it.

    A 1M-sample sweep allocates dozens of 8 MB temporaries. With the
    default thresholds each one is mapped afresh and first-touched: five
    sweeps took ~530 000 minor faults and 1.8-2.7 s of system time, and
    that cost moved threefold with the host's state from one minute to
    the next, which no median inside one run removes. Pinned, the same
    sweeps take ~15 000 faults and repeat within a few percent. The cost
    of this control: allocator churn is mostly hidden from the timings.
    """
    import ctypes

    m_trim_threshold, m_mmap_threshold = -1, -3
    try:
        libc = ctypes.CDLL("libc.so.6")
        return bool(
            libc.mallopt(m_mmap_threshold, 1 << 30)
            and libc.mallopt(m_trim_threshold, (1 << 31) - 1)
        )
    except (OSError, AttributeError):
        return False  # not glibc: run unpinned, recorded in the result


def _obs_probes(harness) -> dict:
    """Cost of one ``repro.obs`` span, tracing on and off."""
    from repro.obs.trace import get_tracer, tracing

    def spin(tracer):
        def one():
            with tracer.span("bench.probe"):
                pass

        return one

    disabled = harness.per_call_us(spin(get_tracer()), 100_000)
    with tracing() as tracer:
        enabled = harness.per_call_us(spin(tracer), 20_000)
    return {
        "obs.trace.span_us": enabled,
        "obs.trace.disabled_span_us": disabled,
    }


def _overhead_share(workload: str, untraced: dict, traced: dict) -> float:
    name = OVERHEAD_METRIC[workload]
    if name.endswith("_per_s"):  # higher is better: compare times per unit
        return untraced[name] / traced[name] - 1.0
    return traced[name] / untraced[name] - 1.0


def _report(spec_metrics: list, values: dict, kind: str) -> tuple[dict, list]:
    """Shape ``values`` into the contract's ``metrics`` object, in the
    order ``BENCHMARK.json`` lists them. A per-layer metric of a layer
    this workload does not exercise reads 0 and is named in the second
    return value; an end-to-end metric may never be missing."""
    unknown = set(values) - {m["name"] for m in spec_metrics}
    if unknown:
        raise KeyError(f"{kind} metrics not in BENCHMARK.json: {sorted(unknown)}")
    metrics, absent = {}, []
    for metric in spec_metrics:
        name = metric["name"]
        if name not in values:
            if kind == "end_to_end":
                raise KeyError(f"end-to-end metric {name!r} was not measured")
            absent.append(name)
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value}")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="every input at a twentieth of its size, one round",
    )
    parser.add_argument(
        "--out", type=Path, default=BENCH_DIR / "out", help="result directory"
    )
    args = parser.parse_args(argv)

    tmp_dir = BENCH_DIR / "out" / "t" / str(os.getpid())
    _prepare_process(tmp_dir)
    import harness

    # A terminated run unwinds through the same ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return _run(args, tmp_dir, harness)
    finally:
        # On every path out: no process started here outlives this one.
        harness.stop_children()
        shutil.rmtree(tmp_dir, ignore_errors=True)


def _run(args, tmp_dir: Path, harness) -> int:
    out_dir = args.out.resolve()
    allocator_pinned = _pin_allocator()
    spec = harness.load_spec()
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    run = harness.Run(args.seed, smoke=args.smoke, trace=bool(args.trace))
    env = harness.environment()
    steal_start = harness.steal_ticks()
    module = importlib.import_module(WORKLOADS[args.workload])

    state, setup_s = None, []
    spans = harness.Spans() if run.trace else harness.NullSpans()
    try:
        # Set up several times and report the median: one reading of a
        # half-second setup is too noisy to gate.
        for number in range(1 if run.smoke else module.SETUP_REPEATS):
            if state is not None:
                module.teardown(state)
                state = None
            workdir = tmp_dir / f"setup{number}"
            workdir.mkdir()
            dt, state = harness.time_call(module.setup, run, workdir)
            setup_s.append(dt)

        if not run.trace:
            values = module.measure(run, state, seconds, spans)
            values["setup_s"] = harness.median(setup_s)
            kind = "end_to_end"
        else:
            share = TRACE_PASS_SHARE * seconds
            # One round first, so neither pass pays the first-touch costs
            # and their difference is the tracing alone.
            module.measure(run, state, 0.0, harness.NullSpans())
            run.untraced = module.measure(run, state, share, harness.NullSpans())
            traced = module.measure(run, state, share, spans)
            values = module.layers(run, state, spans)
            values.update(_obs_probes(harness))
            values["trace_overhead_share"] = _overhead_share(
                args.workload, run.untraced, traced
            )
            kind = "per_layer"
    finally:
        if state is not None:
            module.teardown(state)
    if not run.trace:
        # After teardown: a worker process counts once it has been waited for.
        values["peak_rss_mb"] = harness.peak_rss_mb()

    metrics, not_exercised = _report(spec[kind], values, kind)
    correct = run.failed == 0 and all(run.checks.values())
    steal_end = harness.steal_ticks()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "trace": int(run.trace),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_share": run.failed / max(run.attempted, 1),
        "metrics": metrics,
        "checks": run.checks,
        "notes": run.notes,
        "setup_s_each": setup_s,
        "not_exercised": not_exercised,
        "skipped": {},
        "environment": {
            **env,
            "allocator_pinned": allocator_pinned,
            "steal_ticks": (
                None if steal_start is None else steal_end - steal_start
            ),
        },
        "recorded_unix": int(time.time()),
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(run.trace)}"
    if run.smoke:
        stem += "-smoke"
    if run.trace:
        result["spans"] = spans.write_jsonl(out_dir / f"{stem}.spans.jsonl")
    with (out_dir / f"{stem}.json").open("w") as fh:
        json.dump(result, fh, indent=2, default=str)
        fh.write("\n")

    for name, entry in metrics.items():
        if name not in not_exercised:
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
