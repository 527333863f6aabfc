"""``repro``: the unified command line for the whole reproduction.

One front door for every layer the repo grew — offline simulation,
vectorized fastsim, the cached experiment pipeline, and the live serving
runtime — driven by the declarative Scenario API:

::

    repro scenarios list                 # bundled scenarios + registries
    repro scenarios validate             # check every bundled .toml
    repro scenarios validate my.toml     # ... or your own files
    repro run queueing-tail-quick        # run a scenario (reference engine)
    repro run my.toml --engine fastsim --seeds 101,103
    repro run redis-tail-taming --engine pipeline --workers 4 --cache .c
    repro run queueing-tail-quick --engine serving --requests 500
    repro optimize queueing-fit-singler  # solve the objective for a policy
    repro optimize my.toml --solver simulated --trials 8
    repro trace queueing-tail-quick --engine fastsim   # traced run + artifacts
    repro bench                          # perf suite + regression gate
    repro store pack trace.csv trace.store --sort   # out-of-core trace store
    repro store info trace.store
    repro figure list                    # paper figures
    repro figure run fig3 --scale quick
    repro serve --backend drifting --policy auto
    repro loadgen --shards 2 --rps 20000  # sharded fleet under open-loop load
    repro loadgen --procs 2 --rps 20000   # worker processes over sockets
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

from .cli import configure_figure_parser, run_figure_command
from .serving.cli import (
    LOADGEN_DESCRIPTION,
    SERVE_DESCRIPTION,
    configure_loadgen_parser,
    configure_serve_parser,
    run_loadgen_command,
    run_serve_command,
)
from .store.cli import (
    STORE_DESCRIPTION,
    configure_store_parser,
    run_store_command,
)


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must be integers like '101,103', got {text!r}"
        ) from None


# -- repro run ---------------------------------------------------------------


def configure_run_parser(parser: argparse.ArgumentParser) -> None:
    from .scenarios import engine_names

    parser.add_argument(
        "scenario",
        help="a bundled scenario name (see 'repro scenarios list') or a "
        "path to a .toml scenario file",
    )
    parser.add_argument(
        "--engine",
        default="reference",
        choices=engine_names(),
        help="execution engine (default: reference)",
    )
    parser.add_argument(
        "--seeds",
        type=_parse_seeds,
        default=None,
        metavar="S1,S2,...",
        help="override the scenario's evaluation seeds",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool width (pipeline engine)",
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-addressed result cache (pipeline engine)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="requests per seed (serving engine; default: scale.n_queries)",
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=None,
        help="wall seconds per model ms (serving engine, default 1e-5)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the report summary as JSON instead of the table",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="run under repro.obs tracing and print the span summary "
        "and metric registry after the report",
    )


def _engine_options_from_args(args) -> dict | None:
    """Shared run/trace flag validation → serving engine options.

    Returns None (after printing the error) when a flag does not apply
    to the chosen engine.
    """
    mismatched = []
    if args.engine != "pipeline":
        if args.workers is not None:
            mismatched.append("--workers")
        if args.cache is not None:
            mismatched.append("--cache")
    if args.engine != "serving":
        if args.requests is not None:
            mismatched.append("--requests")
        if args.time_scale is not None:
            mismatched.append("--time-scale")
    if mismatched:
        print(
            f"error: {', '.join(mismatched)} does not apply to the "
            f"{args.engine!r} engine",
            file=sys.stderr,
        )
        return None
    engine_options = {}
    if args.engine == "serving":
        engine_options["time_scale"] = (
            1e-5 if args.time_scale is None else args.time_scale
        )
        if args.requests is not None:
            engine_options["requests"] = args.requests
    return engine_options


def run_run_command(args) -> int:
    import contextlib

    from .scenarios import Session

    # Refuse flags the chosen engine would silently ignore.
    engine_options = _engine_options_from_args(args)
    if engine_options is None:
        return 2
    session = Session(
        args.engine,
        workers=args.workers,
        cache_dir=args.cache,
        engine_options=engine_options,
    )
    t0 = time.perf_counter()
    try:
        # Session.run coerces and validates; its ValueError already lists
        # every problem the scenario has.
        with contextlib.ExitStack() as stack:
            tracer = registry = None
            if args.trace:
                from .obs import metrics_scope, tracing

                tracer = stack.enter_context(tracing())
                registry = stack.enter_context(metrics_scope())
            report = session.run(args.scenario, seeds=args.seeds)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    if args.json:
        summary = report.summary()
        if tracer is not None:
            summary["trace"] = {
                "spans": len(tracer.spans),
                "metrics": registry.as_dict(),
            }
        print(json.dumps(summary, indent=2, default=float))
    else:
        print(report.render())
        if tracer is not None:
            from .obs import summary_table

            print()
            print(summary_table(tracer.spans))
            if len(registry):
                print()
                print(registry.render())
        print(f"[{report.scenario.name} on {args.engine} in {elapsed:.1f}s]")
    return 0


# -- repro optimize ----------------------------------------------------------


def configure_optimize_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "scenario",
        help="a bundled scenario name or a path to a .toml scenario file; "
        "the fit targets its [objective] on its [system]",
    )
    parser.add_argument(
        "--solver",
        default=None,
        help="repro.optimize solver kind (default: the scenario's "
        "[objective] solve field, else 'empirical'; see docs/optimize.md)",
    )
    parser.add_argument(
        "--family",
        default="single-r",
        choices=("single-r", "single-d"),
        help="policy family to fit (default: single-r)",
    )
    parser.add_argument(
        "--percentile",
        type=float,
        default=None,
        help="override the scenario's objective percentile",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="override the scenario's reissue budget",
    )
    parser.add_argument(
        "--sla",
        type=float,
        default=None,
        metavar="MS",
        help="latency target for the sla-budget solver "
        "(default: the scenario's objective sla_ms)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=6,
        help="adaptive trials for the simulated / budget solvers "
        "(default: 6)",
    )
    parser.add_argument(
        "--seeds",
        type=_parse_seeds,
        default=None,
        metavar="S1,S2,...",
        help="override the scenario's seeds (first seeds the fit stream, "
        "all evaluate budget-search probes)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the fitted-policy report as JSON",
    )


def run_optimize_command(args) -> int:
    from .optimize import FitRequest, solve, solver_names
    from .scenarios import coerce_scenario

    try:
        scenario = coerce_scenario(args.scenario).check()
        solver = args.solver or scenario.objective.solve or "empirical"
        if solver not in solver_names():
            raise ValueError(
                f"unknown solver {solver!r}; registered: {solver_names()}"
            )
        seeds = args.seeds if args.seeds is not None else scenario.scale.seeds
        if not seeds:
            raise ValueError("need at least one seed")
        objective = scenario.objective
        budget = args.budget if args.budget is not None else objective.budget
        primary = (
            scenario.workload.service.build()
            if scenario.workload.service is not None
            else None
        )
        if solver == "analytic" and primary is None:
            raise ValueError(
                "the analytic solver optimizes against closed-form "
                "distributions: give the scenario a [workload.service] "
                "table (or use a sample-log / system solver)"
            )
        evidence: dict = {}
        if objective.trace is not None:
            # Sample-log evidence from a recorded trace: a sorted .store
            # opens lazily (out-of-core chunked fit), CSV loads whole.
            from .optimize.storefit import load_trace_evidence

            evidence = load_trace_evidence(objective.trace)
        request = FitRequest(
            percentile=(
                args.percentile
                if args.percentile is not None
                else objective.percentile
            ),
            budget=0.05 if budget is None else budget,
            family=args.family,
            sla_ms=args.sla if args.sla is not None else objective.sla_ms,
            system=scenario.build_system(),
            primary=primary,
            seed=int(seeds[0]),
            seeds=tuple(int(s) for s in seeds),
            trials=args.trials,
            **evidence,
        )
        t0 = time.perf_counter()
        result = solve(request, solver)
        elapsed = time.perf_counter() - t0
    except (KeyError, TypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        summary = {"scenario": scenario.name, **result.summary()}
        print(json.dumps(summary, indent=2, default=float))
    else:
        print(result.render())
        print(f"[{scenario.name} solved by {solver} in {elapsed:.1f}s]")
    return 0


# -- repro scenarios ---------------------------------------------------------


def configure_scenarios_parser(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="scenarios_command", required=True)
    sub.add_parser(
        "list",
        help="list bundled scenarios and the registered systems/policies/"
        "distributions/engines",
    )
    val = sub.add_parser(
        "validate", help="validate scenario files (default: every bundled one)"
    )
    val.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="scenario .toml files (default: the bundled set)",
    )


def run_scenarios_command(args) -> int:
    from .scenarios import (
        BUNDLED_DIR,
        DISTRIBUTIONS,
        POLICIES,
        SYSTEMS,
        bundled_scenario_names,
        bundled_scenarios,
        engine_names,
    )

    if args.scenarios_command == "list":
        print("bundled scenarios:")
        for sc in bundled_scenarios():
            first = sc.description.split(". ")[0].rstrip(".")
            print(f"  {sc.name:<26} {first}")
        print()
        print("engines:", "  ".join(engine_names()))
        for registry in (SYSTEMS, POLICIES, DISTRIBUTIONS):
            print()
            plural = "policies" if registry.kind == "policy" else f"{registry.kind}s"
            print(f"{plural}:")
            for entry in registry.entries():
                print(f"  {entry.name:<26} {entry.summary}")
        return 0

    if args.scenarios_command == "validate":
        from .scenarios.serialize import load

        paths = list(args.paths) or [
            BUNDLED_DIR / f"{name}.toml" for name in bundled_scenario_names()
        ]
        failures = 0
        for path in paths:
            try:
                scenario = load(path)
                problems = scenario.validate()
            except (ValueError, OSError) as exc:
                problems = [str(exc)]
                scenario = None
            label = scenario.name if scenario is not None else path.name
            if problems:
                failures += 1
                print(f"FAIL {label} ({path})")
                for p in problems:
                    print(f"  - {p}")
            else:
                print(f"ok   {label} ({path})")
        print(f"{len(paths) - failures}/{len(paths)} scenario(s) valid")
        return 1 if failures else 0

    raise AssertionError(args.scenarios_command)  # pragma: no cover


# -- repro trace -------------------------------------------------------------


def configure_trace_parser(parser: argparse.ArgumentParser) -> None:
    # A traced run takes exactly the run flags plus an artifact directory.
    configure_run_parser(parser)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("traces"),
        metavar="DIR",
        help="directory for the trace artifacts (default: ./traces)",
    )
    parser.add_argument(
        "--stem",
        default=None,
        help="artifact filename stem (default: the scenario name)",
    )


def run_trace_command(args) -> int:
    from .obs import (
        metrics_scope,
        span_tree,
        summary_table,
        tracing,
        write_trace_artifacts,
    )
    from .scenarios import Session

    engine_options = _engine_options_from_args(args)
    if engine_options is None:
        return 2
    session = Session(
        args.engine,
        workers=args.workers,
        cache_dir=args.cache,
        engine_options=engine_options,
    )
    t0 = time.perf_counter()
    try:
        with tracing() as tracer, metrics_scope() as registry:
            report = session.run(args.scenario, seeds=args.seeds)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    stem = args.stem or f"{report.scenario.name}-{args.engine}"
    try:
        artifacts = write_trace_artifacts(
            tracer.spans, args.out, stem=stem, metrics=registry.as_dict()
        )
    except OSError as exc:
        print(f"error: cannot write trace artifacts: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(
            json.dumps(
                {
                    "scenario": report.scenario.name,
                    "engine": args.engine,
                    "spans": len(tracer.spans),
                    "metrics": registry.as_dict(),
                    "artifacts": {k: str(p) for k, p in artifacts.items()},
                },
                indent=2,
                default=float,
            )
        )
        return 0
    print(report.render())
    print()
    print(span_tree(tracer.spans))
    print()
    print(summary_table(tracer.spans))
    if len(registry):
        print()
        print(registry.render())
    print()
    for kind, path in sorted(artifacts.items()):
        print(f"wrote {kind:<7} {path}")
    print(
        f"[{report.scenario.name} traced on {args.engine}: "
        f"{len(tracer.spans)} spans in {elapsed:.1f}s; open the chrome "
        "artifact in Perfetto / chrome://tracing]"
    )
    return 0


# -- repro bench -------------------------------------------------------------


def configure_bench_parser(parser: argparse.ArgumentParser) -> None:
    from .bench import BASELINE_WINDOW, REGRESSION_THRESHOLD, SUITE

    parser.add_argument(
        "--history",
        type=Path,
        default=Path("BENCH_history.jsonl"),
        metavar="FILE",
        help="perf-trajectory file to append to and gate against "
        "(default: ./BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(SUITE),
        default=None,
        metavar="BENCH",
        help="run just this bench (repeatable; default: the whole suite)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timing repeats per measurement, best-of (default: 2)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=REGRESSION_THRESHOLD,
        help="regression gate: fail when a speedup drops more than this "
        f"fraction below the baseline (default: {REGRESSION_THRESHOLD})",
    )
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="skip the suite; just gate the newest history record "
        f"against the median of the previous {BASELINE_WINDOW}",
    )
    parser.add_argument(
        "--no-append",
        action="store_true",
        help="run the suite but leave the history file untouched",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the record and gate outcome as JSON",
    )


def run_bench_command(args) -> int:
    from . import bench

    try:
        history = bench.load_history(args.history)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.check_only:
        if not history:
            print(f"error: no history at {args.history}", file=sys.stderr)
            return 2
        record = history[-1]
    else:
        try:
            record = bench.run_suite(repeats=args.repeats, only=args.only)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        history = [*history, record]
        if not args.no_append:
            bench.append_history(args.history, record)

    gate = bench.check_regressions(history, threshold=args.threshold)

    if args.json:
        print(
            json.dumps(
                {
                    "record": record,
                    "history_records": len(history),
                    "checked": gate.checked,
                    "skipped": gate.skipped,
                    "regressions": [vars(r) for r in gate.regressions],
                    "ok": gate.ok,
                },
                indent=2,
                default=float,
            )
        )
    else:
        print(bench.render_record(record))
        print()
        print(bench.render_trend(history))
        print()
        if record.get("skipped_benches"):
            print(
                "skipped on this machine: "
                + ", ".join(record["skipped_benches"])
                + " (install the [fast] extra for the compiled kernel tier)"
            )
        if gate.skipped:
            print(f"no prior data (pass): {', '.join(gate.skipped)}")
        for reg in gate.regressions:
            print(f"REGRESSION {reg.describe()}")
        if gate.ok:
            gated = len(gate.checked)
            print(
                f"gate ok: {gated} metric(s) within "
                f"{args.threshold:.0%} of baseline"
                if gated
                else "gate ok: nothing to compare yet"
            )
    return 0 if gate.ok else 1


# -- the umbrella parser -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Optimal Reissue Policies for Reducing Tail "
            "Latency' (SPAA 2017): declarative scenarios, paper figures, "
            "and a live hedging runtime."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="execute a declarative scenario on any engine"
    )
    configure_run_parser(run_p)

    opt_p = sub.add_parser(
        "optimize",
        help="solve a scenario's objective for a fitted reissue policy",
    )
    configure_optimize_parser(opt_p)

    scen_p = sub.add_parser(
        "scenarios", help="list or validate declarative scenarios"
    )
    configure_scenarios_parser(scen_p)

    trace_p = sub.add_parser(
        "trace",
        help="run a scenario under tracing and write Perfetto/JSONL "
        "trace artifacts",
    )
    configure_trace_parser(trace_p)

    bench_p = sub.add_parser(
        "bench",
        help="run the perf suite, append the trajectory, gate regressions",
    )
    configure_bench_parser(bench_p)

    store_p = sub.add_parser(
        "store",
        help="pack, inspect, sort, or preview out-of-core trace stores",
        description=STORE_DESCRIPTION,
    )
    configure_store_parser(store_p)

    fig_p = sub.add_parser("figure", help="regenerate paper figures")
    configure_figure_parser(fig_p)

    serve_p = sub.add_parser(
        "serve",
        help="serve a live request stream",
        description=SERVE_DESCRIPTION,
    )
    configure_serve_parser(serve_p)

    loadgen_p = sub.add_parser(
        "loadgen",
        help="drive a sharded serving fleet at a target RPS and record "
        "BENCH_serving.json",
        description=LOADGEN_DESCRIPTION,
    )
    configure_loadgen_parser(loadgen_p)

    return parser


def main(argv=None) -> int:
    # Behave well in shell pipelines (`repro scenarios list | head`).
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    args = build_parser().parse_args(argv)

    if args.command == "run":
        return run_run_command(args)
    if args.command == "optimize":
        return run_optimize_command(args)
    if args.command == "scenarios":
        return run_scenarios_command(args)
    if args.command == "trace":
        return run_trace_command(args)
    if args.command == "bench":
        return run_bench_command(args)
    if args.command == "store":
        return run_store_command(args)
    if args.command == "figure":
        return run_figure_command(args)
    if args.command == "serve":
        return run_serve_command(args)
    if args.command == "loadgen":
        return run_loadgen_command(args)
    raise AssertionError(args.command)  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
