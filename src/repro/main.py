"""``repro``: the unified command line for the whole reproduction.

One front door for every layer the repo grew — the simulator behind the
cached experiment pipeline, and the live serving runtime — driven by
the declarative Scenario API:

::

    repro scenarios list                 # bundled scenarios + registries
    repro scenarios validate             # check every bundled .toml
    repro scenarios validate my.toml     # ... or your own files
    repro run queueing-tail-quick        # run a scenario (sim engine)
    repro run my.toml --seeds 101,103
    repro run redis-tail-taming --workers 4 --cache .c
    repro run queueing-tail-quick --engine live --requests 500
    repro optimize queueing-fit-singler  # solve the objective for a policy
    repro optimize my.toml --solver simulated --trials 8
    repro trace queueing-tail-quick      # traced run + artifacts
    repro store pack trace.csv trace.store --sort   # out-of-core trace store
    repro store info trace.store
    repro figure list                    # paper figures
    repro figure run fig3 --scale quick
    repro loadgen --shards 2 --rps 20000  # live fleet under open-loop load
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
    configure_loadgen_parser,
    run_loadgen_command,
)
from .store.cli import (
    STORE_DESCRIPTION,
    configure_store_parser,
    run_store_command,
)


#: The scenario engines (see repro.scenarios.engines).
_ENGINES = ("sim", "live")


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must be integers like '101,103', got {text!r}"
        ) from None


# -- repro run ---------------------------------------------------------------


#: The engine flags of ``run``/``trace``, by the Session option each sets.
_ENGINE_FLAGS = {
    "workers": "--workers",
    "cache_dir": "--cache",
    "requests": "--requests",
    "time_scale": "--time-scale",
}


def configure_run_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "scenario",
        help="a bundled scenario name (see 'repro scenarios list') or a "
        "path to a .toml scenario file",
    )
    parser.add_argument(
        "--engine",
        default="sim",
        choices=_ENGINES,
        help="sim: the simulator, one cached/parallel pipeline cell per "
        "seed (default); live: a live asyncio hedging client",
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
        help="process-pool width (sim engine)",
    )
    parser.add_argument(
        "--cache",
        dest="cache_dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-addressed result cache (sim engine)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="requests per seed (live engine; default: scale.n_queries)",
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=None,
        help="wall seconds per model ms (live engine, default 1e-5)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the report summary as JSON instead of the table",
    )


def _run_scenario(args):
    """The report of ``args.scenario`` on ``args.engine``, or None after
    printing the error.

    Only the engine flags that were given are forwarded; the engine
    refuses an option it does not take or a bad value, and the error
    names the flag.
    """
    from .scenarios import Session

    options = {
        name: getattr(args, name)
        for name in _ENGINE_FLAGS
        if getattr(args, name) is not None
    }
    try:
        # Session.run coerces and validates; its ValueError already lists
        # every problem the scenario has.
        return Session(args.engine, **options).run(
            args.scenario, seeds=args.seeds
        )
    except (KeyError, TypeError, ValueError, OSError) as exc:
        # Engine option errors lead with the option's name.
        option, _, rest = str(exc).partition(" ")
        flag = _ENGINE_FLAGS.get(option) if rest else None
        print(
            f"error: {flag} {rest}" if flag else f"error: {exc}",
            file=sys.stderr,
        )
        return None


def run_run_command(args) -> int:
    t0 = time.perf_counter()
    report = _run_scenario(args)
    if report is None:
        return 2
    elapsed = time.perf_counter() - t0
    if args.json:
        print(json.dumps(report.summary(), indent=2, default=float))
    else:
        print(report.render())
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
    )

    if args.scenarios_command == "list":
        print("bundled scenarios:")
        for sc in bundled_scenarios():
            first = sc.description.split(". ")[0].rstrip(".")
            print(f"  {sc.name:<26} {first}")
        print()
        print("engines:", "  ".join(_ENGINES))
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

    t0 = time.perf_counter()
    with tracing() as tracer, metrics_scope() as registry:
        report = _run_scenario(args)
    if report is None:
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
                    "summary": report.summary(),
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
        "run", help="execute a declarative scenario on the sim or live engine"
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

    store_p = sub.add_parser(
        "store",
        help="pack, inspect, sort, or preview out-of-core trace stores",
        description=STORE_DESCRIPTION,
    )
    configure_store_parser(store_p)

    fig_p = sub.add_parser("figure", help="regenerate paper figures")
    configure_figure_parser(fig_p)

    loadgen_p = sub.add_parser(
        "loadgen",
        help="drive live traffic through a hedging fleet built from a "
        "scenario",
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
    if args.command == "store":
        return run_store_command(args)
    if args.command == "figure":
        return run_figure_command(args)
    if args.command == "loadgen":
        return run_loadgen_command(args)
    raise AssertionError(args.command)  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
