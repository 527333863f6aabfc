"""The hedging-runtime commands of the ``repro`` CLI: ``repro serve``
(one hedged client against a live stream) and ``repro loadgen`` (a load
generator against a serving fleet). ``repro.main`` mounts both.

Examples
--------
::

    repro serve --backend drifting --policy auto --requests 4000
    repro serve --backend search --policy singler --delay 60 --prob 0.4
    repro serve --backend synthetic --policy none --requests 2000 \
        --time-scale 1e-4 --report-every 500
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

import numpy as np

from ..core.policies import ImmediateReissue, NoReissue, SingleD, SingleR
from ..distributions import LogNormal
from .autotune import AutoTuner
from .backends import (
    DriftingBackend,
    RedisBackend,
    SearchBackend,
    SyntheticBackend,
)
from .hedge import HedgedClient

BACKENDS = ("synthetic", "drifting", "redis", "search")
POLICIES = ("auto", "none", "singler", "singled", "immediate")


def build_backend(args, rng) -> object:
    dist = LogNormal(mu=args.lognormal_mu, sigma=args.lognormal_sigma)
    if args.backend == "synthetic":
        return SyntheticBackend(dist, time_scale=args.time_scale, rng=rng)
    if args.backend == "drifting":
        # Latency regime doubles for the middle half of the stream, then
        # recovers — the §4.4 drift scenario in miniature.
        n = args.requests
        schedule = ((0, 1.0), (n // 4, 2.0), (3 * n // 4, 1.0))
        return DriftingBackend(
            dist, schedule, time_scale=args.time_scale, rng=rng
        )
    if args.backend == "redis":
        return RedisBackend(time_scale=args.time_scale, rng=rng)
    if args.backend == "search":
        return SearchBackend(time_scale=args.time_scale, rng=rng)
    # Reachable when args bypass argparse choices (programmatic callers):
    # name the flag and the valid values, like the parser would.
    raise ValueError(
        f"--backend: unknown backend {args.backend!r} "
        f"(valid: {', '.join(BACKENDS)})"
    )


def build_policy_and_tuner(args):
    if args.policy == "auto":
        # Live runtime: refits run on the tuner's worker thread so a
        # large-window fit never pauses the event loop's timers.
        tuner = AutoTuner(
            percentile=args.percentile,
            budget=args.budget,
            batch_size=args.batch_size,
            refit_interval=args.refit_interval,
            refit_mode="executor",
        )
        return None, tuner
    if args.policy == "none":
        return NoReissue(), None
    if args.policy == "immediate":
        return ImmediateReissue(), None
    if args.policy == "singled":
        return SingleD(args.delay), None
    if args.policy == "singler":
        return SingleR(args.delay, args.prob), None
    raise ValueError(
        f"--policy: unknown policy {args.policy!r} "
        f"(valid: {', '.join(POLICIES)})"
    )


async def serve_stream(client: HedgedClient, args) -> None:
    served = 0
    while served < args.requests:
        chunk = min(args.report_every, args.requests - served)
        await client.serve(
            chunk,
            interarrival_ms=args.interarrival_ms,
            poisson=args.interarrival_ms > 0.0,
            start_id=served,
        )
        served += chunk
        snap = client.metrics.snapshot()
        policy = client.policy
        print(f"-- after {served} requests  (policy {policy!r})")
        print(snap.render())


SERVE_DESCRIPTION = (
    "Serve a live request stream through a reissue policy "
    "(hedging runtime for 'Optimal Reissue Policies for Reducing "
    "Tail Latency', SPAA 2017)."
)


def configure_serve_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro serve`` arguments."""
    parser.add_argument("--backend", choices=BACKENDS, default="drifting")
    parser.add_argument("--policy", choices=POLICIES, default="auto")
    parser.add_argument("--requests", type=int, default=4_000)
    parser.add_argument("--concurrency", type=int, default=64)
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument(
        "--budget", type=float, default=0.05, help="reissue budget (auto)"
    )
    parser.add_argument(
        "--percentile", type=float, default=0.99, help="target tail (auto)"
    )
    parser.add_argument("--delay", type=float, default=50.0)
    parser.add_argument("--prob", type=float, default=0.5)
    # Must be >= DriftDetector.min_samples (500): the KS detector ignores
    # smaller batches, which would silently kill drift-triggered refits.
    parser.add_argument("--batch-size", type=int, default=500)
    parser.add_argument("--refit-interval", type=int, default=1_000)
    parser.add_argument(
        "--probe-fraction",
        type=float,
        default=0.02,
        help="fraction of requests served as measurement probes",
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=2e-4,
        help="wall seconds per model millisecond",
    )
    parser.add_argument(
        "--interarrival-ms",
        type=float,
        default=0.0,
        help="mean Poisson interarrival gap in model ms (0 = closed burst)",
    )
    parser.add_argument("--report-every", type=int, default=1_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--lognormal-mu", type=float, default=3.0, help="synthetic backends"
    )
    parser.add_argument(
        "--lognormal-sigma", type=float, default=0.8, help="synthetic backends"
    )


def run_serve_command(args) -> int:
    """Execute a parsed serve command."""
    if args.requests < 1:
        print("--requests must be >= 1", file=sys.stderr)
        return 2
    if args.report_every < 1:
        print("--report-every must be >= 1", file=sys.stderr)
        return 2
    if args.policy == "auto":
        from ..core.online import DriftDetector

        min_samples = DriftDetector().min_samples
        if args.batch_size < min_samples:
            print(
                f"warning: --batch-size {args.batch_size} is below the "
                f"drift detector's minimum sample count ({min_samples}); "
                "drift-triggered refits will never fire, only damped "
                "interval refits.",
                file=sys.stderr,
            )

    # Independent streams for the backend (service times) and the client
    # (policy coins, probe selection): seeding both with the same integer
    # would couple hedging decisions to the latency draws they race.
    backend_seq, client_seq = np.random.SeedSequence(args.seed).spawn(2)
    try:
        backend = build_backend(args, np.random.default_rng(backend_seq))
        policy, tuner = build_policy_and_tuner(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client = HedgedClient(
        backend,
        policy,
        concurrency=args.concurrency,
        deadline_ms=args.deadline_ms,
        probe_fraction=args.probe_fraction,
        tuner=tuner,
        rng=np.random.default_rng(client_seq),
    )

    asyncio.run(serve_stream(client, args))

    snap = client.metrics.snapshot()
    print("== final ==")
    print(snap.render())
    if tuner is not None:
        tuner.close()  # drain in-flight executor refits, then report
        print(
            f"  policy refits        {tuner.n_refits:>10d}"
            f"  (final {client.policy!r})"
        )
    print(f"  peak concurrency     {client.peak_in_flight:>10d}")
    return 0


# ---------------------------------------------------------------------------
# repro loadgen: drive a sharded fleet at a target load
# ---------------------------------------------------------------------------

LOADGEN_DESCRIPTION = (
    "Drive a sharded hedging fleet with a closed- or open-loop load "
    "generator and report merged p50/p99/p99.9, achieved throughput, "
    "shed load, and the fleet's policy version. Default: the in-loop "
    "ServingFleet; --procs N serves through N worker processes (one "
    "event loop per core) over Unix-domain or TCP sockets instead."
)


def configure_loadgen_parser(parser: argparse.ArgumentParser) -> None:
    from pathlib import Path

    parser.add_argument(
        "scenario",
        nargs="?",
        default="fleet-tail-quick",
        help="a bundled scenario name or a .toml path; its workload, "
        "policy, and objective shape the fleet "
        "(default: fleet-tail-quick)",
    )
    parser.add_argument(
        "--shards", type=int, default=2, help="fleet width (default: 2)"
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=None,
        metavar="N",
        help="drive a multi-process ProcessFleet of N worker processes "
        "(one event loop per core) over a real socket transport instead "
        "of the in-loop sharded fleet; replaces --shards as the fleet "
        "width",
    )
    parser.add_argument(
        "--transport",
        default=None,
        metavar="TRANSPORT",
        help="ProcessFleet socket transport: unix or tcp "
        "(default: unix; requires --procs)",
    )
    parser.add_argument(
        "--select",
        default="round-robin",
        metavar="STRATEGY",
        help="shard-selection strategy: hash, least-loaded, or round-robin "
        "(default: round-robin)",
    )
    parser.add_argument(
        "--mode",
        choices=("open", "closed"),
        default="open",
        help="open: external-clock arrivals at --rps; closed: --users "
        "virtual users issuing back-to-back (default: open)",
    )
    parser.add_argument(
        "--arrival",
        choices=("poisson", "uniform"),
        default="poisson",
        help="open-loop arrival process (default: poisson)",
    )
    parser.add_argument(
        "--rps",
        type=float,
        default=None,
        help="open-loop target wall arrivals per second; 0 = unpaced "
        "burst (default: 20000; open mode only)",
    )
    parser.add_argument(
        "--users",
        type=int,
        default=None,
        help="closed-loop virtual users (default: 8; closed mode only)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="total requests (default: the scenario's scale.n_queries)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=64,
        help="per-shard client admission semaphore (default: 64)",
    )
    parser.add_argument(
        "--admission-limit",
        type=int,
        default=None,
        help="per-shard active-request cap; arrivals above it are shed "
        "(default: never shed)",
    )
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument(
        "--time-scale",
        type=float,
        default=2e-5,
        help="wall seconds per model millisecond (default: 2e-5)",
    )
    parser.add_argument(
        "--autotune",
        action="store_true",
        help="attach an AutoTuner to shard 0; refits propagate to every "
        "shard via the shared PolicyStore",
    )
    parser.add_argument(
        "--probe-fraction",
        type=float,
        default=0.02,
        help="measurement-probe fraction per shard (default: 0.02)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=200,
        help="autotuner observation batch (default: 200)",
    )
    parser.add_argument(
        "--refit-interval",
        type=int,
        default=500,
        help="autotuner controller refit interval (default: 500)",
    )
    parser.add_argument(
        "--chaos-spike",
        type=float,
        default=None,
        metavar="FACTOR",
        help="degrade shard 0 through a ChaosBackend latency spike of "
        "this factor (hit probability --chaos-prob) — the single-shard-"
        "degradation demo",
    )
    parser.add_argument(
        "--chaos-prob",
        type=float,
        default=0.1,
        help="per-attempt probability of the --chaos-spike (default: 0.1)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_serving.json"),
        metavar="FILE",
        help="where to write the loadgen record "
        "(default: ./BENCH_serving.json)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="report only; do not write the BENCH_serving.json record",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="FILE",
        help="append completed-request latencies (model ms) to this "
        "repro.store trace file (created on first use); sort it with "
        "'repro store sort' before fitting policies from it",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the record as JSON instead of the table",
    )


def _validate_loadgen_args(args) -> str | None:
    """Flag cross-checks; returns an error message naming the flag."""
    from .fleet import SHARD_SELECTORS
    from .procfleet import TRANSPORTS

    if args.select not in SHARD_SELECTORS:
        return (
            f"--select: unknown shard-selection strategy {args.select!r} "
            f"(valid: {', '.join(SHARD_SELECTORS.names())})"
        )
    if args.shards < 1:
        return f"--shards must be >= 1, got {args.shards}"
    if args.requests is not None and args.requests < 1:
        return f"--requests must be >= 1, got {args.requests}"
    if args.mode == "closed" and args.rps is not None:
        return (
            "--rps applies only to --mode open (closed loops are paced "
            "by their users)"
        )
    if args.mode == "open" and args.users is not None:
        return "--users applies only to --mode closed"
    if args.rps is not None and args.rps < 0:
        return f"--rps must be >= 0, got {args.rps:g}"
    if args.users is not None and args.users < 1:
        return f"--users must be >= 1, got {args.users}"
    if args.chaos_spike is not None and args.chaos_spike < 1.0:
        return f"--chaos-spike must be >= 1, got {args.chaos_spike:g}"
    if not 0.0 <= args.chaos_prob <= 1.0:
        return f"--chaos-prob must be in [0, 1], got {args.chaos_prob:g}"
    if args.procs is not None and args.procs < 1:
        return f"--procs must be >= 1, got {args.procs}"
    if args.transport is not None:
        if args.procs is None:
            return (
                "--transport applies only with --procs (the in-loop "
                "fleet has no socket transport)"
            )
        if args.transport not in TRANSPORTS:
            return (
                f"--transport: unknown transport {args.transport!r} "
                f"(valid: {', '.join(TRANSPORTS)})"
            )
    if args.procs is not None and args.chaos_spike is not None:
        return (
            "--chaos-spike applies only to the in-loop fleet "
            "(omit --procs)"
        )
    return None


def run_loadgen_command(args) -> int:
    """Execute a parsed loadgen command."""
    import json

    from ..scenarios import coerce_scenario
    from ..scenarios.engines import serving_backend
    from .chaos import ChaosBackend
    from .fleet import ServingFleet
    from .loadgen import LoadGenerator, as_record
    from .procfleet import ProcessFleet

    problem = _validate_loadgen_args(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        scenario = coerce_scenario(args.scenario).check()
    except (KeyError, TypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    objective = scenario.objective
    autotune_kwargs = {
        "percentile": objective.percentile,
        "budget": objective.budget if objective.budget is not None else 0.05,
        "batch_size": args.batch_size,
        "refit_interval": args.refit_interval,
    }
    chaos_seq, gen_seq = np.random.SeedSequence(
        (args.seed, 0xC4A05)
    ).spawn(2)
    chaos: list[ChaosBackend] = []

    def backend_factory(shard_id: int, rng):
        backend = serving_backend(scenario, args.time_scale, rng)
        if args.chaos_spike is not None and shard_id == 0:
            wrapped = ChaosBackend(
                backend, rng=np.random.default_rng(chaos_seq)
            )
            wrapped.spike(factor=args.chaos_spike, prob=args.chaos_prob)
            chaos.append(wrapped)
            return wrapped
        return backend

    fleet_kwargs = {
        "policy": scenario.build_policy(),
        "selector": args.select,
        "admission_limit": args.admission_limit,
        "concurrency": args.concurrency,
        "deadline_ms": args.deadline_ms,
        "probe_fraction": args.probe_fraction,
        "seed": args.seed,
    }
    try:
        if args.procs is not None:
            # `repro` restores the default SIGPIPE action for shell
            # pipelines; a write to a killed worker's socket must fail
            # with BrokenPipeError (and be shed), not kill the front door.
            if hasattr(signal, "SIGPIPE"):
                signal.signal(signal.SIGPIPE, signal.SIG_IGN)
            # Worker processes rebuild their backends from the shipped
            # scenario dict — the tuner (if any) is likewise built
            # inside the tuned worker, never sent across.
            fleet = ProcessFleet(
                args.procs,
                scenario,
                autotune=autotune_kwargs if args.autotune else None,
                time_scale=args.time_scale,
                transport=args.transport or "unix",
                **fleet_kwargs,
            )
        else:
            fleet = ServingFleet.build(
                args.shards,
                backend_factory,
                tuner=AutoTuner(**autotune_kwargs) if args.autotune else None,
                **fleet_kwargs,
            )
        generator = LoadGenerator(fleet, rng=np.random.default_rng(gen_seq))
        n_requests = (
            args.requests
            if args.requests is not None
            else scenario.scale.n_queries or 2_000
        )
        target_rps = None
        if args.mode == "open":
            target_rps = 20_000.0 if args.rps is None else args.rps
        with fleet:
            result = generator.run(
                n_requests,
                mode=args.mode,
                arrival=args.arrival,
                target_rps=target_rps,
                concurrency=args.users if args.users is not None else 8,
            )
    except (TypeError, ValueError, RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    config = {
        "shards": result.shards,
        "procs": args.procs,
        "transport": result.transport,
        "select": args.select,
        "mode": args.mode,
        "arrival": args.arrival,
        "rps": target_rps,
        "users": args.users,
        "requests": n_requests,
        "concurrency": args.concurrency,
        "admission_limit": args.admission_limit,
        "deadline_ms": args.deadline_ms,
        "time_scale": args.time_scale,
        "autotune": args.autotune,
        "probe_fraction": args.probe_fraction,
        "chaos_spike": args.chaos_spike,
        "seed": args.seed,
    }
    record = as_record(result, scenario.name, config)
    if args.json:
        print(json.dumps(record, indent=2, default=float))
    else:
        print(result.render())
        if args.autotune:
            n_refits = sum(shard["refits"] for shard in result.per_shard)
            print(
                f"  policy refits        {n_refits:>10d}"
                f"  (store v{result.policy_version})"
            )
        for wrapped in chaos:
            print(
                f"  chaos on shard 0     {wrapped.spiked:>10d} spiked "
                f"attempt(s) of {wrapped.requests_seen}"
            )
    if args.store is not None:
        try:
            args.store.parent.mkdir(parents=True, exist_ok=True)
            appended = generator.append_store(args.store)
        except (ValueError, OSError) as exc:
            print(f"error: cannot append to {args.store}: {exc}", file=sys.stderr)
            return 2
        print(f"appended {appended} latencies to {args.store}")
    if not args.no_write:
        try:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(record, indent=2) + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
    return 0
