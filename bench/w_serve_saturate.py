"""Workload ``serve-saturate`` — framework cost per request.

Modelled latency is removed (``time_scale=0``: timers and deadlines off,
so the ``hedge`` timers that ``serve-hedged`` exercises do nothing here
and the transport does the most). **Closed loop**, 4 users. Phase A
drives a two-shard in-loop ``ServingFleet``; phase B drives a
``ProcessFleet`` of one worker over a Unix socket (2 processes on 2
cores), spawned once in setup. The two phases alternate round by round.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import NullSpans, median, per_call_us, percentile, time_call
from loadgen import closed_loop, counters_add_up, run_with_timeout

from repro.scenarios import bundled_scenario
from repro.scenarios.engines import serving_backend
from repro.serving.fleet import PolicyStore, ServingFleet, make_selector
from repro.serving.hedge import HedgedClient, RequestOutcome
from repro.serving.metrics import ServingMetrics
from repro.serving.procfleet import (
    MSG_REQUEST,
    MSG_RESPONSE,
    PolicyStoreServer,
    ProcessFleet,
    RemotePolicyStore,
    decode_payload,
    encode_frame,
)
from repro.structures.tdigest import TDigest

SETUP_REPEATS = 3
MIN_ROUNDS = 3

SCENARIO = "fleet-tail-quick"
USERS = 4
LOOP_SHARDS = 2
LOOP_REQUESTS = 10_000
PROC_REQUESTS = 2_500
WARMUP_REQUESTS = 500
PEEL_REQUESTS = 5_000
#: Tail of the in-loop call-to-return latency: p95, because the p99 of a
#: 0.25 ms operation is set by this box's preemptions (0.53-0.73 ms over
#: ten runs of one commit). Median and tail are taken per block of 500
#: consecutive requests (35 ms) and the run reports its best block
#: (``Rounds.best``): twenty stretches of twenty rounds of one commit
#: spread 15% at the best round's p95, 12% at the best block's.
LOOP_TAIL = 0.95
LOOP_BLOCK = 500
#: AF_UNIX paths are limited to ~107 bytes; past this the process fleet
#: falls back to TCP (recorded in the result).
UNIX_PATH_LIMIT = 100


@dataclass
class State:
    scenario: object
    policy: object
    procs: ProcessFleet
    transport: str
    spawn_s: float
    next_id: int = 0


def _transport() -> str:
    probe = os.path.join(
        tempfile.gettempdir(), "repro-fleet-xxxxxxxx", "worker0.sock"
    )
    return "unix" if len(probe) <= UNIX_PATH_LIMIT else "tcp"


def _loop_fleet(state: State, shards: int, seed: int) -> ServingFleet:
    return ServingFleet.build(
        shards,
        lambda shard_id, rng: serving_backend(state.scenario, 0.0, rng),
        policy=state.policy,
        seed=seed,
    )


def _drive(state: State, request, n: int, spans, name: str):
    """One closed-loop phase under a hard timeout (``None``: it hung)."""
    first_id, state.next_id = state.next_id, state.next_id + n
    return run_with_timeout(
        lambda: closed_loop(request, n, USERS, spans, name, first_id),
        timeout_s=30.0 + n * 5e-3,
    )


def setup(run, workdir: Path) -> State:
    """Spawn the worker process and warm its connection and code paths."""
    scenario = bundled_scenario(SCENARIO).check()
    policy = scenario.build_policy()
    transport = _transport()
    spawn_s, procs = time_call(
        ProcessFleet,
        1,
        scenario,
        policy=policy,
        time_scale=0.0,
        transport=transport,
        seed=run.seed,
    )
    state = State(scenario, policy, procs, transport, spawn_s)
    try:
        warm = _drive(
            state, procs.request, run.size(WARMUP_REQUESTS), NullSpans(), "warmup"
        )
        if warm is None or warm.completed != warm.issued:
            raise RuntimeError("process fleet failed its warm-up requests")
    except BaseException:
        procs.close()
        raise
    return state


def teardown(state: State) -> None:
    state.procs.close()


def _account(run, result, n: int):
    """Count one phase's operations; a hung phase failed all of them."""
    if result is None:
        run.ops(n, n)
    else:
        run.ops(result.issued, result.issued - result.completed)
    return result


def measure(run, state: State, budget_s: float, spans) -> dict:
    n_loop, n_proc = run.size(LOOP_REQUESTS), run.size(PROC_REQUESTS)
    rounds = run.rounds(budget_s, MIN_ROUNDS)
    identity = clean = True
    for number in rounds:
        fleet = _loop_fleet(state, LOOP_SHARDS, 1_000 * run.seed + number)
        result = _account(
            run,
            _drive(state, fleet.request, n_loop, spans, "serving.fleet.request"),
            n_loop,
        )
        if result is not None:
            rounds.add("rps_loop", result.rps)
            rounds.add("loop_ms", *result.latency_ms)
            stats = fleet.stats()
            identity &= counters_add_up(stats)
            clean &= stats["shed"] == 0 and stats["errors"] == 0
        result = _account(
            run,
            _drive(
                state,
                state.procs.request,
                n_proc,
                spans,
                "serving.procfleet.request",
            ),
            n_proc,
        )
        if result is not None:
            rounds.add("rps_procs", result.rps)
            rounds.add("procs_ms", *result.latency_ms)

    stats = state.procs.stats()
    identity &= counters_add_up(stats) and all(
        counters_add_up(worker, "issued") for worker in stats["per_shard"]
    )
    clean &= stats["shed"] == 0 and stats["errors"] == 0
    run.check("issued_equals_completed_plus_shed_plus_errors", identity)
    run.check("no_shed_no_errors", clean)
    run.check("worker_alive_at_end", all(w["alive"] for w in stats["per_shard"]))

    # Call-to-return latency is gated on the in-loop phase. Over the
    # process fleet it is reported per layer only: two busy processes on
    # two cores leave no core for anything else, and the p50 there moved
    # by a third between runs of one commit.
    rps_procs = rounds.best("rps_procs", higher=True)

    def tail(p: float):
        return lambda values: percentile(values, p, run.min_beyond)

    run.notes.update(
        rounds=rounds.table(),
        transport=state.transport,
        procfleet_req_ms_p50=rounds.best("procs_ms"),
        procfleet_req_ms_p99=rounds.best("procs_ms", tail(0.99)),
    )
    return {
        "work_per_s": rounds.best("rps_loop", higher=True),
        "alt_ms": 1e3 / rps_procs,
        "op_ms_p50": rounds.best("loop_ms", block=LOOP_BLOCK),
        "op_ms_tail": rounds.best("loop_ms", tail(LOOP_TAIL), block=LOOP_BLOCK),
    }


def _peel(run, state: State, spans) -> dict:
    """The same null-backend closed loop driven at successive public
    entry points; each level is 1e6 / throughput, and a layer's self
    time is the difference to the level below."""
    n = run.size(PEEL_REQUESTS)
    seed = 77 * run.seed + 1
    backend = serving_backend(state.scenario, 0.0, np.random.default_rng(seed))
    levels = {}

    def level(name: str, request) -> None:
        span_name = name.removesuffix("_us")
        result = _account(run, _drive(state, request, n, spans, span_name), n)
        if result is None:
            raise RuntimeError(f"{span_name}: the closed loop hung")
        levels[name] = 1e6 / result.rps

    level("serving.backends.request_us", backend.request)
    client = HedgedClient(
        serving_backend(state.scenario, 0.0, np.random.default_rng(seed)),
        state.policy,
        rng=np.random.default_rng(seed + 1),
    )
    level("serving.hedge.request_us", client.request)
    level("serving.fleet.request_us", _loop_fleet(state, 1, seed).request)
    level("serving.procfleet.request_us", state.procs.request)

    out = dict(levels)
    names = list(levels)
    for below, above in zip(names, names[1:]):
        out[above.replace("request_us", "self_us")] = levels[above] - levels[below]
    return out


def _probes(run, state: State) -> dict:
    """Single calls too short to appear in a request-level peel."""
    out = {}
    rng = np.random.default_rng(run.seed)
    outcomes = itertools.cycle(
        [
            RequestOutcome(
                query_id=i, latency_ms=float(latency), winner="primary",
                n_planned=1, n_reissues=0, cancelled_attempts=0,
            )
            for i, latency in enumerate(rng.lognormal(3.0, 0.8, 1_024))
        ]
    )
    request = {"seq": 1, "qid": 123456}
    response = {
        "seq": 1, "qid": 123456, "latency_ms": 21.537, "winner": "primary",
        "n_planned": 1, "n_reissues": 0, "cancelled": 0, "deadline": False,
        "pair": None,
    }

    def codec():
        for msg_type, body in ((MSG_REQUEST, request), (MSG_RESPONSE, response)):
            frame = encode_frame(msg_type, body)
            decode_payload(frame[4], frame[5:])

    out["serving.procfleet.codec_us"] = per_call_us(codec, run.size(20_000))

    server = PolicyStoreServer(
        PolicyStore(state.policy), transport=state.transport
    )
    try:
        remote = RemotePolicyStore(server.address, transport=state.transport)
        try:
            out["serving.procfleet.store_get_us"] = per_call_us(
                remote.get, run.size(20_000)
            )
        finally:
            remote.close()
    finally:
        server.close()

    pulls = [time_call(state.procs.metrics)[0] for _ in range(5)]
    out["serving.procfleet.pull_ms"] = median(pulls) * 1e3
    out["serving.procfleet.spawn_s"] = state.spawn_s

    metrics = ServingMetrics()
    out["serving.metrics.record_us"] = per_call_us(
        lambda: metrics.record(next(outcomes)), run.size(20_000)
    )
    halves = []
    for _ in range(2):
        half = ServingMetrics()
        for value in rng.lognormal(3.0, 0.8, run.size(50_000)):
            half.record_latency(value)
        halves.append(half)
    out["serving.metrics.merge_ms"] = (
        median(time_call(halves[0].merge, halves[1])[0] for _ in range(5)) * 1e3
    )

    selector = make_selector("round-robin")
    shards = _loop_fleet(state, LOOP_SHARDS, run.seed).shards
    out["serving.fleet.select_us"] = per_call_us(
        lambda: selector.select(shards, 7), run.size(100_000)
    )
    out["core.policies.draw_plan_us"] = per_call_us(
        lambda: state.policy.draw_plan(rng), run.size(50_000)
    )
    digest = TDigest()
    values = iter(rng.lognormal(3.0, 0.8, 5 * run.size(50_000)).tolist())
    out["structures.tdigest.add_us"] = per_call_us(
        lambda: digest.add(next(values)), run.size(50_000)
    )
    return out


def layers(run, state: State, spans) -> dict:
    out = _peel(run, state, spans)
    out.update(_probes(run, state))
    for name in ("req_ms_p50", "req_ms_p99"):
        out[f"serving.procfleet.{name}"] = run.notes[f"procfleet_{name}"]
    # The peel's top level against the untraced pass (alt_ms = 1e3 / rps).
    untraced_us = run.untraced["alt_ms"] * 1e3
    out["serving.procfleet.peel_residual_share"] = (
        out["serving.procfleet.request_us"] - untraced_us
    ) / untraced_us
    return out
