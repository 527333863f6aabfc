"""The benchmark's own load generators, both driven from this process.

``open_loop`` sends on an absolute schedule whatever the fleet does and
times each request from when it was *due*, so a stall is charged to the
requests it delayed and the generator's own lateness is reported.
``closed_loop`` runs a fixed number of users that each wait for their
reply before sending the next request, so a slower system receives less
load; it reports throughput and call-to-return latency.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

clock = time.perf_counter


@dataclass
class OpenLoopResult:
    issued: int
    completed: int = 0
    span_s: float = 0.0  # first due time -> last completion
    sending_s: float = 0.0  # first send -> last send
    latency_ms: list = field(default_factory=list)  # from due time
    added_ms: list = field(default_factory=list)  # latency - modelled service
    lag_ms: list = field(default_factory=list)  # sent - due
    model_ms: list = field(default_factory=list)
    reissues: int = 0
    reissue_wins: int = 0
    cancelled: int = 0


async def open_loop(
    fleet, offsets_s, spans, first_id: int = 0, parents: dict | None = None
) -> OpenLoopResult:
    """Issue one request at each schedule offset; wait for all of them.

    ``parents`` (traced runs) maps each in-flight query id to its request
    span, so a wrapped backend can record its attempts as children.
    """
    model_to_wall_ms = fleet.time_scale * 1e3
    result = OpenLoopResult(issued=len(offsets_s))
    start = clock() + 0.02
    last_done = start
    sent_at = []

    async def one(query_id: int, due: float) -> None:
        nonlocal last_done
        span = spans.begin("serving.request", op=query_id, start=due)
        if parents is not None:
            parents[query_id] = span
        sent = clock()
        sent_at.append(sent)
        lag = spans.begin("loadgen.lag", parent=span, op=query_id, start=due)
        spans.end(lag)
        outcome = await fleet.request(query_id)
        done = clock()
        spans.end(span)
        if parents is not None:
            del parents[query_id]
        last_done = max(last_done, done)
        result.lag_ms.append((sent - due) * 1e3)
        if outcome is None:
            return
        result.completed += 1
        latency_ms = (done - due) * 1e3
        result.latency_ms.append(latency_ms)
        result.added_ms.append(latency_ms - outcome.latency_ms * model_to_wall_ms)
        result.model_ms.append(outcome.latency_ms)
        result.reissues += outcome.n_reissues
        result.cancelled += outcome.cancelled_attempts
        result.reissue_wins += outcome.winner == "reissue"

    tasks = []
    for i, offset in enumerate(offsets_s):
        due = start + offset
        # Pace against the absolute schedule; when behind, still yield so
        # requests in flight make progress.
        await asyncio.sleep(max(due - clock(), 0.0))
        tasks.append(asyncio.create_task(one(first_id + i, due)))
    await asyncio.gather(*tasks)
    result.span_s = last_done - (start + offsets_s[0])
    result.sending_s = sent_at[-1] - sent_at[0]
    return result


@dataclass
class ClosedLoopResult:
    issued: int = 0
    completed: int = 0
    wall_s: float = 0.0
    latency_ms: list = field(default_factory=list)  # call to return

    @property
    def rps(self) -> float:
        return self.completed / self.wall_s


async def closed_loop(
    request, n_requests: int, users: int, spans, name: str, first_id: int = 0
) -> ClosedLoopResult:
    """``users`` callers share ``n_requests``; ``request(qid)`` is awaited
    and a ``None`` reply (shed, errored, lost worker) is a failure."""
    result = ClosedLoopResult()
    next_id = first_id
    last_id = first_id + n_requests

    async def user() -> None:
        nonlocal next_id
        while next_id < last_id:
            query_id = next_id
            next_id += 1
            result.issued += 1
            span = spans.begin(name, op=query_id)
            t0 = clock()
            outcome = await request(query_id)
            result.latency_ms.append((clock() - t0) * 1e3)
            spans.end(span)
            if outcome is not None:
                result.completed += 1

    t0 = clock()
    await asyncio.gather(*(user() for _ in range(users)))
    result.wall_s = clock() - t0
    return result


def counters_add_up(stats: dict, issued: str = "requests") -> bool:
    """The fleets' accounting identity: nothing issued goes missing."""
    return stats[issued] == stats["completed"] + stats["shed"] + stats["errors"]


def run_with_timeout(coro_fn, timeout_s: float):
    """``asyncio.run`` one phase under a hard timeout.

    Returns the phase's result, or ``None`` when it hung (a dead or
    wedged worker): the caller counts the phase's operations as failed
    instead of the benchmark hanging.
    """

    async def bounded():
        return await asyncio.wait_for(coro_fn(), timeout_s)

    try:
        return asyncio.run(bounded())
    except asyncio.TimeoutError:
        return None
