"""Closed- and open-loop load generation against a :class:`ServingFleet`.

The distinction matters for tail measurement (Schroeder et al.'s
closed-vs-open argument, restated for hedging fleets):

* **closed loop** — ``concurrency`` virtual users each issue a request,
  wait for its response, and immediately issue the next. Offered load is
  *coordinated* with service: a slow request throttles its user, so
  stragglers suppress the very arrivals that would have piled up behind
  them. Tail estimates from closed loops are optimistic.
* **open loop** — arrivals come from an external clock (Poisson or
  uniform gaps at ``target_rps``), independent of completions. A
  straggler leaves arrivals accumulating against the admission limit —
  which is how production traffic behaves, and why ``repro loadgen``
  defaults to an open loop.

``target_rps`` is *wall-clock* arrivals per second. Simulated backends
compress model time by ``time_scale`` (one model millisecond costs
``time_scale`` wall seconds), so a quick-scale smoke on one core
genuinely sustains tens of thousands of wall RPS while latency
*statistics* stay in model milliseconds.

:func:`as_record` shapes one run into the loadgen record that
``repro loadgen --out`` writes, and :func:`validate_record` is the
schema check shared by the tests and the CI fleet job.
"""

from __future__ import annotations

import asyncio
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..distributions.base import RngLike, as_rng
from .fleet import ServingFleet

ARRIVALS = ("poisson", "uniform")
MODES = ("open", "closed")

#: Schema version of the loadgen record. Version 2 added
#: ``results.transport`` and the per-worker ``issued`` counter (with its
#: per-worker counter identity); it is the only version accepted.
RECORD_VERSION = 2
RECORD_KIND = "serving-loadgen"

#: ``results.transport`` values: ``"loop"`` is a fleet of in-loop shards
#: (they share one event loop); ``"unix"``/``"tcp"`` are the socket
#: transports of a fleet of worker processes (``ProcessFleet``).
RECORD_TRANSPORTS = ("loop", "unix", "tcp")

#: Quantiles every loadgen report carries (model milliseconds).
REPORT_QUANTILES = (0.50, 0.99, 0.999)


@dataclass(frozen=True)
class LoadgenResult:
    """One load-generation run against one fleet."""

    mode: str
    arrival: str
    target_rps: float | None
    issued: int
    completed: int
    shed: int
    errors: int
    deadline_misses: int
    wall_s: float
    achieved_rps: float
    offered_rps: float
    quantiles: Mapping[str, float]  # "p50" / "p99" / "p999", model ms
    reissue_rate: float
    policy_version: int
    shards: int
    selector: str
    per_shard: list = field(default_factory=list)
    #: ``"loop"`` (in-loop shards) or a ProcessFleet socket transport
    #: (``"unix"`` / ``"tcp"``).
    transport: str = "loop"

    def render(self) -> str:
        """The ``repro loadgen`` report."""
        head = f"{self.mode} loop"
        if self.mode == "open":
            target = (
                "burst" if not self.target_rps else f"{self.target_rps:g} rps"
            )
            head += f", {self.arrival} arrivals @ {target}"
        workers = (
            f"{self.shards} shard(s)"
            if self.transport == "loop"
            else f"{self.shards} worker process(es) [{self.transport}]"
        )
        lines = [
            f"== loadgen [{head}] over {workers} ({self.selector}) ==",
            f"  issued               {self.issued:>10d}",
            f"  completed            {self.completed:>10d}",
            f"  shed                 {self.shed:>10d}",
            f"  errors               {self.errors:>10d}",
            f"  deadline misses      {self.deadline_misses:>10d}",
            f"  wall time            {self.wall_s:>10.3f} s",
            f"  offered throughput   {self.offered_rps:>10.0f} req/s",
            f"  achieved throughput  {self.achieved_rps:>10.0f} req/s",
            f"  reissue rate         {self.reissue_rate:>10.3f}",
            f"  policy version       {self.policy_version:>10d}",
        ]
        for name, value in self.quantiles.items():
            lines.append(f"  {name:<5s}                {value:>10.2f} ms")
        for shard in self.per_shard:
            p99 = shard.get("p99_ms")
            lines.append(
                f"    shard {shard['shard']}: "
                f"completed {shard['completed']}, shed {shard['shed']}, "
                f"errors {shard['errors']}, "
                f"peak {shard['peak_active']}, "
                f"p99 {'n/a' if p99 is None else f'{p99:.2f} ms'}"
            )
        return "\n".join(lines)


class LoadGenerator:
    """Drive a freshly built fleet at a target load.

    Any :class:`ServingFleet` will do — over in-loop shards or, as a
    :class:`~repro.serving.procfleet.ProcessFleet`, over worker
    processes behind a real socket transport.

    The generator reads the fleet's merged metrics *after* the run, so
    give it a fleet that has not served traffic yet — reusing a fleet
    would fold the earlier stream into the reported quantiles.
    """

    def __init__(self, fleet: ServingFleet, *, rng: RngLike = None):
        self.fleet = fleet
        self._rng = as_rng(rng)
        #: Completed-request latencies (model ms) of the latest run, in
        #: completion order — the raw log behind ``append_store``.
        self.latencies: list[float] = []

    # -- entry points --------------------------------------------------------
    def run(
        self,
        n_requests: int,
        *,
        mode: str = "open",
        arrival: str = "poisson",
        target_rps: float | None = None,
        concurrency: int = 8,
    ) -> LoadgenResult:
        """Generate ``n_requests`` and return the aggregated result.

        Open mode paces arrivals at ``target_rps`` wall arrivals/second
        (``None`` or 0: an unpaced burst — the overload probe). Closed
        mode ignores ``target_rps`` and runs ``concurrency`` virtual
        users back-to-back.
        """
        if n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if arrival not in ARRIVALS:
            raise ValueError(
                f"arrival must be one of {ARRIVALS}, got {arrival!r}"
            )
        if target_rps is not None and target_rps < 0:
            raise ValueError("target_rps must be >= 0")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.latencies = []
        t0 = time.perf_counter()
        if mode == "open":
            asyncio.run(self._open_loop(n_requests, arrival, target_rps))
        else:
            asyncio.run(self._closed_loop(n_requests, concurrency))
        wall_s = max(time.perf_counter() - t0, 1e-9)
        return self._result(
            mode, arrival, target_rps, n_requests, wall_s
        )

    def append_store(self, path) -> int:
        """Append the latest run's completed-request latencies to a
        ``repro.store`` file (created on first use), returning the count.

        Append mode clears the file's sorted flag — run
        ``repro store sort`` before fitting policies from it.
        """
        from ..store import TraceWriter

        with TraceWriter(path, mode="a") as writer:
            writer.append(np.asarray(self.latencies, dtype=np.float64))
        return len(self.latencies)

    # -- arrival processes ---------------------------------------------------
    async def _open_loop(
        self, n_requests: int, arrival: str, target_rps: float | None
    ) -> None:
        gap_s = 0.0 if not target_rps else 1.0 / float(target_rps)
        loop = asyncio.get_running_loop()
        start = loop.time()
        due = 0.0  # scheduled offset of the next arrival, seconds
        tasks = []
        for i in range(n_requests):
            if gap_s > 0.0:
                # Pace against the absolute schedule, not per-arrival
                # sleeps: when a sleep overshoots (timer granularity),
                # every arrival already due dispatches immediately, so
                # the offered rate tracks the target instead of being
                # capped at one arrival per timer tick.
                behind = (loop.time() - start) - due
                if behind < 0.0:
                    await asyncio.sleep(-behind)
                else:
                    # Already due: dispatch without a timer, but still
                    # yield so in-flight requests make progress.
                    await asyncio.sleep(0)
            tasks.append(asyncio.create_task(self.fleet.request(i)))
            if gap_s > 0.0:
                due += (
                    float(self._rng.exponential(gap_s))
                    if arrival == "poisson"
                    else gap_s
                )
            else:
                # A burst still yields between arrivals so admission and
                # cancellation interleave like a real (very fast) stream.
                await asyncio.sleep(0)
        for outcome in await asyncio.gather(*tasks):
            if outcome is not None:
                self.latencies.append(float(outcome.latency_ms))

    async def _closed_loop(self, n_requests: int, concurrency: int) -> None:
        next_id = 0

        async def user() -> None:
            nonlocal next_id
            while next_id < n_requests:
                query_id = next_id
                next_id += 1
                outcome = await self.fleet.request(query_id)
                if outcome is not None:
                    self.latencies.append(float(outcome.latency_ms))

        await asyncio.gather(*(user() for _ in range(concurrency)))

    # -- aggregation ---------------------------------------------------------
    def _result(
        self,
        mode: str,
        arrival: str,
        target_rps: float | None,
        issued: int,
        wall_s: float,
    ) -> LoadgenResult:
        fleet = self.fleet
        merged = fleet.metrics()
        quantiles = {}
        if merged.completed:
            for p in REPORT_QUANTILES:
                name = f"p{100 * p:g}".replace(".", "")
                quantiles[name] = round(float(merged.quantile(p)), 3)
        stats = fleet.stats()
        return LoadgenResult(
            mode=mode,
            arrival=arrival,
            target_rps=None if not target_rps else float(target_rps),
            issued=issued,
            completed=merged.completed,
            shed=fleet.shed_total,
            errors=fleet.errors,
            deadline_misses=merged.deadline_exceeded,
            wall_s=round(wall_s, 6),
            achieved_rps=round(merged.completed / wall_s, 1),
            offered_rps=round(issued / wall_s, 1),
            quantiles=quantiles,
            reissue_rate=round(merged.reissue_rate, 4),
            policy_version=fleet.store.version,
            shards=fleet.n_shards,
            selector=fleet.selector_name,
            per_shard=stats["per_shard"],
            transport=fleet.transport,
        )


# ---------------------------------------------------------------------------
# The loadgen record
# ---------------------------------------------------------------------------


def as_record(
    result: LoadgenResult, scenario: str, config: Mapping | None = None
) -> dict:
    """Shape one loadgen run into the loadgen record schema."""
    quantiles = {k: float(v) for k, v in result.quantiles.items()}
    return {
        "version": RECORD_VERSION,
        "kind": RECORD_KIND,
        "recorded_unix": int(time.time()),
        "python": platform.python_version(),
        "machine": {
            "system": platform.system(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "scenario": scenario,
        "config": dict(config or {}),
        "results": {
            "mode": result.mode,
            "arrival": result.arrival,
            "target_rps": result.target_rps,
            "issued": result.issued,
            "completed": result.completed,
            "shed": result.shed,
            "errors": result.errors,
            "deadline_misses": result.deadline_misses,
            "wall_s": result.wall_s,
            "achieved_rps": result.achieved_rps,
            "offered_rps": result.offered_rps,
            "quantiles_ms": quantiles,
            "reissue_rate": result.reissue_rate,
            "policy_version": result.policy_version,
            "shards": result.shards,
            "selector": result.selector,
            "transport": result.transport,
            "per_shard": list(result.per_shard),
        },
    }


def validate_record(record) -> list[str]:
    """Schema check for a loadgen record.

    Returns a list of problems (empty: valid). Shared by the unit tests
    and the CI fleet job so every emitted record is held to the same
    contract: version ``RECORD_VERSION``, a ``results.transport``, and
    the counter identity ``issued == completed + shed + errors`` on the
    totals and on every ``per_shard`` entry.
    """
    errors: list[str] = []

    def check(cond: bool, message: str) -> None:
        if not cond:
            errors.append(message)

    check(isinstance(record, dict), "record must be a JSON object")
    if not isinstance(record, dict):
        return errors
    check(
        record.get("version") == RECORD_VERSION,
        f"version must be {RECORD_VERSION}",
    )
    check(record.get("kind") == RECORD_KIND, f"kind must be {RECORD_KIND!r}")
    check(
        isinstance(record.get("recorded_unix"), int)
        and record.get("recorded_unix", 0) > 0,
        "recorded_unix must be a positive integer",
    )
    check(isinstance(record.get("scenario"), str), "scenario must be a string")
    check(isinstance(record.get("config"), dict), "config must be an object")
    results = record.get("results")
    check(isinstance(results, dict), "results must be an object")
    if not isinstance(results, dict):
        return errors
    check(results.get("mode") in MODES, f"results.mode must be one of {MODES}")
    check(
        results.get("arrival") in ARRIVALS,
        f"results.arrival must be one of {ARRIVALS}",
    )
    for name in ("issued", "completed", "shed", "errors", "deadline_misses"):
        value = results.get(name)
        check(
            isinstance(value, int) and value >= 0,
            f"results.{name} must be a non-negative integer",
        )
    for name in ("wall_s", "achieved_rps", "offered_rps", "reissue_rate"):
        value = results.get(name)
        check(
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and np.isfinite(value)
            and value >= 0,
            f"results.{name} must be a non-negative finite number",
        )
    check(
        isinstance(results.get("completed"), int)
        and results.get("completed", 0) > 0,
        "results.completed must be > 0 (an empty run is not a benchmark)",
    )
    if all(
        isinstance(results.get(k), int)
        for k in ("issued", "completed", "shed", "errors")
    ):
        check(
            results["issued"]
            == results["completed"] + results["shed"] + results["errors"],
            "results.issued must equal completed + shed + errors "
            "(deadline misses complete at the deadline latency)",
        )
    quantiles = results.get("quantiles_ms")
    check(isinstance(quantiles, dict), "results.quantiles_ms must be an object")
    if isinstance(quantiles, dict):
        for name in ("p50", "p99", "p999"):
            value = quantiles.get(name)
            check(
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and np.isfinite(value)
                and value >= 0,
                f"results.quantiles_ms.{name} must be a non-negative "
                "finite number",
            )
        if all(
            isinstance(quantiles.get(k), (int, float))
            for k in ("p50", "p99", "p999")
        ):
            check(
                quantiles["p50"] <= quantiles["p99"] <= quantiles["p999"],
                "quantiles must be non-decreasing in p",
            )
    check(
        isinstance(results.get("shards"), int) and results.get("shards", 0) >= 1,
        "results.shards must be an integer >= 1",
    )
    check(
        isinstance(results.get("policy_version"), int)
        and results.get("policy_version", -1) >= 0,
        "results.policy_version must be a non-negative integer",
    )
    per_shard = results.get("per_shard")
    check(isinstance(per_shard, list), "results.per_shard must be an array")
    if isinstance(per_shard, list) and isinstance(results.get("shards"), int):
        check(
            len(per_shard) == results["shards"],
            "results.per_shard must have one entry per shard",
        )
    check(
        results.get("transport") in RECORD_TRANSPORTS,
        f"results.transport must be one of {RECORD_TRANSPORTS}",
    )
    if isinstance(per_shard, list):
        for entry in per_shard:
            if not isinstance(entry, dict):
                errors.append("per_shard entries must be objects")
                continue
            label = f"per_shard[{entry.get('shard', '?')}]"
            counters = {}
            for name in ("issued", "completed", "shed", "errors"):
                value = entry.get(name)
                if not isinstance(value, int) or value < 0:
                    errors.append(
                        f"{label}.{name} must be a non-negative integer"
                    )
                    break
                counters[name] = value
            else:
                check(
                    counters["issued"]
                    == counters["completed"]
                    + counters["shed"]
                    + counters["errors"],
                    f"{label}: issued must equal "
                    "completed + shed + errors",
                )
    return errors
