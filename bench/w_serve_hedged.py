"""Workload ``serve-hedged`` — the live hedging path with timers on.

The service operator's face of the system at a fixed offered load:
``serving.hedge``/``fleet``/``backends``/``metrics`` do the work, the
socket transport none. **Open loop**: Poisson arrivals at a fixed 500
requests/s from an absolute schedule, in segments of 2 500 requests with
a fresh two-shard in-loop fleet each, over the ``fleet-tail-quick``
backend at one wall millisecond per model millisecond, hedged by the
scenario's own SingleR(40, 0.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from harness import NullSpans, median, percentile
from loadgen import counters_add_up, open_loop, run_with_timeout

from repro.scenarios import bundled_scenario
from repro.scenarios.engines import serving_backend
from repro.serving.fleet import ServingFleet

SETUP_REPEATS = 3

SCENARIO = "fleet-tail-quick"
TIME_SCALE = 1e-3
SHARDS = 2
RATE_RPS = 500.0
SEGMENT_REQUESTS = 2_500
WARMUP_REQUESTS = 200
#: The measured reissue rate may exceed the scenario's budget by this
#: factor before the run counts as incorrect.
BUDGET_SLACK = 1.25


@dataclass
class State:
    scenario: object
    policy: object
    predicted_p99_ms: float


class SpanBackend:
    """A backend wrapped so each attempt is a child span of its request."""

    def __init__(self, inner, spans, parents):
        self.inner = inner
        self.time_scale = inner.time_scale
        self._spans = spans
        self._parents = parents

    async def request(self, query_id: int, *, is_reissue: bool = False):
        span = self._spans.begin(
            "serving.backends.request",
            parent=self._parents.get(query_id),
            op=query_id,
        )
        try:
            return await self.inner.request(query_id, is_reissue=is_reissue)
        finally:
            self._spans.end(span)


def _schedule(rng, n: int) -> np.ndarray:
    """Poisson arrival offsets in seconds at :data:`RATE_RPS`."""
    return np.cumsum(rng.exponential(1.0 / RATE_RPS, n))


def _fleet(state: State, seed: int, spans=None, parents=None) -> ServingFleet:
    def backend(shard_id: int, rng):
        inner = serving_backend(state.scenario, TIME_SCALE, rng)
        return inner if parents is None else SpanBackend(inner, spans, parents)

    return ServingFleet.build(SHARDS, backend, policy=state.policy, seed=seed)


def _segment(state, seed: int, n: int, spans, first_id: int = 0):
    """One fresh fleet under one open-loop schedule; ``None`` on a hang."""
    rng = np.random.default_rng([seed, 0x0FE7])
    parents = {} if spans.enabled else None
    fleet = _fleet(state, seed, spans, parents)
    offsets = _schedule(rng, n)
    timeout = offsets[-1] + 30.0
    result = run_with_timeout(
        lambda: open_loop(fleet, offsets, spans, first_id, parents), timeout
    )
    return fleet, result


def setup(run, workdir) -> State:
    """Load the scenario, predict its policy's tail (fit-then-measure),
    and serve a short warm-up stream through a throwaway fleet."""
    scenario = bundled_scenario(SCENARIO).check()
    policy = scenario.build_policy()
    service = scenario.workload.service.build()
    predicted = policy.tail_latency(
        100.0 * scenario.objective.percentile, service, service
    )
    state = State(scenario, policy, float(predicted))
    _segment(state, run.seed, run.size(WARMUP_REQUESTS), NullSpans())
    return state


def teardown(state: State) -> None:
    pass


def measure(run, state: State, budget_s: float, spans) -> dict:
    n = run.size(SEGMENT_REQUESTS)
    segment_s = n / RATE_RPS
    n_segments = max(round(budget_s / segment_s), 1)
    budget = state.scenario.objective.budget
    segments, peak_active, shed = [], 0, 0
    identity = clean = True
    for number in range(n_segments):
        fleet, result = _segment(
            state, 1_000 * run.seed + number, n, spans, first_id=number * n
        )
        if result is None:  # hung: every request of the segment failed
            run.ops(n, n)
            identity = False
            continue
        run.ops(result.issued, result.issued - result.completed)
        stats = fleet.stats()
        identity &= counters_add_up(stats)
        clean &= stats["shed"] == 0 and stats["errors"] == 0
        shed += stats["shed"]
        peak_active = max(
            peak_active, max(s["peak_active"] for s in stats["per_shard"])
        )
        segments.append(result)

    completed = sum(s.completed for s in segments)
    reissues = sum(s.reissues for s in segments)
    run.check("issued_equals_completed_plus_shed_plus_errors", identity)
    run.check("no_shed_no_errors", clean and bool(segments))
    run.check(
        "reissue_rate_within_budget",
        completed > 0 and reissues / completed <= BUDGET_SLACK * budget,
    )

    # A percentile is taken per segment and the median over segments is
    # reported: a single 150 ms stall of this box delays ~1% of a run's
    # requests, enough to move a pooled p99 by a third, but it sits in
    # one segment.
    def per_segment(attr: str, p: float) -> list[float]:
        return [percentile(getattr(s, attr), p, run.min_beyond) for s in segments]

    tail_p = state.scenario.objective.percentile
    gated = {
        "work_per_s": [s.completed / s.span_s for s in segments],
        "alt_ms": per_segment("added_ms", 0.50),
        "op_ms_p50": per_segment("latency_ms", 0.50),
        "op_ms_tail": per_segment("latency_ms", 0.99),
    }
    p99_model_ms = median(per_segment("model_ms", tail_p))
    run.notes.update(
        segments={**gated, "lag_ms_max": [max(s.lag_ms) for s in segments]},
        requests=completed,
        detail={
            "serving.hedge.added_ms_p99": median(per_segment("added_ms", 0.99)),
            "serving.hedge.added_ms_max": max(max(s.added_ms) for s in segments),
            "serving.hedge.reissue_rate": reissues / completed,
            "serving.hedge.reissues": float(reissues),
            "serving.hedge.cancelled": float(sum(s.cancelled for s in segments)),
            "serving.hedge.reissue_win_ratio": (
                sum(s.reissue_wins for s in segments) / max(reissues, 1)
            ),
            "serving.hedge.p99_model_ms": p99_model_ms,
            "serving.p99_calibration_err": (
                p99_model_ms / state.predicted_p99_ms - 1.0
            ),
            "serving.fleet.peak_active": float(peak_active),
            "serving.fleet.shed": float(shed),
            "loadgen.lag_ms_p50": median(per_segment("lag_ms", 0.50)),
            "loadgen.lag_ms_p99": median(per_segment("lag_ms", 0.99)),
            "loadgen.lag_ms_max": max(max(s.lag_ms) for s in segments),
            "loadgen.offered_rps": median(
                (s.issued - 1) / s.sending_s for s in segments
            ),
        },
    )
    return {name: median(values) for name, values in gated.items()}


def layers(run, state: State, spans) -> dict:
    """The traced pass already ran: its counters, plus each request span
    split into backend time and the fleet's own."""
    out = dict(run.notes["detail"])
    out["serving.backends.self_ms"] = (
        median(spans.self_times("serving.backends.request")) * 1e3
    )
    out["serving.fleet.self_ms"] = (
        median(spans.self_times("serving.request")) * 1e3
    )
    return out
