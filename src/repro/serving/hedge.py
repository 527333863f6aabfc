"""The hedged request path: policies executed on a live event loop.

:class:`HedgedClient` is what the paper calls the *reissue client* (§6.1),
built as an asyncio runtime instead of a simulator event queue:

1. dispatch the primary attempt to an :class:`AsyncBackend`;
2. arm one timer per policy stage ``(d_i, q_i)`` whose coin succeeded
   (the coins are flipped up-front via ``ReissuePolicy.draw_plan``,
   exactly as the simulator does);
3. when a timer fires before any response, dispatch a reissue attempt;
4. on the first response, cancel every other outstanding attempt;
5. enforce an optional per-request deadline and a concurrency-limit
   semaphore (admission control) around the whole race.

A request with nothing to race — no stage timer can fire (its plan is
empty, or ``time_scale <= 0``) and no deadline applies — skips steps 2–4
and awaits its one attempt in its own task: no attempt task, wait set or
cancel bookkeeping, the same outcome. Cancelling a request, on either
path, cancels and reaps every attempt it started.

Latencies are accounted in *model milliseconds*: a completed request's
latency is ``dispatch_offset + backend latency`` of the winning attempt,
so recorded numbers match the paper's analytic model ``min(X, d + Y)``
rather than wall-clock scheduler noise, while the concurrency, timer and
cancellation behavior is genuinely asynchronous.

A small ``probe_fraction`` of requests can be turned into *measurement
probes*: primary plus immediate duplicate, both allowed to finish. These
yield the ``(pair_x, pair_y)`` samples the correlated optimizer and the
:class:`~repro.serving.autotune.AutoTuner` need — the live analogue of
the paper's Figure 4 probe runs.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from ..core.policies import NoReissue, ReissuePolicy
from ..distributions.base import RngLike, as_rng
from ..obs.trace import get_tracer
from .backends import AsyncBackend, BackendResponse
from .metrics import ServingMetrics


@dataclass(frozen=True)
class RequestOutcome:
    """Everything observed about one served request."""

    query_id: int
    latency_ms: float
    winner: str  # "primary" | "reissue" | "none" (deadline miss)
    n_planned: int  # stages whose coin succeeded for this request
    n_reissues: int  # reissue attempts actually dispatched
    cancelled_attempts: int
    deadline_exceeded: bool = False
    pair: tuple[float, float] | None = None  # probe (primary, reissue) ms
    response: BackendResponse | None = None

    @property
    def hedged(self) -> bool:
        return self.n_reissues > 0


class HedgedClient:
    """Serve requests through a reissue policy against an async backend.

    Parameters
    ----------
    backend:
        Any :class:`AsyncBackend`.
    policy:
        The reissue policy to execute (default: :class:`NoReissue`). When
        ``tuner`` is given, the tuner's current policy wins.
    concurrency:
        Admission-control limit on simultaneously served *requests*
        (each request may hold up to ``1 + n_stages`` backend attempts).
    deadline_ms:
        Optional per-request deadline in model ms; on expiry every
        outstanding attempt is cancelled and the request is recorded at
        the deadline latency.
    probe_fraction:
        Fraction of requests served as measurement probes (see module
        docstring).
    """

    def __init__(
        self,
        backend: AsyncBackend,
        policy: ReissuePolicy | None = None,
        *,
        concurrency: int = 64,
        deadline_ms: float | None = None,
        probe_fraction: float = 0.0,
        metrics: ServingMetrics | None = None,
        tuner=None,
        rng: RngLike = None,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if deadline_ms is not None and deadline_ms <= 0.0:
            raise ValueError("deadline_ms must be > 0")
        if not 0.0 <= probe_fraction < 1.0:
            raise ValueError("probe_fraction must be in [0, 1)")
        self.backend = backend
        self._policy = policy if policy is not None else NoReissue()
        self.concurrency = int(concurrency)
        self.deadline_ms = None if deadline_ms is None else float(deadline_ms)
        self.probe_fraction = float(probe_fraction)
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self.tuner = tuner
        self._rng = as_rng(rng)
        self._sem = asyncio.Semaphore(self.concurrency)
        self.in_flight = 0
        self.peak_in_flight = 0

    # -- policy -------------------------------------------------------------
    @property
    def policy(self) -> ReissuePolicy:
        """The policy for the *next* request (live view of the tuner's)."""
        if self.tuner is not None:
            return self.tuner.policy
        return self._policy

    @policy.setter
    def policy(self, new_policy: ReissuePolicy) -> None:
        if self.tuner is not None:
            # The getter would keep returning tuner.policy, silently
            # discarding this assignment.
            raise RuntimeError(
                "client is autotuned; set client.tuner = None first to "
                "pin a manual policy"
            )
        self._policy = new_policy

    # -- request path -------------------------------------------------------
    async def request(self, query_id: int) -> RequestOutcome:
        """Serve one request end to end (admission → race → telemetry).

        Under tracing (:mod:`repro.obs`) each request gets a span whose
        children are its primary/reissue attempts and cancellations,
        with the race outcome recorded as attributes — the per-request
        story behind a p99.9 spike.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            outcome = await self._admit_and_serve(query_id)
        else:
            with tracer.span("serving.request", query_id=query_id) as span:
                outcome = await self._admit_and_serve(query_id)
                span.attrs.update(
                    winner=outcome.winner,
                    latency_ms=round(outcome.latency_ms, 3),
                    n_planned=outcome.n_planned,
                    n_reissues=outcome.n_reissues,
                    cancelled_attempts=outcome.cancelled_attempts,
                    deadline_exceeded=outcome.deadline_exceeded,
                    probe=outcome.pair is not None,
                )
        self.metrics.record(outcome)
        if self.tuner is not None:
            self.tuner.record(outcome)
        return outcome

    async def _admit_and_serve(self, query_id: int) -> RequestOutcome:
        async with self._sem:
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
            try:
                is_probe = (
                    self.probe_fraction > 0.0
                    and self._rng.random() < self.probe_fraction
                )
                if is_probe:
                    return await self._probe(query_id)
                plan = tuple(sorted(self.policy.draw_plan(self._rng)))
                return await self._race(query_id, plan)
            finally:
                self.in_flight -= 1

    async def serve(
        self,
        n_requests: int,
        *,
        interarrival_ms: float = 0.0,
        poisson: bool = False,
    ) -> list[RequestOutcome]:
        """Serve an open-loop stream of ``n_requests`` requests, with
        query ids ``0 .. n_requests - 1``.

        Arrivals are spaced ``interarrival_ms`` apart (exponential gaps
        when ``poisson``); the admission semaphore, not the arrival loop,
        bounds concurrency. Returns outcomes in request order. If any
        request fails (every attempt errored), the stream still runs to
        completion — no sibling request is abandoned — and the first
        failure is re-raised once all requests have settled.
        """
        if n_requests < 0:
            raise ValueError("n_requests must be >= 0")
        scale = self.backend.time_scale
        tasks = []
        for i in range(n_requests):
            tasks.append(asyncio.create_task(self.request(i)))
            if interarrival_ms > 0.0:
                gap = (
                    float(self._rng.exponential(interarrival_ms))
                    if poisson
                    else interarrival_ms
                )
                await asyncio.sleep(gap * scale)
        results = await asyncio.gather(*tasks, return_exceptions=True)
        for r in results:
            if isinstance(r, BaseException):
                raise r
        return list(results)

    # -- internals ----------------------------------------------------------
    async def _race(
        self, query_id: int, plan: tuple[float, ...]
    ) -> RequestOutcome:
        scale = self.backend.time_scale
        tracer = get_tracer()
        # At time_scale <= 0 every model duration collapses to zero wall
        # time, so stage timers and deadlines are meaningless: a timer
        # would expire "instantly", dispatching a reissue on virtually
        # every coin-success regardless of d and inflating the measured
        # spend from q*Pr(X>d) to ~q, and a deadline would skip every
        # stage. Both are off there (throughput-benchmark mode). Such a
        # request, like one with an empty plan and no deadline, has
        # nothing to race, so its one attempt is awaited in this task:
        # the outcome, counters and errors of a race with a lone
        # primary, without its task, wait set and cancel bookkeeping.
        if scale <= 0.0 or (not plan and self.deadline_ms is None):
            coro = self.backend.request(query_id, is_reissue=False)
            if tracer.enabled:
                coro = self._traced_attempt(tracer, coro, False, 0.0)
            resp = await coro
            return RequestOutcome(
                query_id=query_id,
                latency_ms=float(0.0 + resp.latency_ms),
                winner="reissue" if resp.is_reissue else "primary",
                n_planned=len(plan),
                n_reissues=0,
                cancelled_attempts=0,
                response=resp,
            )
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        deadline_wall = (
            None if self.deadline_ms is None else t0 + self.deadline_ms * scale
        )
        offsets: dict[asyncio.Task, float] = {}

        def launch(offset: float, is_reissue: bool) -> None:
            coro = self.backend.request(query_id, is_reissue=is_reissue)
            if tracer.enabled:
                # create_task copies the current context, so the attempt
                # span opens as a child of this request's span.
                coro = self._traced_attempt(tracer, coro, is_reissue, offset)
            task = asyncio.create_task(coro)
            offsets[task] = offset
            pending.add(task)

        pending: set[asyncio.Task] = set()
        responded: set[asyncio.Task] = set()
        errors: list[BaseException] = []
        launch(0.0, is_reissue=False)
        n_reissues = 0

        async def wait_until(when: float | None) -> None:
            """Drain completions until one attempt *responds*, the wall
            clock reaches ``when``, or no attempt is left. A failed
            attempt is dropped from the race (hedging exists to survive
            exactly that) rather than crowned winner or left to leak."""
            while pending and not responded:
                timeout = (
                    None if when is None else max(when - loop.time(), 0.0)
                )
                done, _ = await asyncio.wait(
                    pending,
                    timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    return  # timer expired
                for task in done:
                    pending.discard(task)
                    if task.exception() is None:
                        responded.add(task)
                    else:
                        errors.append(task.exception())

        try:
            for d in plan:
                if deadline_wall is not None and t0 + d * scale >= deadline_wall:
                    break  # this stage would fire after the deadline
                await wait_until(t0 + d * scale)
                if responded:
                    break
                launch(d, is_reissue=True)
                n_reissues += 1

            if not responded:
                await wait_until(deadline_wall)
        except asyncio.CancelledError:
            # The request itself was cancelled: cancel and reap its
            # attempts too, so none outlives it.
            await self._cancel_losers(pending)
            raise

        if not responded:
            cancelled = await self._cancel_losers(pending)
            if pending:  # deadline expired with attempts outstanding
                return RequestOutcome(
                    query_id=query_id,
                    latency_ms=float(self.deadline_ms),
                    winner="none",
                    n_planned=len(plan),
                    n_reissues=n_reissues,
                    cancelled_attempts=cancelled,
                    deadline_exceeded=True,
                )
            raise errors[-1]  # every attempt failed: surface the error

        # The race winner: among attempts that responded, the one whose
        # model completion time (dispatch offset + service latency) is
        # earliest — wall-clock ties are resolved by the model.
        winner_task = min(
            responded, key=lambda t: offsets[t] + t.result().latency_ms
        )
        resp = winner_task.result()
        latency = offsets[winner_task] + resp.latency_ms
        cancelled = await self._cancel_losers(pending)
        return RequestOutcome(
            query_id=query_id,
            latency_ms=float(latency),
            winner="reissue" if resp.is_reissue else "primary",
            n_planned=len(plan),
            n_reissues=n_reissues,
            cancelled_attempts=cancelled,
            response=resp,
        )

    async def _probe(self, query_id: int) -> RequestOutcome:
        """Primary + immediate duplicate, both run to completion.

        Probes are never cancelled (their whole point is two complete
        observations), but SLA accounting still applies: a probe whose
        fastest attempt misses the deadline is recorded at the deadline
        latency and counted as a miss, like any other request.
        """
        tracer = get_tracer()
        coro_primary = self.backend.request(query_id)
        coro_duplicate = self.backend.request(query_id, is_reissue=True)
        if tracer.enabled:
            coro_primary = self._traced_attempt(tracer, coro_primary, False, 0.0)
            coro_duplicate = self._traced_attempt(tracer, coro_duplicate, True, 0.0)
        primary, duplicate = await asyncio.gather(
            coro_primary,
            coro_duplicate,
            return_exceptions=True,
        )
        for attempt in (primary, duplicate):
            # Both attempts have settled (gather waited for both), so
            # re-raising here leaks nothing.
            if isinstance(attempt, BaseException):
                raise attempt
        x, y = primary.latency_ms, duplicate.latency_ms
        latency = float(min(x, y))
        # Deadlines are disabled at time_scale <= 0 (see _race); probes
        # must account identically or miss counts would depend on which
        # requests were randomly probed.
        missed = (
            self.deadline_ms is not None
            and self.backend.time_scale > 0.0
            and latency > self.deadline_ms
        )
        if missed:
            # Consistent with the race path: a miss has no winner (and
            # must not count as a cancellation win in the metrics).
            winner, response = "none", None
        else:
            winner = "primary" if x <= y else "reissue"
            response = primary if x <= y else duplicate
        return RequestOutcome(
            query_id=query_id,
            latency_ms=float(self.deadline_ms) if missed else latency,
            winner=winner,
            n_planned=1,
            n_reissues=1,
            cancelled_attempts=0,
            deadline_exceeded=missed,
            pair=(float(x), float(y)),
            response=response,
        )

    @staticmethod
    async def _traced_attempt(tracer, coro, is_reissue: bool, offset: float):
        """One backend attempt under a span; cancellation is recorded,
        not swallowed (the span closes with ``cancelled=True``)."""
        name = "serving.attempt.reissue" if is_reissue else "serving.attempt.primary"
        with tracer.span(name, offset_ms=offset) as span:
            try:
                resp = await coro
            except asyncio.CancelledError:
                span.attrs["cancelled"] = True
                raise
            span.attrs["latency_ms"] = round(resp.latency_ms, 3)
            return resp

    @staticmethod
    async def _cancel_losers(pending) -> int:
        """Cancel every still-outstanding attempt; returns how many were
        cancelled (reaped before returning, so backend in-flight counts
        are settled when the outcome is recorded)."""
        losers = [t for t in pending if not t.done()]
        for t in losers:
            t.cancel()
        if losers:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event("serving.cancel", n_attempts=len(losers))
            await asyncio.gather(*losers, return_exceptions=True)
        return len(losers)
