"""Pluggable asynchronous backends for the hedging runtime.

An :class:`AsyncBackend` is anything that can serve one request attempt
asynchronously and report its latency. The simulated implementations here
model service time in *model milliseconds* and realize it on the event
loop as ``latency_ms * time_scale`` wall-clock seconds, so the same
workload can run at full fidelity (``time_scale=1e-3``: one wall ms per
model ms) or compressed for tests (``time_scale=5e-5``).

All simulated backends keep live counters (``started`` / ``completed`` /
``cancelled`` / ``in_flight`` / ``peak_in_flight``) so tests can assert
cancellation and admission-control behavior without instrumenting the
event loop.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..distributions.base import Distribution, RngLike, as_rng


@dataclass(frozen=True)
class BackendResponse:
    """One completed request attempt.

    ``latency_ms`` is the backend's service latency in model milliseconds
    — the number the metrics layer and the autotuner consume. ``payload``
    carries application data when the backend has any (e.g. search hits).
    """

    query_id: int
    latency_ms: float
    is_reissue: bool = False
    payload: object = None


@runtime_checkable
class AsyncBackend(Protocol):
    """Protocol every serving backend implements."""

    #: Wall-clock seconds per model millisecond of service latency.
    time_scale: float

    async def request(
        self, query_id: int, *, is_reissue: bool = False
    ) -> BackendResponse:
        """Serve one attempt of ``query_id``; awaitable, cancellable."""
        ...  # pragma: no cover - protocol


class SimulatedBackend:
    """Base class realizing model latencies as event-loop sleeps.

    Subclasses implement :meth:`service_time_ms`. A request attempt draws
    its service time, sleeps it (scaled), and returns a
    :class:`BackendResponse`; cancelling the awaiting task mid-sleep is
    counted in ``cancelled`` — exactly what the hedging client does to the
    losing attempt.
    """

    def __init__(self, time_scale: float = 1e-3, rng: RngLike = None):
        if time_scale < 0.0:
            raise ValueError("time_scale must be >= 0")
        self.time_scale = float(time_scale)
        self._rng = as_rng(rng)
        self.started = 0
        self.completed = 0
        self.cancelled = 0
        self.in_flight = 0
        self.peak_in_flight = 0

    # -- subclass interface -------------------------------------------------
    def service_time_ms(self, query_id: int, is_reissue: bool) -> float:
        """Model service latency of one attempt (subclasses override)."""
        raise NotImplementedError

    def payload_for(self, query_id: int, is_reissue: bool) -> object:
        """Optional application payload (default: none)."""
        return None

    # -- AsyncBackend -------------------------------------------------------
    async def request(
        self, query_id: int, *, is_reissue: bool = False
    ) -> BackendResponse:
        latency = float(self.service_time_ms(query_id, is_reissue))
        if latency < 0.0 or not np.isfinite(latency):
            raise ValueError(f"backend produced invalid latency {latency}")
        self.started += 1
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            if self.time_scale > 0.0:
                await asyncio.sleep(latency * self.time_scale)
            else:
                await asyncio.sleep(0)  # still yield: preserve race semantics
        except asyncio.CancelledError:
            self.cancelled += 1
            raise
        finally:
            self.in_flight -= 1
        self.completed += 1
        return BackendResponse(
            query_id=query_id,
            latency_ms=latency,
            is_reissue=is_reissue,
            payload=self.payload_for(query_id, is_reissue),
        )


class SyntheticBackend(SimulatedBackend):
    """I.i.d. service times from a :class:`Distribution`.

    ``reissue`` defaults to the primary distribution — the paper's
    independent model of §2.1, live.
    """

    def __init__(
        self,
        primary: Distribution,
        reissue: Distribution | None = None,
        time_scale: float = 1e-3,
        rng: RngLike = None,
    ):
        super().__init__(time_scale=time_scale, rng=rng)
        self.primary = primary
        self.reissue = reissue or primary

    def service_time_ms(self, query_id: int, is_reissue: bool) -> float:
        dist = self.reissue if is_reissue else self.primary
        return float(dist.sample(1, self._rng)[0])


class DriftingBackend(SyntheticBackend):
    """A synthetic backend whose latency regime shifts over the stream.

    ``schedule`` maps request counts to scale multipliers: the pair
    ``(n_i, s_i)`` means "from the ``n_i``-th primary request on, service
    times are multiplied by ``s_i``". This reproduces, in live form, the
    diurnal-drift scenario of §4.4 that
    :class:`repro.core.online.OnlinePolicyController` exists to track.
    """

    def __init__(
        self,
        primary: Distribution,
        schedule: Sequence[tuple[int, float]] = ((0, 1.0),),
        reissue: Distribution | None = None,
        time_scale: float = 1e-3,
        rng: RngLike = None,
    ):
        super().__init__(primary, reissue, time_scale=time_scale, rng=rng)
        schedule = sorted((int(n), float(s)) for n, s in schedule)
        if not schedule or schedule[0][0] != 0:
            raise ValueError("schedule must start at request count 0")
        if any(s <= 0.0 for _, s in schedule):
            raise ValueError("scale multipliers must be > 0")
        self.schedule = tuple(schedule)
        self._primaries_seen = 0

    def current_scale(self) -> float:
        scale = self.schedule[0][1]
        for n, s in self.schedule:
            if self._primaries_seen >= n:
                scale = s
        return scale

    def service_time_ms(self, query_id: int, is_reissue: bool) -> float:
        scale = self.current_scale()
        if not is_reissue:
            self._primaries_seen += 1
        return scale * super().service_time_ms(query_id, is_reissue)


class WorkloadBackend(SimulatedBackend):
    """Shared base for backends wrapping a ``ServiceModel``-style workload.

    Primary costs come from ``workload.sample_primary``; a reissue of the
    same ``query_id`` re-executes the same work on a replica — identical
    deterministic cost, fresh machine noise via
    ``workload.sample_reissue`` — reproducing the correlation structure
    the simulator uses. Per-query costs are kept in a FIFO-bounded cache:
    query ids are unique per request, so an unbounded map would grow for
    the life of the process, and FIFO is exact here because a reissue
    always looks up a recently inserted primary.
    """

    def __init__(
        self,
        workload=None,
        time_scale: float = 1e-3,
        rng: RngLike = None,
        cost_cache_size: int = 65_536,
    ):
        super().__init__(time_scale=time_scale, rng=rng)
        if cost_cache_size < 1:
            raise ValueError("cost_cache_size must be >= 1")
        self._cost_cache_size = int(cost_cache_size)
        self.workload = (
            workload if workload is not None else self._default_workload()
        )
        self._primary_cost: dict[int, float] = {}

    def _default_workload(self):
        raise NotImplementedError  # pragma: no cover - subclass hook

    def service_time_ms(self, query_id: int, is_reissue: bool) -> float:
        if is_reissue and query_id in self._primary_cost:
            return float(
                self.workload.sample_reissue(
                    [self._primary_cost[query_id]], self._rng
                )[0]
            )
        cost = float(self.workload.sample_primary(1, self._rng)[0])
        if len(self._primary_cost) >= self._cost_cache_size:
            self._primary_cost.pop(next(iter(self._primary_cost)))
        self._primary_cost[query_id] = cost
        return cost


class RedisBackend(WorkloadBackend):
    """The §6.2 Redis set-intersection workload behind the async protocol.

    Per-query costs come from :class:`repro.systems.setstore.
    SetIntersectionWorkload` (heavy lognormal cardinality tail, queries of
    death included).
    """

    def __init__(
        self,
        workload=None,
        time_scale: float = 1e-3,
        rng: RngLike = None,
        corpus_seed: int = 2,
        cost_cache_size: int = 65_536,
    ):
        self._corpus_seed = int(corpus_seed)
        super().__init__(
            workload,
            time_scale=time_scale,
            rng=rng,
            cost_cache_size=cost_cache_size,
        )

    def _default_workload(self):
        from ..systems.setstore import (
            SetCorpusConfig,
            SetIntersectionWorkload,
            SetStore,
        )

        store = SetStore.build_synthetic(
            SetCorpusConfig(),
            rng=as_rng(self._corpus_seed),
            materialize=False,
        )
        return SetIntersectionWorkload(store)


class SearchBackend(WorkloadBackend):
    """The §6.3 Lucene-style search workload behind the async protocol.

    Costs come from :class:`repro.systems.search_engine.SearchWorkload`'s
    calibrated postings-scan model; reissues redraw only the execution
    noise, as a replica re-running the identical query would.
    """

    def _default_workload(self):
        from ..systems.search_engine import SearchWorkload

        return SearchWorkload()
