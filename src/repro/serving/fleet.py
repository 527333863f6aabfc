"""The serving fleet: one front door over N hedging shards.

One :class:`~repro.serving.hedge.HedgedClient` executes the paper's
reissue policies on one event loop. Real deployments of the hedging idea
("Tail at Scale") are *fleets*: many serving shards behind a router,
where stragglers, load skew, and partial failures — not a single
client's variance — dominate the tail. This module scales the runtime to
that shape:

* :class:`PolicyStore` — versioned, fleet-shared policy state. An
  :class:`~repro.serving.autotune.AutoTuner` refitting on *one* shard
  publishes here; every other shard adopts the new ``SingleR`` before
  its next request, so a refit propagates fleet-wide without any shard
  talking to another.
* :class:`Shard` — the small surface the front door needs of one shard,
  whatever carries the request to it: :class:`ShardWorker` (in-loop) or
  :class:`~repro.serving.procfleet.WorkerHandle` (a worker process
  behind a socket, which itself runs a ``ShardWorker``).
* :class:`ShardWorker` — the in-loop shard: a ``HedgedClient`` plus
  per-shard admission control (when ``admission_limit`` concurrent
  requests are already active the shard *sheds* the request instead of
  queueing it — an overloaded hedging tier that queues reissues behind
  primaries collapses; one that sheds degrades) and the policy-sync
  hooks.
* :class:`ServingFleet` — the only front door: pluggable selection over
  the *live* shards (``hash`` / ``round-robin`` / ``least-loaded`` via
  the :data:`SHARD_SELECTORS` registry), the request/shed/error
  accounting, and fleet-wide telemetry through
  :meth:`~repro.serving.metrics.ServingMetrics.merge` — of metrics each
  shard records where the front door observes the outcome, so a dead
  worker is accounted like a live one and no sketch crosses a socket.
"""

from __future__ import annotations

import os
import threading
import zlib
from typing import Callable, Protocol, Sequence

import numpy as np

from ..core.policies import ReissuePolicy
from ..obs.trace import get_tracer
from ..registry import Registry
from .hedge import HedgedClient, RequestOutcome
from .metrics import ServingMetrics


class PolicyStore:
    """Fleet-shared, versioned reissue-policy state.

    ``publish`` bumps a monotone version; shards compare versions (not
    policies) so adoption is O(1) per request. The lock makes the store
    safe to publish from an :class:`AutoTuner` running refits on its
    executor thread while the event loop reads.
    """

    def __init__(self, policy: ReissuePolicy | None = None):
        self._lock = threading.Lock()
        self._version = 0
        self._policy: ReissuePolicy | None = None
        #: ``(version, source)`` for every publish, oldest first.
        self.publishes: list[tuple[int, str]] = []
        if policy is not None:
            self.publish(policy, source="init")

    @property
    def version(self) -> int:
        return self._version

    @property
    def policy(self) -> ReissuePolicy | None:
        return self._policy

    def publish(self, policy: ReissuePolicy, source: str = "") -> int:
        """Install ``policy`` fleet-wide; returns the new version."""
        if not isinstance(policy, ReissuePolicy):
            raise TypeError(
                f"expected a ReissuePolicy, got {type(policy).__name__}"
            )
        with self._lock:
            self._version += 1
            self._policy = policy
            self.publishes.append((self._version, source))
            return self._version

    def get(self) -> tuple[int, ReissuePolicy | None]:
        """A consistent ``(version, policy)`` snapshot."""
        with self._lock:
            return self._version, self._policy


# ---------------------------------------------------------------------------
# Shard selection strategies
# ---------------------------------------------------------------------------

#: Pluggable front-door routing strategies. Entries are no-argument
#: factories returning an object with ``select(shards, query_id, key)``.
SHARD_SELECTORS = Registry("shard-selection strategy")


class RoundRobinSelector:
    """Cycle shards in order — uniform spread, stateless backends."""

    def __init__(self):
        self._next = 0

    def select(self, shards, query_id: int, key=None) -> int:
        index = self._next % len(shards)
        self._next += 1
        return index


class HashSelector:
    """Stable CRC32 hash of the routing key (query id by default).

    The same key always lands on the same shard — the affinity a
    cache-bearing or partitioned backend needs. ``crc32`` rather than
    ``hash()`` because Python string hashing is salted per process.
    """

    def select(self, shards, query_id: int, key=None) -> int:
        token = query_id if key is None else key
        return zlib.crc32(repr(token).encode()) % len(shards)


class LeastLoadedSelector:
    """Shard with the fewest active requests (lowest index breaks ties).

    The join-the-shortest-queue instinct, applied to admission slots: it
    steers new arrivals away from a shard soaking up a latency spike.
    """

    def select(self, shards, query_id: int, key=None) -> int:
        return min(range(len(shards)), key=lambda i: (shards[i].load, i))


SHARD_SELECTORS.register(
    "round-robin", RoundRobinSelector, summary="cycle shards in order"
)
SHARD_SELECTORS.register(
    "hash",
    HashSelector,
    summary="stable CRC32 of the routing key (shard affinity)",
)
SHARD_SELECTORS.register(
    "least-loaded",
    LeastLoadedSelector,
    summary="fewest active requests wins (steers around stragglers)",
)


def make_selector(name: str):
    """Build a registered selector; ``KeyError`` lists valid names."""
    return SHARD_SELECTORS.build(name)


# ---------------------------------------------------------------------------
# One shard
# ---------------------------------------------------------------------------


class Shard(Protocol):
    """What the front door needs of one shard.

    ``issued == completed + shed + errors`` holds on every shard once
    its requests have returned — the identity ``validate_record`` checks.
    """

    shard_id: int
    #: Wall seconds per model millisecond of the shard's backend.
    time_scale: float
    #: Routable. A shard that stops being alive never becomes so again.
    alive: bool
    #: Outcomes as the front door observed them.
    metrics: ServingMetrics
    #: Requests currently on this shard (the routing signal).
    load: int
    issued: int
    completed: int
    shed: int
    errors: int

    async def submit(self, query_id: int) -> RequestOutcome | None:
        """Serve one request. Never raises: ``None`` means it was shed
        or failed, and the shard's counters say which."""

    def detail(self) -> dict:
        """Shard-side facts for ``stats()``: ``peak_active``, ``pid``,
        ``refits``, ``store_version``, ``policy_spec``."""

    def close(self) -> None:
        """Release what the shard owns (idempotent)."""


class ShardWorker:
    """The in-loop shard: a ``HedgedClient`` + admission + policy sync.

    Admission control here is *load shedding*: when ``admission_limit``
    requests are already active on this shard, a new one is rejected
    immediately (``serve_one`` returns ``None``) instead of queueing on
    the client's semaphore. Shedding bounds both latency (admitted
    requests never wait behind a backlog) and memory; the fleet-level
    counters make the rejected traffic visible instead of silent.
    """

    alive = True

    def __init__(
        self,
        shard_id: int,
        client: HedgedClient,
        store: PolicyStore,
        admission_limit: int | None = None,
    ):
        if admission_limit is not None and admission_limit < 1:
            raise ValueError("admission_limit must be >= 1")
        self.shard_id = int(shard_id)
        self.client = client
        self.store = store
        self.admission_limit = (
            None if admission_limit is None else int(admission_limit)
        )
        self.load = 0
        self.peak_active = 0
        self.issued = 0
        self.shed = 0
        self.errors = 0
        self._seen_version = 0
        self._published_refits = 0

    @property
    def metrics(self) -> ServingMetrics:
        return self.client.metrics

    @property
    def completed(self) -> int:
        return self.client.metrics.completed

    @property
    def time_scale(self) -> float:
        return self.client.backend.time_scale

    def sync_policy(self) -> None:
        """Reconcile this shard with the fleet's :class:`PolicyStore`.

        A shard carrying an :class:`AutoTuner` is a *publisher*: any
        refit since the last sync is pushed to the store. Every other
        shard is a *subscriber*: a newer store version replaces the
        client's pinned policy. (Tuned shards never subscribe — their
        client already serves ``tuner.policy`` live.)
        """
        if self.client.tuner is not None:
            n_refits = self.client.tuner.n_refits
            if n_refits > self._published_refits:
                self._published_refits = n_refits
                self.store.publish(
                    self.client.tuner.policy,
                    source=f"shard{self.shard_id}:refit{n_refits}",
                )
            return
        version, policy = self.store.get()
        if policy is not None and version != self._seen_version:
            self.client.policy = policy
            self._seen_version = version

    async def serve_one(self, query_id: int) -> RequestOutcome | None:
        """Admit and serve one request, or shed it (returns ``None``).

        A request whose every attempt errored is counted here and the
        error re-raised, for a caller that reports it (the worker
        process does, over the wire); :meth:`submit` is the contained
        form.
        """
        self.sync_policy()
        self.issued += 1
        if self.admission_limit is not None and self.load >= self.admission_limit:
            self.shed += 1
            return None
        self.load += 1
        self.peak_active = max(self.peak_active, self.load)
        try:
            outcome = await self.client.request(query_id)
        except Exception:
            self.errors += 1
            raise
        finally:
            self.load -= 1
        # A refit may have landed during this request; publish promptly
        # so sibling shards adopt before their next arrival.
        self.sync_policy()
        return outcome

    async def submit(self, query_id: int) -> RequestOutcome | None:
        try:
            return await self.serve_one(query_id)
        except Exception:
            # Counted by serve_one: a failing backend must degrade the
            # fleet, not crash its caller.
            return None

    def detail(self) -> dict:
        tuner = self.client.tuner
        return {
            "peak_active": self.peak_active,
            "pid": os.getpid(),
            "refits": 0 if tuner is None else tuner.n_refits,
            "store_version": self.store.version,
            "policy_spec": self.client.policy.to_spec(),
        }

    def close(self) -> None:
        """Nothing to release: client and tuner are the caller's."""


# ---------------------------------------------------------------------------
# The fleet
# ---------------------------------------------------------------------------


class ServingFleet:
    """N shards behind a pluggable front-door router.

    Parameters
    ----------
    shards:
        One :class:`Shard` per entry. A bare :class:`HedgedClient`
        (each with its own backend, metrics, and RNG stream) is wrapped
        in an in-loop :class:`ShardWorker`. At most one client should
        carry a tuner; its refits are what the :class:`PolicyStore`
        propagates.
    selector:
        A :data:`SHARD_SELECTORS` name (``"hash"`` / ``"round-robin"`` /
        ``"least-loaded"``) or any object with
        ``select(shards, query_id, key)``.
    store:
        The shared :class:`PolicyStore` (default: a fresh one; seed it
        with the fleet's starting policy to pin all shards immediately).
    admission_limit:
        Active-request cap of each wrapped client's shard, above which
        arrivals are shed (default: never shed).
    """

    #: The shards share the caller's loop (else: the socket transport).
    transport = "loop"

    def __init__(
        self,
        shards: Sequence[Shard | HedgedClient],
        *,
        selector="round-robin",
        store: PolicyStore | None = None,
        admission_limit: int | None = None,
    ):
        shards = list(shards)
        if not shards:
            raise ValueError("a fleet needs at least one shard client")
        self.store = store if store is not None else PolicyStore()
        if isinstance(selector, str):
            self.selector_name = selector
            self.selector = make_selector(selector)
        else:
            self.selector_name = type(selector).__name__
            self.selector = selector
        self.shards: list[Shard] = [
            ShardWorker(i, shard, self.store, admission_limit)
            if isinstance(shard, HedgedClient)
            else shard
            for i, shard in enumerate(shards)
        ]
        self.requests = 0
        #: Arrivals shed at the door because no shard was alive.
        self.shed_unrouted = 0

    @classmethod
    def build(
        cls,
        n_shards: int,
        backend_factory: Callable[[int, np.random.Generator], object],
        *,
        policy: ReissuePolicy | None = None,
        selector="round-robin",
        admission_limit: int | None = None,
        concurrency: int = 64,
        deadline_ms: float | None = None,
        probe_fraction: float = 0.0,
        tuner=None,
        tuned_shard: int = 0,
        seed: int = 0,
    ) -> "ServingFleet":
        """Construct a fleet of ``n_shards`` identical-shaped shards.

        ``backend_factory(shard_id, rng)`` builds each shard's backend;
        each shard gets independent backend/client RNG streams spawned
        from ``seed``. A ``tuner`` (at most one) is attached to
        ``tuned_shard``; the scenario ``policy`` seeds the shared store
        so every untuned shard starts aligned.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if tuner is not None and not 0 <= tuned_shard < n_shards:
            raise ValueError(
                f"tuned_shard {tuned_shard} out of range for "
                f"{n_shards} shard(s)"
            )
        streams = np.random.SeedSequence(seed).spawn(2 * n_shards)
        clients = []
        for i in range(n_shards):
            backend = backend_factory(i, np.random.default_rng(streams[2 * i]))
            shard_tuner = tuner if (tuner is not None and i == tuned_shard) else None
            clients.append(
                HedgedClient(
                    backend,
                    None if shard_tuner is not None else policy,
                    concurrency=concurrency,
                    deadline_ms=deadline_ms,
                    probe_fraction=probe_fraction,
                    tuner=shard_tuner,
                    rng=np.random.default_rng(streams[2 * i + 1]),
                )
            )
        return cls(
            clients,
            selector=selector,
            store=PolicyStore(policy),
            admission_limit=admission_limit,
        )

    # -- properties ----------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def time_scale(self) -> float:
        """The fleet's wall-per-model-ms factor (shard 0's backend)."""
        return self.shards[0].time_scale

    @property
    def shed_total(self) -> int:
        return self.shed_unrouted + sum(s.shed for s in self.shards)

    @property
    def errors(self) -> int:
        return sum(s.errors for s in self.shards)

    # -- the front door ------------------------------------------------------
    async def request(self, query_id: int, key=None) -> RequestOutcome | None:
        """Route one request to a live shard and serve it.

        Returns ``None`` when it was shed (admission, no live shard, or
        a worker died with it in flight) or every attempt of it errored
        — shard failure is counted, never raised to the caller.
        """
        self.requests += 1
        live = self.shards
        for shard in live:
            if not shard.alive:
                live = [s for s in live if s.alive]
                if not live:
                    self.shed_unrouted += 1
                    return None
                break
        shard = live[self.selector.select(live, query_id, key)]
        tracer = get_tracer()
        if not tracer.enabled:
            return await shard.submit(query_id)
        with tracer.span(
            "fleet.request",
            query_id=query_id,
            shard=shard.shard_id,
            transport=self.transport,
        ) as span:
            outcome = await shard.submit(query_id)
            span.attrs["ok"] = outcome is not None
            return outcome

    # -- fleet-wide telemetry ------------------------------------------------
    def metrics(self) -> ServingMetrics:
        """Merged cross-shard telemetry (counters exact, digest within
        the documented sketch tolerance). Always a fresh object — the
        live per-shard metrics are never mutated."""
        merged = ServingMetrics()
        for shard in self.shards:
            merged = merged.merge(shard.metrics)
        return merged

    def stats(self) -> dict:
        """The fleet's accounting: totals plus per-shard breakdown."""
        per_shard = []
        for shard in self.shards:
            # detail() first: asking a worker process that has died is
            # what flips its ``alive``.
            detail = shard.detail()
            metrics = shard.metrics
            per_shard.append(
                {
                    "shard": shard.shard_id,
                    "issued": shard.issued,
                    "accepted": shard.issued - shard.shed,
                    "completed": shard.completed,
                    "shed": shard.shed,
                    "errors": shard.errors,
                    "alive": shard.alive,
                    "reissue_rate": round(metrics.reissue_rate, 4),
                    "deadline_misses": metrics.deadline_exceeded,
                    "p99_ms": (
                        round(metrics.quantile(0.99), 3)
                        if metrics.completed
                        else None
                    ),
                    **detail,
                }
            )
        return {
            "shards": self.n_shards,
            "selector": self.selector_name,
            "transport": self.transport,
            "requests": self.requests,
            "completed": sum(s.completed for s in self.shards),
            "shed": self.shed_total,
            "shed_unrouted": self.shed_unrouted,
            "errors": self.errors,
            "policy_version": self.store.version,
            "per_shard": per_shard,
        }

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Close every shard (idempotent)."""
        for shard in self.shards:
            shard.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
