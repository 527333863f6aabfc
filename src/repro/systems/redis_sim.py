"""The Redis set-intersection system under test (paper §6.2).

Combines the :mod:`setstore` substrate with the discrete-event cluster and
Redis's service discipline. The two mechanisms the paper identifies as
driving Redis's tail are both reproduced:

1. **Queries of death** — rare intersections of two huge sets (the heavy
   lognormal cardinality tail) with service times two orders of magnitude
   above the mean.
2. **Round-robin head-of-line blocking** — Redis's single-threaded event
   loop serves one command per client connection per cycle, so a
   long-running command stalls every connection on that server, and in an
   open-loop workload the backlog persists for multiple rounds.

:class:`RedisClusterSystem` implements
:class:`repro.core.interfaces.SystemUnderTest`: the adaptive optimizer and
budget search drive it exactly as they would a live deployment.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.interfaces import RunResult
from ..core.policies import ReissuePolicy
from ..distributions.base import RngLike, as_rng
from ..simulation.arrivals import PoissonArrivals, arrival_rate_for_utilization
from ..simulation.engine import ClusterConfig, simulate_cluster
from ..simulation.queues import QueueDiscipline
from .setstore import SetCorpusConfig, SetIntersectionWorkload, SetStore


class RoundRobinConnectionQueue(QueueDiscipline):
    """Redis's event-loop service order: one command per connection, cycling.

    Requests are bucketed into per-connection FIFO queues by a hash of the
    query id (primaries and reissues of the same query come from different
    client sockets, so they hash to different connections). ``pop`` serves
    the next non-empty connection in cyclic order — a batch round-robin,
    matching "requests are serviced in a round-robin fashion from each
    active client connection" (§6.2).
    """

    #: Multiplier decorrelating reissue connections from primary ones.
    _REISSUE_SALT = 7919

    def __init__(self, n_connections: int = 16):
        if n_connections < 1:
            raise ValueError("n_connections must be >= 1")
        self.n_connections = int(n_connections)
        self._queues: list[deque] = [deque() for _ in range(self.n_connections)]
        self._cursor = 0
        self._size = 0

    def _connection_of(self, request) -> int:
        qid = request.query_id
        if getattr(request, "is_reissue", False):
            qid = qid * self._REISSUE_SALT + 13
        return qid % self.n_connections

    def push(self, request) -> None:
        self._queues[self._connection_of(request)].append(request)
        self._size += 1

    def pop(self):
        if self._size == 0:
            return None
        for step in range(self.n_connections):
            conn = (self._cursor + step) % self.n_connections
            if self._queues[conn]:
                self._cursor = (conn + 1) % self.n_connections
                self._size -= 1
                return self._queues[conn].popleft()
        raise AssertionError("size bookkeeping out of sync")  # pragma: no cover

    def __len__(self) -> int:
        return self._size


class RedisClusterSystem:
    """Ten replicated Redis servers executing the set-intersection trace.

    Parameters
    ----------
    utilization:
        Target baseline (no-reissue) CPU utilization; the open-loop Poisson
        arrival rate is derived from the corpus's exact mean service time.
    n_queries:
        Trace length (paper: 40 000 intersections).
    n_servers, n_connections:
        Cluster width and client connections per server.
    corpus:
        Synthetic corpus parameters; defaults reproduce the paper's
        service-time profile (see fig9).
    corpus_seed:
        The corpus is built once per system instance with its own seed so
        that policy comparisons at different ``run`` seeds share the same
        stored data, as they would against one real deployment.
    materialize:
        Build real member arrays (needed by :meth:`execute_sample`);
        ``False`` keeps only cardinality-faithful stand-ins and is faster
        to construct.
    """

    def __init__(
        self,
        utilization: float = 0.4,
        n_queries: int = 40_000,
        n_servers: int = 10,
        n_connections: int = 16,
        corpus: SetCorpusConfig | None = None,
        corpus_seed: int = 2,
        trace_seed: int | None = 7,
        materialize: bool = False,
        warmup_fraction: float = 0.05,
    ):
        if not 0.0 < utilization < 1.0:
            raise ValueError("utilization must be in (0, 1)")
        self.utilization = float(utilization)
        self.n_queries = int(n_queries)
        self.n_servers = int(n_servers)
        self.n_connections = int(n_connections)
        self.store = SetStore.build_synthetic(
            corpus or SetCorpusConfig(),
            rng=as_rng(corpus_seed),
            materialize=materialize,
        )
        self.workload = SetIntersectionWorkload(self.store)
        if trace_seed is not None:
            # Fixed query trace, as in the paper's protocol: the queries of
            # death are pinned while arrivals / policy coins vary per run.
            self.workload.freeze_trace(self.n_queries, as_rng(trace_seed))
        rate = arrival_rate_for_utilization(
            self.utilization, self.n_servers, self.workload.mean_service()
        )
        self._config = ClusterConfig(
            arrivals=PoissonArrivals(rate),
            service_model=self.workload,
            n_queries=self.n_queries,
            n_servers=self.n_servers,
            discipline=lambda: RoundRobinConnectionQueue(self.n_connections),
            balancer="random",
            warmup_fraction=warmup_fraction,
        )

    def run(self, policy: ReissuePolicy, rng: RngLike = None) -> RunResult:
        """Execute the trace under ``policy``; times are milliseconds."""
        result = simulate_cluster(self._config, policy, as_rng(rng))
        result.meta["system"] = "redis-set-intersection"
        result.meta["target_utilization"] = self.utilization
        return result

    def service_time_sample(self, n: int = 40_000, rng: RngLike = None) -> np.ndarray:
        """Pure service times (no queueing) — the fig9 histogram input."""
        return self.workload.sample_primary(n, as_rng(rng))

    def execute_sample(self, n: int = 10, rng: RngLike = None) -> list[np.ndarray]:
        """Actually execute ``n`` random intersections (requires a
        materialized corpus); returns the result sets."""
        rng = as_rng(rng)
        pairs = self.workload.sample_pairs(n, rng)
        return [self.workload.execute(p) for p in pairs]
