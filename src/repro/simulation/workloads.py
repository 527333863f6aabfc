"""The paper's three workload models (Section 5.1) as systems under test.

* **Independent** — primary and reissue service times i.i.d., infinite
  servers (no queueing): solved in closed vectorized form.
* **Correlated** — reissue service time ``Y = r*x + Z``, infinite servers.
* **Queueing** — correlated service times, Poisson arrivals, N servers
  with pluggable queue disciplines and load balancing: the discrete-event
  engine.

All three implement :class:`repro.core.interfaces.SystemUnderTest`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.interfaces import RunResult
from ..core.policies import ReissuePolicy
from ..distributions import Pareto
from ..distributions.base import Distribution, RngLike, as_rng
from .arrivals import (
    ArrivalProcess,
    PoissonArrivals,
    arrival_rate_for_utilization,
)
from .engine import ClusterConfig, simulate_cluster
from .load_balancer import LoadBalancer


@dataclass
class ServiceModel:
    """Primary service-time distribution plus reissue correlation.

    Reissue copies take ``Y = correlation * x + Z`` where ``x`` is the
    query's primary service time and ``Z`` is an independent draw from
    ``base`` (§5.1). ``correlation = 0`` gives i.i.d. reissue times.
    """

    base: Distribution
    correlation: float = 0.0

    def __post_init__(self):
        if self.correlation < 0.0:
            raise ValueError("correlation must be >= 0")

    def sample_primary(self, n: int, rng: RngLike = None) -> np.ndarray:
        return self.base.sample(n, as_rng(rng))

    def sample_reissue(self, x, rng: RngLike = None) -> np.ndarray:
        rng = as_rng(rng)
        x = np.asarray(x, dtype=np.float64)
        z = self.base.sample(x.size, rng)
        if self.correlation == 0.0:
            return z
        return self.correlation * x + z

    def mean_service(self) -> float:
        return self.base.mean()


class InfiniteServerSystem:
    """No-queueing workload executor (Independent/Correlated models).

    Response time equals service time, so query latency under a policy is
    computed vectorized: each issued reissue stage can only fire if the
    query is still incomplete at its delay, and the query completes at the
    earliest response among all issued copies.
    """

    def __init__(self, service_model: ServiceModel, n_queries: int = 50_000):
        if n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        self.service_model = service_model
        self.n_queries = int(n_queries)

    def run(self, policy: ReissuePolicy, rng: RngLike = None) -> RunResult:
        rng = as_rng(rng)
        n = self.n_queries
        x = self.service_model.sample_primary(n, rng)
        completion = x.copy()

        pair_x_parts: list[np.ndarray] = []
        pair_y_parts: list[np.ndarray] = []
        n_reissued = 0
        for d, q in policy.stages:
            coins = rng.random(n) < q if q < 1.0 else np.ones(n, dtype=bool)
            issued = coins & (completion > d)
            m = int(issued.sum())
            n_reissued += m
            if m == 0:
                continue
            y = self.service_model.sample_reissue(x[issued], rng)
            completion[issued] = np.minimum(completion[issued], d + y)
            pair_x_parts.append(x[issued])
            pair_y_parts.append(y)

        pair_x = (
            np.concatenate(pair_x_parts) if pair_x_parts else np.empty(0)
        )
        pair_y = (
            np.concatenate(pair_y_parts) if pair_y_parts else np.empty(0)
        )
        return RunResult(
            latencies=completion,
            primary_response_times=x,
            reissue_pair_x=pair_x,
            reissue_pair_y=pair_y,
            reissue_rate=n_reissued / n,
            utilization=0.0,
            meta={"model": "infinite-server"},
        )


class QueueingSystem:
    """The §5.1 Queueing workload: Poisson arrivals into N queued servers."""

    def __init__(
        self,
        service_model: ServiceModel,
        utilization: float = 0.3,
        n_servers: int = 10,
        n_queries: int = 20_000,
        discipline: str = "fifo",
        balancer: str | LoadBalancer = "random",
        warmup_fraction: float = 0.05,
        arrivals: ArrivalProcess | None = None,
    ):
        if not 0.0 < utilization < 1.0:
            raise ValueError("utilization must be in (0, 1)")
        self.service_model = service_model
        self.utilization = float(utilization)
        self.n_servers = int(n_servers)
        self.n_queries = int(n_queries)
        self.config = ClusterConfig(
            arrivals=arrivals,
            service_model=service_model,
            n_queries=self.n_queries,
            n_servers=self.n_servers,
            discipline=discipline,
            balancer=balancer,
            warmup_fraction=warmup_fraction,
            target_utilization=None if arrivals is not None else utilization,
        )

    def run(self, policy: ReissuePolicy, rng: RngLike = None) -> RunResult:
        return simulate_cluster(self.config, policy, rng)

    @property
    def batch_config(self) -> ClusterConfig:
        """The replication config ``run`` executes: a
        :class:`~repro.fastsim.ReplicationSpec` built on it reproduces
        ``run`` bit for bit."""
        return self.config


# -- paper-default factories -------------------------------------------------

PAPER_PARETO = dict(shape=1.1, mode=2.0)


def independent_workload(
    n_queries: int = 50_000, base: Distribution | None = None
) -> InfiniteServerSystem:
    """§5.1 Independent workload: Pareto(1.1, 2), i.i.d. reissues."""
    return InfiniteServerSystem(
        ServiceModel(base or Pareto(**PAPER_PARETO), correlation=0.0), n_queries
    )


def correlated_workload(
    n_queries: int = 50_000,
    ratio: float = 0.5,
    base: Distribution | None = None,
) -> InfiniteServerSystem:
    """§5.1 Correlated workload: ``Y = r x + Z`` with r=0.5 by default."""
    return InfiniteServerSystem(
        ServiceModel(base or Pareto(**PAPER_PARETO), correlation=ratio), n_queries
    )


def queueing_workload(
    n_queries: int = 20_000,
    utilization: float = 0.3,
    ratio: float = 0.5,
    n_servers: int = 10,
    discipline: str = "fifo",
    balancer: str | LoadBalancer = "random",
    base: Distribution | None = None,
) -> QueueingSystem:
    """§5.1 Queueing workload: Pareto(1.1, 2), 10 servers, 30% utilization.

    The sensitivity study (§5.4) uses this with ``ratio=0`` and different
    ``base`` distributions / balancers / disciplines.
    """
    return QueueingSystem(
        ServiceModel(base or Pareto(**PAPER_PARETO), correlation=ratio),
        utilization=utilization,
        n_servers=n_servers,
        n_queries=n_queries,
        discipline=discipline,
        balancer=balancer,
    )
