"""Discrete-event cluster simulator and workload models (paper §5)."""

from .arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DeterministicArrivals,
    PoissonArrivals,
    TraceArrivals,
    arrival_rate_for_utilization,
)
from .engine import ClusterConfig, simulate_cluster, simulate_cluster_reference
from .events import ARRIVAL, DEPARTURE, REISSUE_CHECK, EventQueue
from .load_balancer import (
    JsqBalancer,
    LoadBalancer,
    MinOfAllBalancer,
    RandomBalancer,
    RoundRobinBalancer,
    make_balancer,
)
from .metrics import (
    LatencySummary,
    inverse_cdf_series,
    reduction_ratio,
)
from .queues import (
    FifoQueue,
    PrioritizedFifoQueue,
    PrioritizedLifoQueue,
    QueueDiscipline,
    make_discipline,
)
from .server import Request, Server
from .workloads import (
    InfiniteServerSystem,
    QueueingSystem,
    ServiceModel,
    correlated_workload,
    independent_workload,
    queueing_workload,
)

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "BurstyArrivals",
    "TraceArrivals",
    "arrival_rate_for_utilization",
    "ClusterConfig",
    "simulate_cluster",
    "simulate_cluster_reference",
    "EventQueue",
    "ARRIVAL",
    "REISSUE_CHECK",
    "DEPARTURE",
    "LoadBalancer",
    "RandomBalancer",
    "JsqBalancer",
    "MinOfAllBalancer",
    "RoundRobinBalancer",
    "make_balancer",
    "LatencySummary",
    "reduction_ratio",
    "inverse_cdf_series",
    "QueueDiscipline",
    "FifoQueue",
    "PrioritizedFifoQueue",
    "PrioritizedLifoQueue",
    "make_discipline",
    "Request",
    "Server",
    "ServiceModel",
    "InfiniteServerSystem",
    "QueueingSystem",
    "independent_workload",
    "correlated_workload",
    "queueing_workload",
]
