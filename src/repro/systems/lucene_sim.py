"""The Lucene search system under test (paper §6.3).

Combines the :mod:`search_engine` substrate with the discrete-event
cluster using Lucene's service discipline: requests from all open
connections share a **single FIFO queue** per server — the arrangement the
paper credits for Lucene's comparatively benign baseline tail (FIFO is
near-optimal for light-tailed service times).

:class:`LuceneClusterSystem` implements
:class:`repro.core.interfaces.SystemUnderTest`.
"""

from __future__ import annotations

import numpy as np

from ..core.interfaces import RunResult
from ..core.policies import ReissuePolicy
from ..distributions.base import RngLike, as_rng
from ..simulation.arrivals import PoissonArrivals, arrival_rate_for_utilization
from ..simulation.engine import ClusterConfig, simulate_cluster
from .search_engine import SearchCorpusConfig, SearchWorkload


class LuceneClusterSystem:
    """Ten replicated search servers executing the query trace.

    Parameters
    ----------
    utilization:
        Target baseline (no-reissue) utilization; the Poisson arrival rate
        comes from the workload's closed-form mean service time.
    n_queries:
        Trace length. The paper samples from a pool of 10 000 distinct
        benchmark queries; we draw fresh queries from the calibrated query
        model, which is the same population the pool was sampled from.
    corpus:
        Corpus/query-model parameters (defaults calibrated to the paper's
        measured service-time moments).
    """

    def __init__(
        self,
        utilization: float = 0.4,
        n_queries: int = 40_000,
        n_servers: int = 10,
        corpus: SearchCorpusConfig | None = None,
        trace_seed: int | None = 1,
        warmup_fraction: float = 0.05,
    ):
        if not 0.0 < utilization < 1.0:
            raise ValueError("utilization must be in (0, 1)")
        self.utilization = float(utilization)
        self.n_queries = int(n_queries)
        self.n_servers = int(n_servers)
        self.workload = SearchWorkload(corpus)
        if trace_seed is not None:
            # Fixed query trace, mirroring the paper's fixed benchmark pool.
            self.workload.freeze_trace(self.n_queries, as_rng(trace_seed))
        rate = arrival_rate_for_utilization(
            self.utilization, self.n_servers, self.workload.mean_service()
        )
        self._config = ClusterConfig(
            arrivals=PoissonArrivals(rate),
            service_model=self.workload,
            n_queries=self.n_queries,
            n_servers=self.n_servers,
            discipline="fifo",
            balancer="random",
            warmup_fraction=warmup_fraction,
        )

    def run(self, policy: ReissuePolicy, rng: RngLike = None) -> RunResult:
        """Execute the trace under ``policy``; times are milliseconds."""
        result = simulate_cluster(self._config, policy, as_rng(rng))
        result.meta["system"] = "lucene-search"
        result.meta["target_utilization"] = self.utilization
        return result

    def service_time_sample(self, n: int = 40_000, rng: RngLike = None) -> np.ndarray:
        """Pure service times (no queueing) — the fig9 histogram input."""
        return self.workload.sample_primary(n, as_rng(rng))
