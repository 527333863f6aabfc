"""Shared interfaces between the policy optimizers and systems under test.

The adaptive optimizer (§4.3) and the budget search (§4.4) are oblivious to
what the "system" is — a discrete-event cluster simulation, the Redis
substrate, the Lucene substrate, or (in the original paper) a real
deployment. Anything implementing :class:`SystemUnderTest` plugs in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from ..distributions.base import RngLike
from .policies import ReissuePolicy


def remediation_rate(
    pair_x: np.ndarray, pair_y: np.ndarray, tail_target: float, delay: float
) -> float:
    """``Pr(X > t  and  Y < t - d)`` over a paired reissue log (§5.1).

    The average value of an added reissue request: the fraction of
    dispatched reissues that were both needed (primary missed ``t``) and
    useful (reissue answered before ``t``). Shared by
    :meth:`RunResult.remediation_rate` and the fig3 render, which works
    from summarized pair arrays rather than a full ``RunResult``.
    """
    if pair_x.size == 0:
        return 0.0
    needed = pair_x > tail_target
    useful = pair_y < tail_target - delay
    return float(np.mean(needed & useful))


@dataclass
class RunResult:
    """Observables from executing a workload under a reissue policy.

    Attributes
    ----------
    latencies:
        Per-query response time (primary dispatch to *first* response).
    primary_response_times:
        Response time of every primary request (dispatch to its own
        completion) — the ``RX`` log of Figure 1.
    reissue_pair_x, reissue_pair_y:
        For each query that actually dispatched a reissue: the primary's
        response time and the reissue's response time measured from the
        reissue's own dispatch — the paired log of §4.2 (``RY`` plus the
        correlation structure).
    reissue_rate:
        Dispatched reissues / queries (the empirical budget).
    utilization:
        Measured busy fraction of the serving resources (0 when the system
        has no queueing component, e.g. the infinite-server workloads).
    """

    latencies: np.ndarray
    primary_response_times: np.ndarray
    reissue_pair_x: np.ndarray
    reissue_pair_y: np.ndarray
    reissue_rate: float
    utilization: float = 0.0
    meta: dict = field(default_factory=dict)

    def tail(self, percentile: float) -> float:
        """k-th percentile of query latency, ``percentile`` in (0, 1).

        Raises a named :class:`ValueError` on an empty latency log —
        numpy's quantile error would not say *which* run produced no
        samples (a warmup window larger than the trace, a serving stream
        that served zero requests, ...).
        """
        if self.latencies.size == 0:
            label = (
                self.meta.get("scenario")
                or self.meta.get("system")
                or self.meta.get("key")
                or "run"
            )
            raise ValueError(
                f"cannot compute the P{100 * percentile:g} tail of "
                f"{label!r}: the run recorded no query latencies "
                "(n_queries=0, or every query fell in the warmup window)"
            )
        return float(
            np.quantile(self.latencies, percentile, method="higher")
        )

    @property
    def n_queries(self) -> int:
        return int(self.latencies.size)

    def remediation_rate(self, tail_target: float, delay: float) -> float:
        """``Pr(X > t  and  Y < t - d)`` over *issued* reissues (§5.1)."""
        return remediation_rate(
            self.reissue_pair_x, self.reissue_pair_y, tail_target, delay
        )


@runtime_checkable
class SystemUnderTest(Protocol):
    """A workload executor: run a policy, return observed response times."""

    def run(self, policy: ReissuePolicy, rng: RngLike = None) -> RunResult:
        """Execute the workload once under ``policy``."""
        ...
