"""Latency metrics and run summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.interfaces import RunResult
from ..distributions.empirical import tail_percentile


@dataclass(frozen=True)
class LatencySummary:
    """Standard percentile digest of one run."""

    n: int
    mean: float
    p50: float
    p95: float
    p99: float
    p999: float
    max: float
    reissue_rate: float
    utilization: float

    @classmethod
    def from_run(cls, run: RunResult) -> "LatencySummary":
        lat = np.asarray(run.latencies, dtype=np.float64)
        return cls(
            n=lat.size,
            mean=float(lat.mean()),
            p50=tail_percentile(lat, 50.0),
            p95=tail_percentile(lat, 95.0),
            p99=tail_percentile(lat, 99.0),
            p999=tail_percentile(lat, 99.9),
            max=float(lat.max()),
            reissue_rate=run.reissue_rate,
            utilization=run.utilization,
        )

    def row(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.2f} p50={self.p50:.2f} "
            f"p95={self.p95:.2f} p99={self.p99:.2f} p999={self.p999:.2f} "
            f"reissue={self.reissue_rate:.3f} util={self.utilization:.3f}"
        )


def reduction_ratio(baseline_tail: float, policy_tail: float) -> float:
    """Paper's "latency reduction ratio": baseline / achieved (>1 is a win)."""
    if policy_tail <= 0.0:
        return float("inf")
    return baseline_tail / policy_tail


def inverse_cdf_series(samples, probs) -> np.ndarray:
    """Quantiles of ``samples`` at each probability (for Fig. 2a curves)."""
    samples = np.asarray(samples, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    return np.quantile(samples, probs, method="higher")
