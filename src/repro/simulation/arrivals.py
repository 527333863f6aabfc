"""Open-loop arrival processes.

The paper's clients send requests in an open loop with exponential
inter-arrival times (Poisson process) — arrivals never slow down because
the system is backed up, which is exactly what makes overload from
reissuing dangerous. A run's load is set by its arrival rate:
:func:`arrival_rate_for_utilization` picks the rate for a target
baseline (no-reissue) utilization.
"""

from __future__ import annotations

import numpy as np

from ..distributions.base import RngLike, as_rng


def arrival_rate_for_utilization(
    utilization: float, n_servers: int, mean_service: float
) -> float:
    """Arrival rate giving baseline ``utilization`` on ``n_servers``:
    ``rho = lambda * E[S] / n_servers`` for an open-loop M/G/k cluster."""
    if not 0.0 < utilization < 1.0:
        raise ValueError("utilization must be in (0, 1)")
    if n_servers < 1:
        raise ValueError("n_servers must be >= 1")
    if not mean_service > 0.0:
        raise ValueError("mean_service must be > 0")
    return utilization * n_servers / mean_service


class ArrivalProcess:
    """Interface: generate ``n`` arrival timestamps (sorted, >= 0)."""

    def generate(self, n: int, rng: RngLike = None) -> np.ndarray:
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson process with ``rate`` arrivals per time unit."""

    def __init__(self, rate: float):
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)

    def generate(self, n: int, rng: RngLike = None) -> np.ndarray:
        rng = as_rng(rng)
        gaps = rng.exponential(1.0 / self.rate, size=n)
        return np.cumsum(gaps)


class DeterministicArrivals(ArrivalProcess):
    """Evenly spaced arrivals (useful as a low-variance test fixture)."""

    def __init__(self, rate: float):
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)

    def generate(self, n: int, rng: RngLike = None) -> np.ndarray:
        gap = 1.0 / self.rate
        return gap * np.arange(1, n + 1, dtype=np.float64)


class BurstyArrivals(ArrivalProcess):
    """Markov-modulated Poisson: alternates calm and burst phases.

    A stress fixture beyond the paper's Poisson assumption, used in the
    robustness tests: ``burst_factor``x rate during bursts.
    """

    def __init__(
        self,
        rate: float,
        burst_factor: float = 5.0,
        mean_phase: float = 50.0,
        burst_fraction: float = 0.2,
    ):
        if rate <= 0.0 or burst_factor < 1.0:
            raise ValueError("need rate > 0 and burst_factor >= 1")
        if not 0.0 < burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")
        self.rate = float(rate)
        self.burst_factor = float(burst_factor)
        self.mean_phase = float(mean_phase)
        self.burst_fraction = float(burst_fraction)

    def generate(self, n: int, rng: RngLike = None) -> np.ndarray:
        rng = as_rng(rng)
        # Phase-dependent rates chosen so the long-run average rate matches.
        calm_rate = self.rate * (1.0 - self.burst_fraction * self.burst_factor) / (
            1.0 - self.burst_fraction
        )
        calm_rate = max(calm_rate, 0.05 * self.rate)
        burst_rate = self.rate * self.burst_factor
        out = np.empty(n, dtype=np.float64)
        t = 0.0
        i = 0
        in_burst = False
        while i < n:
            phase_mean = (
                self.mean_phase * self.burst_fraction
                if in_burst
                else self.mean_phase * (1.0 - self.burst_fraction)
            )
            phase_end = t + rng.exponential(phase_mean)
            rate = burst_rate if in_burst else calm_rate
            while i < n:
                t += rng.exponential(1.0 / rate)
                if t > phase_end:
                    t = phase_end
                    break
                out[i] = t
                i += 1
            in_burst = not in_burst
        return out


class TraceArrivals(ArrivalProcess):
    """Replay a recorded arrival-timestamp trace."""

    def __init__(self, timestamps):
        ts = np.asarray(timestamps, dtype=np.float64)
        if ts.ndim != 1 or ts.size == 0:
            raise ValueError("timestamps must be a non-empty 1-D array")
        if np.any(np.diff(ts) < 0):
            raise ValueError("timestamps must be non-decreasing")
        self._ts = ts

    def generate(self, n: int, rng: RngLike = None) -> np.ndarray:
        if n > self._ts.size:
            raise ValueError(
                f"trace has {self._ts.size} arrivals, {n} requested"
            )
        return self._ts[:n].copy()
