"""LogNormal service-time distribution (used in the Fig. 6 sensitivity study)."""

from __future__ import annotations

import numpy as np

from .base import Distribution, RngLike, as_rng, validate_positive

_SQRT2 = float(np.sqrt(2.0))


class LogNormal(Distribution):
    """LogNormal with log-space mean ``mu`` and log-space std ``sigma``.

    ``LogNormal(1, 1)`` is the Fig. 6 sensitivity-study distribution.
    """

    def __init__(self, mu: float = 1.0, sigma: float = 1.0):
        self.mu = float(mu)
        self.sigma = validate_positive("sigma", sigma)

    def sample(self, n: int, rng: RngLike = None) -> np.ndarray:
        rng = as_rng(rng)
        return rng.lognormal(self.mu, self.sigma, size=n)

    def mean(self) -> float:
        return float(np.exp(self.mu + 0.5 * self.sigma**2))

    def variance(self) -> float:
        s2 = self.sigma**2
        return float((np.exp(s2) - 1.0) * np.exp(2.0 * self.mu + s2))

    def cdf(self, x) -> np.ndarray:
        # Lazy: importing serving or the CLI must load no scipy.
        from scipy.special import erf

        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        pos = x > 0.0
        z = (np.log(x[pos]) - self.mu) / (self.sigma * _SQRT2)
        out[pos] = 0.5 * (1.0 + erf(z))
        return out

    def quantile(self, p) -> np.ndarray:
        # Lazy: importing serving or the CLI must load no scipy.
        from scipy.special import erfinv

        p = np.asarray(p, dtype=np.float64)
        if np.any((p < 0.0) | (p > 1.0)):
            raise ValueError("quantile probabilities must be in [0, 1]")
        return np.exp(self.mu + self.sigma * _SQRT2 * erfinv(2.0 * p - 1.0))
