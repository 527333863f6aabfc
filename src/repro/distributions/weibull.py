"""Weibull service-time distribution.

Not used by a specific paper figure, but included because Weibull spans the
light-to-heavy tail spectrum (shape > 1 lighter than exponential, shape < 1
heavier) and is a standard sensitivity axis for reissue-policy studies.
"""

from __future__ import annotations

import numpy as np

from .base import Distribution, RngLike, as_rng, validate_positive


class Weibull(Distribution):
    """Weibull with shape ``k`` and scale ``lam``.

    ``Pr(X > x) = exp(-(x/lam)^k)``.
    """

    def __init__(self, shape: float, scale: float = 1.0):
        self.shape = validate_positive("shape", shape)
        self.scale = validate_positive("scale", scale)

    def sample(self, n: int, rng: RngLike = None) -> np.ndarray:
        rng = as_rng(rng)
        return self.scale * rng.weibull(self.shape, size=n)

    def mean(self) -> float:
        # Lazy: importing serving or the CLI must load no scipy.
        from scipy.special import gamma as gamma_fn

        return float(self.scale * gamma_fn(1.0 + 1.0 / self.shape))

    def variance(self) -> float:
        from scipy.special import gamma as gamma_fn

        g1 = gamma_fn(1.0 + 1.0 / self.shape)
        g2 = gamma_fn(1.0 + 2.0 / self.shape)
        return float(self.scale**2 * (g2 - g1**2))

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = -np.expm1(-np.power(x[pos] / self.scale, self.shape))
        return out

    def quantile(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        if np.any((p < 0.0) | (p > 1.0)):
            raise ValueError("quantile probabilities must be in [0, 1]")
        with np.errstate(divide="ignore"):
            return self.scale * np.power(-np.log1p(-p), 1.0 / self.shape)
