"""A compact t-digest for mergeable quantile sketches.

Used by the serving and obs metric registries to merge per-process
latency sketches without shipping raw sample arrays between processes. This is the
merging-buffer variant (Dunning & Ertl) with the k1 scale function.
"""

from __future__ import annotations

import numpy as np


class TDigest:
    """Mergeable quantile sketch with bounded memory.

    ``compression`` controls accuracy/size: centroid count stays below
    ~2*compression. Quantile error is tightest in the tails, which is what
    tail-latency work needs.
    """

    def __init__(self, compression: float = 200.0):
        if compression < 20:
            raise ValueError("compression must be >= 20")
        self.compression = float(compression)
        self._means = np.empty(0, dtype=np.float64)
        self._weights = np.empty(0, dtype=np.float64)
        self._buf_means: list[float] = []
        self._buf_weights: list[float] = []
        self._buffer_cap = int(4 * compression)
        self._min = np.inf
        self._max = -np.inf

    # -- construction -----------------------------------------------------
    def add(self, x: float, w: float = 1.0) -> None:
        if w <= 0:
            raise ValueError("weight must be positive")
        self._buf_means.append(float(x))
        self._buf_weights.append(float(w))
        self._min = min(self._min, float(x))
        self._max = max(self._max, float(x))
        if len(self._buf_means) >= self._buffer_cap:
            self._flush()

    def add_batch(self, xs) -> None:
        xs = np.asarray(xs, dtype=np.float64)
        if xs.size:
            self._min = min(self._min, float(xs.min()))
            self._max = max(self._max, float(xs.max()))
        self._buf_means.extend(xs.tolist())
        self._buf_weights.extend([1.0] * xs.size)
        if len(self._buf_means) >= self._buffer_cap:
            self._flush()

    def merge(self, other: "TDigest") -> "TDigest":
        """Return a new digest containing this sketch plus ``other``."""
        out = TDigest(max(self.compression, other.compression))
        for src in (self, other):
            src._flush()
            out._buf_means.extend(src._means.tolist())
            out._buf_weights.extend(src._weights.tolist())
            out._min = min(out._min, src._min)
            out._max = max(out._max, src._max)
        out._flush()
        return out

    def _flush(self) -> None:
        if not self._buf_means and self._means.size:
            return
        means = np.concatenate(
            [self._means, np.asarray(self._buf_means, dtype=np.float64)]
        )
        weights = np.concatenate(
            [self._weights, np.asarray(self._buf_weights, dtype=np.float64)]
        )
        self._buf_means.clear()
        self._buf_weights.clear()
        if means.size == 0:
            return
        order = np.argsort(means, kind="stable")
        means, weights = means[order], weights[order]
        total = weights.sum()

        new_means: list[float] = []
        new_weights: list[float] = []
        acc_mean = means[0]
        acc_w = weights[0]
        w_so_far = 0.0
        k_limit = self._k_inv(self._k(w_so_far / total) + 1.0) * total
        for i in range(1, means.size):
            proposed = acc_w + weights[i]
            if w_so_far + proposed <= k_limit:
                acc_mean += (means[i] - acc_mean) * weights[i] / proposed
                acc_w = proposed
            else:
                new_means.append(acc_mean)
                new_weights.append(acc_w)
                w_so_far += acc_w
                k_limit = self._k_inv(self._k(w_so_far / total) + 1.0) * total
                acc_mean, acc_w = means[i], weights[i]
        new_means.append(acc_mean)
        new_weights.append(acc_w)
        self._means = np.asarray(new_means)
        self._weights = np.asarray(new_weights)

    def _k(self, q: float) -> float:
        # k1 scale function: delta/(2*pi) * asin(2q - 1)
        q = min(max(q, 0.0), 1.0)
        return self.compression / (2.0 * np.pi) * float(np.arcsin(2.0 * q - 1.0))

    def _k_inv(self, k: float) -> float:
        s = np.sin(k * 2.0 * np.pi / self.compression)
        return float((s + 1.0) / 2.0)

    # -- queries -----------------------------------------------------------
    @property
    def count(self) -> float:
        return float(self._weights.sum() + sum(self._buf_weights))

    def quantile(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self._flush()
        if self._means.size == 0:
            raise ValueError("empty digest")
        if p == 0.0:
            return float(self._min)
        if p == 1.0:
            return float(self._max)
        if self._means.size == 1:
            return float(self._means[0])
        w = self._weights
        total = w.sum()
        target = p * total
        # Cumulative weight at centroid centers.
        cum = np.cumsum(w) - w / 2.0
        if target <= cum[0]:
            return float(self._means[0])
        if target >= cum[-1]:
            return float(self._means[-1])
        idx = int(np.searchsorted(cum, target) - 1)
        frac = (target - cum[idx]) / (cum[idx + 1] - cum[idx])
        value = float(
            self._means[idx] + frac * (self._means[idx + 1] - self._means[idx])
        )
        # Centroid means are computed incrementally; catastrophic
        # cancellation can nudge an interpolated value just past the
        # observed extremes (e.g. exactly 0.0 from all-negative tiny
        # inputs). Quantiles must stay within the observed range.
        return float(min(max(value, self._min), self._max))

    def percentile(self, k: float) -> float:
        return self.quantile(k / 100.0)
