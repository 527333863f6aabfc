"""Static 2-D orthogonal range counting (test oracle).

Section 4.2 estimates the conditional CDF ``Pr(Y < t - d | X > t)`` from a
log of (primary, reissue) response-time pairs using an orthogonal range
query structure. This is a merge-sort-tree implementation: O(N log N)
construction, O(log^2 N) per arbitrary query. The fitter in
:mod:`repro.core.correlated` queries monotonically and keeps incremental
counts instead, so the tree is only the random-access estimator its tests
check it against (:mod:`oracles.correlated`).
"""

from __future__ import annotations

import numpy as np


class MergeSortTree:
    """Counts points with ``x in [x_lo, x_hi)`` and ``y < y_hi``.

    A segment tree over points sorted by x; each node stores the sorted
    y-values of its range. Queries binary-search the O(log N) covering
    nodes.
    """

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be equal-length 1-D arrays")
        if xs.size == 0:
            raise ValueError("need at least one point")
        order = np.argsort(xs, kind="stable")
        self._x = xs[order]
        self._y = ys[order]
        self._n = xs.size
        # Iterative bottom-up segment tree: size 2*m with m = next pow2 >= n.
        m = 1
        while m < self._n:
            m <<= 1
        self._m = m
        self._nodes: list[np.ndarray] = [np.empty(0)] * (2 * m)
        empty = np.empty(0, dtype=np.float64)
        for i in range(self._n):
            self._nodes[m + i] = self._y[i : i + 1]
        for i in range(self._n, m):
            self._nodes[m + i] = empty
        for i in range(m - 1, 0, -1):
            left, right = self._nodes[2 * i], self._nodes[2 * i + 1]
            if left.size == 0:
                self._nodes[i] = right
            elif right.size == 0:
                self._nodes[i] = left
            else:
                merged = np.concatenate([left, right])
                merged.sort(kind="stable")
                self._nodes[i] = merged

    def __len__(self) -> int:
        return self._n

    def count_x_below(self, x_hi: float) -> int:
        """Points with ``x < x_hi`` (1-D helper)."""
        return int(np.searchsorted(self._x, x_hi, side="left"))

    def count(self, x_lo_idx: int, x_hi_idx: int, y_hi: float) -> int:
        """Points with x-rank in ``[x_lo_idx, x_hi_idx)`` and ``y < y_hi``."""
        if x_hi_idx <= x_lo_idx:
            return 0
        lo = x_lo_idx + self._m
        hi = x_hi_idx + self._m
        total = 0
        nodes = self._nodes
        while lo < hi:
            if lo & 1:
                total += int(np.searchsorted(nodes[lo], y_hi, side="left"))
                lo += 1
            if hi & 1:
                hi -= 1
                total += int(np.searchsorted(nodes[hi], y_hi, side="left"))
            lo >>= 1
            hi >>= 1
        return total

    def count_dominance(self, x_gt: float, y_lt: float) -> int:
        """Points with ``x > x_gt`` and ``y < y_lt`` — the §4.2 query."""
        # First x-rank strictly greater than x_gt:
        lo = int(np.searchsorted(self._x, x_gt, side="right"))
        return self.count(lo, self._n, y_lt)

    def count_x_above(self, x_gt: float) -> int:
        """Points with ``x > x_gt``."""
        return self._n - int(np.searchsorted(self._x, x_gt, side="right"))
