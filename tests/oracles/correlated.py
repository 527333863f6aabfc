"""Random-access conditional reissue CDF (test oracle for §4.2)."""

from oracles.range2d import MergeSortTree


class ConditionalReissueCdf:
    """Estimator of ``Pr(Y < y | X > t)`` from paired samples.

    Both inequalities are strict, as in the paper's ``DiscreteCDF``: a
    pair with ``Y == y`` or ``X == t`` is not counted. Random access in
    O(log^2 N) on a merge-sort tree; the production fitter
    (:func:`repro.core.correlated.compute_optimal_singler_correlated`)
    has a monotone access pattern and keeps incremental counts instead.
    """

    def __init__(self, pair_x, pair_y):
        self._tree = MergeSortTree(pair_x, pair_y)

    def __call__(self, t: float, y: float) -> float:
        above = self._tree.count_x_above(t)
        if above == 0:
            return 0.0
        return self._tree.count_dominance(t, y) / above
