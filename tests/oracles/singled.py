"""Scalar data-driven SingleD fit (test oracle for §4.1's baseline).

The straightforward descent the production sweep
(:func:`repro.optimize.vectorized.compute_optimal_singled_chunked`)
emulates in chunks, bit for bit. That sweep is exact and has no
fallback, so this loop is kept only here, for the tests to compare
against.
"""

from __future__ import annotations

import numpy as np

from repro.core.optimizer import (
    SingleRFit,
    check_fit_inputs,
    discrete_cdf,
    singler_success_rate,
)


def compute_optimal_singled(
    rx,
    ry,
    percentile: float,
    budget: float,
) -> SingleRFit:
    """Data-driven fit of the best SingleD policy (the §2.2 baseline).

    SingleD couples the delay to the budget: ``d`` is the smallest sample
    with ``Pr(X >= d) <= B`` (reissuing any earlier would blow the budget).
    The predicted tail latency is then the smallest ``t`` meeting the
    percentile constraint with ``q = 1``.
    """
    rx = np.sort(np.asarray(rx, dtype=np.float64))
    ry = np.sort(np.asarray(ry, dtype=np.float64))
    check_fit_inputs(rx, ry, percentile, budget)

    n = rx.size
    # Smallest d in the log with fraction of samples >= d at most B:
    # survival(rx[idx]) = (n - idx) / n <= B  =>  idx >= n (1 - B).
    idx = min(int(np.ceil(n * (1.0 - budget))), n - 1)
    d = float(rx[idx])

    # Smallest sample t >= d achieving the percentile with q = 1.
    best_t = float(rx[-1])
    for jj in range(n - 1, -1, -1):
        t = float(rx[jj])
        if t < d:
            break
        p_x_le_t = discrete_cdf(rx, t)
        alpha = p_x_le_t + (1.0 - p_x_le_t) * discrete_cdf(ry, t - d)
        if alpha >= percentile:
            best_t = t
        else:
            break
    baseline = float(np.quantile(rx, percentile, method="higher"))
    # When the budget forces d beyond the baseline quantile, the reissue
    # cannot influence the k-th percentile at all: the achievable tail is
    # the baseline itself (§2.4's impossibility argument), not some t >= d.
    best_t = min(best_t, baseline)
    success = singler_success_rate(rx, ry, 1.0, best_t, d)
    return SingleRFit(
        delay=d,
        prob=1.0,
        predicted_tail=best_t,
        predicted_success=float(success),
        baseline_tail=baseline,
        budget=float(budget),
        percentile=float(percentile),
    )
