"""Data-driven optimal SingleR parameter search (paper Figure 1, §4.1).

``compute_optimal_singler`` fits the reissue delay ``d*`` and probability
``q`` from two response-time logs: ``rx`` (primary requests) and ``ry``
(reissue requests). It is a faithful implementation of the paper's
``ComputeOptimalSingleR`` pseudocode with the amortized two-pointer sweep:
``d`` ascends over the sorted log while the tail-latency candidate ``t``
descends, so the whole search is O(N) after sorting.

Known pseudocode discrepancy: the paper's line 13 returns
``q = 1 - DiscreteCDF(RX, d*)`` which is a survival probability, not the
budget-consistent reissue probability. We return
``q = min(1, B / Pr(X >= d*))`` per Eq. (4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policies import SingleD, SingleR


@dataclass(frozen=True)
class SingleRFit:
    """Result of a SingleR parameter search.

    Attributes
    ----------
    delay, prob:
        The fitted policy parameters ``(d*, q)``.
    predicted_tail:
        The k-th percentile tail latency the fitted policy is predicted to
        achieve on the supplied logs.
    predicted_success:
        ``Pr(Q <= predicted_tail)`` under the fitted policy.
    baseline_tail:
        The k-th percentile of the primary log with no reissue, for
        reduction-ratio reporting.
    budget:
        The reissue budget the search was constrained to.
    percentile:
        The target percentile ``k`` (in [0, 1], e.g. 0.99).
    """

    delay: float
    prob: float
    predicted_tail: float
    predicted_success: float
    baseline_tail: float
    budget: float
    percentile: float

    @property
    def policy(self) -> SingleR:
        return SingleR(self.delay, self.prob)

    @property
    def predicted_reduction_ratio(self) -> float:
        """Baseline tail / predicted tail (>1 means improvement)."""
        if self.predicted_tail <= 0.0:
            return float("inf")
        return self.baseline_tail / self.predicted_tail


def discrete_cdf(sorted_samples: np.ndarray, t: float) -> float:
    """``|{x in R : x < t}| / |R|`` — the paper's ``DiscreteCDF``."""
    n = sorted_samples.size
    if n == 0:
        raise ValueError("empty sample set")
    return float(np.searchsorted(sorted_samples, t, side="left")) / n


def quantile_higher_sorted(sorted_samples: np.ndarray, p: float) -> float:
    """``np.quantile(x, p, method="higher")`` for already-sorted ``x``.

    On a sorted array the "higher" rule is the order statistic at
    ``ceil((n - 1) * p)`` — the same virtual-index arithmetic NumPy
    performs, bit for bit, without the copy-and-partition ``np.quantile``
    would do (which matters when ``x`` is a multi-GB store mmap).
    """
    n = sorted_samples.shape[0]
    if n == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"quantile probabilities must be in [0, 1], got {p}")
    idx = int(np.ceil((n - 1) * np.float64(p)))
    return float(sorted_samples[idx])


def check_fit_inputs(
    rx_sorted: np.ndarray,
    ry_sorted: np.ndarray | None,
    percentile: float,
    budget: float,
) -> None:
    """Reject what no Figure-1 sweep can fit, in O(1).

    ``np.sort`` puts NaN last, so on sorted logs the last element is the
    only one that needs looking at. ``ry_sorted=None`` checks ``rx``
    alone (the §4.2 fit reads its reissue times from pairs).
    """
    logs = (rx_sorted,) if ry_sorted is None else (rx_sorted, ry_sorted)
    names = "rx" if ry_sorted is None else "rx and ry"
    if any(log.size == 0 for log in logs):
        raise ValueError(f"{names} must be non-empty")
    if any(np.isnan(log[-1]) for log in logs):
        raise ValueError(f"{names} must not contain NaN")
    if not 0.0 < percentile < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {percentile}")
    if not 0.0 < budget <= 1.0:
        raise ValueError(f"budget must be in (0, 1], got {budget}")


def singler_success_rate(
    rx_sorted: np.ndarray,
    ry_sorted: np.ndarray,
    budget: float,
    t: float,
    d: float,
) -> float:
    """``SingleRSuccessRate`` (Figure 1, lines 15-20) with ``q`` clamped to 1.

    Returns the probability that a query completes before ``t`` under the
    SingleR policy that reissues at ``d`` spending the full ``budget``.
    """
    p_x_le_t = discrete_cdf(rx_sorted, t)
    p_x_gt_d = 1.0 - discrete_cdf(rx_sorted, d)
    p_y = discrete_cdf(ry_sorted, t - d)
    if p_x_gt_d <= 0.0:
        return p_x_le_t
    q = min(1.0, budget / p_x_gt_d)
    return p_x_le_t + q * (1.0 - p_x_le_t) * p_y


def compute_optimal_singler(
    rx,
    ry,
    percentile: float,
    budget: float,
) -> SingleRFit:
    """Fit the optimal SingleR policy from response-time logs.

    Parameters
    ----------
    rx, ry:
        Samples of primary and reissue response times. ``ry`` may equal
        ``rx`` when reissue requests are served identically.
    percentile:
        Target percentile ``k`` as a fraction in (0, 1), e.g. ``0.99``.
    budget:
        Reissue budget ``B`` as a fraction in (0, 1].

    Implements the Figure 1 search: maintain the invariant that the policy
    reissuing at ``d*`` achieves a k-th percentile tail latency of at most
    ``t``; sweep candidate reissue times ``d`` ascending and shrink ``t``
    while the success rate stays above ``k``.
    """
    rx = np.sort(np.asarray(rx, dtype=np.float64))
    ry = np.sort(np.asarray(ry, dtype=np.float64))
    check_fit_inputs(rx, ry, percentile, budget)
    return compute_optimal_singler_sorted(rx, ry, percentile, budget)


def compute_optimal_singler_sorted(
    rx_sorted: np.ndarray,
    ry_sorted: np.ndarray,
    percentile: float,
    budget: float,
) -> SingleRFit:
    """The Figure-1 loop of :func:`compute_optimal_singler` over logs
    that are already sorted float64 and checked (:func:`check_fit_inputs`).

    It reads the logs in place — no sort, no copy, no ``np.quantile``
    partition — so a caller may hand it a store's ``np.memmap``.
    """
    rx, ry = rx_sorted, ry_sorted
    n = rx.size
    i = 0  # index of the next candidate reissue time d (ascending)
    j = n - 1  # index of the current tail-latency candidate t (descending)
    d_star = rx[0]
    t = rx[j]
    # Candidate delays satisfy Pr(X > d) >= B (Eq. 5): reissuing later than
    # the SingleD delay d' cannot spend the budget and is never optimal.
    i_max = max(int(np.ceil(n * (1.0 - budget))) - 1, 0)

    # Note a second pseudocode discrepancy: the paper's inner loop decreases
    # t *before* re-checking the success rate, so its internal t can finish
    # infeasible (harmless there — Figure 1 returns only (d*, q)). Since we
    # also report the predicted tail, we only commit a smaller t after
    # verifying alpha(t_next, d) >= k.
    while i <= min(j, i_max):
        d = rx[i]
        i += 1
        while j > 0 and rx[j - 1] >= d:
            t_next = rx[j - 1]
            if singler_success_rate(rx, ry, budget, t_next, d) < percentile:
                break
            j -= 1
            t = t_next
            d_star = d

    p_x_ge_d = 1.0 - discrete_cdf(rx, d_star)
    q = 1.0 if p_x_ge_d <= budget else budget / p_x_ge_d
    success = singler_success_rate(rx, ry, budget, t, d_star)
    baseline = quantile_higher_sorted(rx, percentile)
    return SingleRFit(
        delay=float(d_star),
        prob=float(q),
        predicted_tail=float(t),
        predicted_success=float(success),
        baseline_tail=baseline,
        budget=float(budget),
        percentile=float(percentile),
    )


def fit_singled_policy(rx, budget: float, *, presorted: bool = False) -> SingleD:
    """Pick the SingleD delay from a primary log for a budget (Eq. 2)."""
    rx = (
        np.asarray(rx, dtype=np.float64)
        if presorted
        else np.sort(np.asarray(rx, dtype=np.float64))
    )
    if rx.size == 0:
        raise ValueError("rx must be non-empty")
    if not 0.0 < budget <= 1.0:
        raise ValueError(f"budget must be in (0, 1], got {budget}")
    idx = min(int(np.ceil(rx.size * (1.0 - budget))), rx.size - 1)
    return SingleD(float(rx[idx]))
