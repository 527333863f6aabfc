"""Correlation-aware SingleR parameter search (paper §4.2).

Replaces the unconditional reissue CDF ``Pr(Y < t - d)`` in the success
rate with the conditional ``Pr(Y < t - d | X > t)`` estimated from a log
of (primary, reissue) response-time *pairs* (strict ``<``, the paper's
``DiscreteCDF`` convention).

The Figure-1 sweep touches the sorted primary log only through two
monotone cursors — the delay index ``i`` rises, the tail index ``j`` falls
— so everything a probe needs is kept incrementally: ``Pr(X < d)`` changes
once per ``i``, ``Pr(X < t)`` once per change of ``j``, and as ``t`` falls
each pair that newly satisfies ``X > t`` has its reissue time inserted
into one sorted array, where ``|{X > t, Y < t - d}|`` is a single binary
search. A probe therefore costs a binary search and a handful of float
operations, in the same IEEE-754 order as evaluating each term from
scratch — the fit is bit-for-bit that of the stateless Figure-1 loop in
``tests/test_core_correlated.py``.

The loop runs in C (``_correlated.c``, built into the package's one
library by :mod:`repro._clib`), a statement-for-statement port of
:func:`_sweep_python`. Where that library cannot load, the Python loop
runs instead and ticks the ``optimize.correlated.fallbacks`` counter;
both return the same bits. Measured on one 2-vCPU box, Python loop → C:
the 19 correlated fits of a quick fig3 run 109 → 10 ms, an
``AutoTuner``-sized window (2 000 samples / 2 000 pairs) 1.15 → 0.11 ms,
a 200 000-sample store with 2 000 pairs at P99 96 → 2.2 ms, and with
60 000 pairs 124 → 5.2 ms.

This departs from the paper's O(N log N) orthogonal-range-query structure:
inserting into a sorted array is an O(k) memmove, so the sweep costs
O(N + k**2) for the ``k`` pairs with ``X`` above the fitted tail — those
are the only ones ever inserted. At k = 100 000 (200 000 pairs, P50) the
C loop takes 0.83 s (Python 1.34 s); an O(log m)-per-probe Fenwick-tree
sweep, this module's earlier form, won only beyond that (k = 500 000:
13 s against the Python loop's 49 s) — larger than any pair log a caller
here builds.

The random-access estimator of the conditional CDF that the paper's
structure answers lives with the tests, as the oracle this fitter is
checked against (``tests/oracles/``).
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

from .. import _clib
from ..obs.metrics import get_metrics
from .optimizer import (
    SingleRFit,
    check_fit_inputs,
    discrete_cdf,
    quantile_higher_sorted,
)


def compute_optimal_singler_correlated(
    rx,
    pair_x,
    pair_y,
    percentile: float,
    budget: float,
    *,
    presorted: bool = False,
) -> SingleRFit:
    """Fit the optimal SingleR policy accounting for X/Y correlation.

    Parameters
    ----------
    rx:
        Log of primary response times (all queries).
    pair_x, pair_y:
        Paired logs: for each query that issued a reissue, the primary
        response time and the reissue response time (measured from the
        reissue's own dispatch). Used to estimate the conditional CDF.
    percentile, budget:
        As in :func:`repro.core.optimizer.compute_optimal_singler`.

    The search is the Figure-1 sweep with line 19's ``Pr(Y < t-d)``
    replaced by ``Pr(Y < t-d | X > t)``. ``presorted=True`` skips the
    sort *copy* of ``rx`` — the store-backed path hands in the sorted
    mmap of an :class:`repro.store.EmpiricalStore` directly, so only the
    (small) pair log lives in RAM.
    """
    rx = (
        np.asarray(rx, dtype=np.float64)
        if presorted
        else np.sort(np.asarray(rx, dtype=np.float64))
    )
    pair_x = np.asarray(pair_x, dtype=np.float64)
    pair_y = np.asarray(pair_y, dtype=np.float64)
    check_fit_inputs(rx, None, percentile, budget)
    if pair_x.size == 0 or pair_x.ndim != 1 or pair_x.shape != pair_y.shape:
        raise ValueError(
            "pair_x and pair_y must be non-empty 1-D and equal length"
        )
    if np.isnan(pair_x).any() or np.isnan(pair_y).any():
        raise ValueError("pair_x and pair_y must not contain NaN")

    n = rx.size
    # Pairs by descending x: the pairs with X > t are a prefix that only
    # grows as t falls, and the sweep keeps that prefix's reissue times
    # sorted.
    order = np.argsort(pair_x)[::-1]
    xs_desc = pair_x[order]
    ys_desc = pair_y[order]
    # Eq. 5: only delays with Pr(X > d) >= B can spend the budget.
    i_max = max(int(np.ceil(n * (1.0 - budget))) - 1, 0)
    try:
        library = _clib.load()
    except RuntimeError:
        get_metrics().counter("optimize.correlated.fallbacks").inc()
        d_star, t = _sweep_python(
            rx, xs_desc.tolist(), ys_desc.tolist(), percentile, budget, i_max
        )
    else:
        rx_c = np.ascontiguousarray(rx)  # a presorted memmap: no copy
        ys_scratch = np.empty(xs_desc.size)
        out = np.empty(2)
        library.correlated_sweep(
            rx_c.ctypes.data,
            n,
            xs_desc.ctypes.data,
            ys_desc.ctypes.data,
            xs_desc.size,
            percentile,
            budget,
            i_max,
            ys_scratch.ctypes.data,
            out.ctypes.data,
        )
        d_star, t = float(out[0]), float(out[1])

    # Figure 1 line 13 returns the survival probability 1 - DiscreteCDF(RX,
    # d*) as q; the budget-consistent q of Eq. 4 is B / Pr(X >= d*).
    p_x_ge_d = 1.0 - discrete_cdf(rx, d_star)
    q = 1.0 if p_x_ge_d <= budget else budget / p_x_ge_d
    x_above_t = pair_x > t
    n_above_t = np.count_nonzero(x_above_t)
    cond = (
        np.count_nonzero(x_above_t & (pair_y < t - d_star)) / n_above_t
        if n_above_t
        else 0.0
    )
    p_x_lt_t = discrete_cdf(rx, t)
    success = p_x_lt_t + q * (1.0 - p_x_lt_t) * cond
    # Bit-identical to np.quantile(..., method="higher") on sorted data,
    # without copying a potentially memory-mapped rx.
    baseline = (
        quantile_higher_sorted(rx, percentile)
        if presorted
        else float(np.quantile(rx, percentile, method="higher"))
    )
    return SingleRFit(
        delay=float(d_star),
        prob=float(q),
        predicted_tail=float(t),
        predicted_success=float(success),
        baseline_tail=baseline,
        budget=float(budget),
        percentile=float(percentile),
    )


def _sweep_python(rx, xs_desc, ys_desc, percentile, budget, i_max):
    """The Figure-1 sweep loop over sorted ``rx`` and the pairs (as lists)
    by descending ``x``: returns ``(d*, t)``. ``_correlated.c`` is its
    statement-for-statement port; this loop runs where that library
    cannot load."""
    n = rx.size
    m = len(xs_desc)
    ys: list[float] = []
    above = 0  # |{X > t_next}| == len(ys)

    i = 0
    j = n - 1
    d_star = float(rx[0])
    t = float(rx[j])

    # Figure 1's inner loop lowers t *before* re-checking the success
    # rate, so its t can finish infeasible (harmless there: it returns
    # only (d*, q)). We also report the predicted tail, so a smaller t is
    # committed only after (t_next, d) is verified feasible.
    d = None
    probed_j = -1  # the j that t_next, p, not_p, ys and above belong to
    while i <= j and i <= i_max:
        x = float(rx[i])
        if x != d:
            d = x
            # i is the first index holding d, so Pr(X < d) = i / n < 1.
            q = min(1.0, budget / (1.0 - i / n))
        i += 1
        while j > 0:
            if probed_j != j:
                probed_j = j
                t_next = float(rx[j - 1])
                p = int(np.searchsorted(rx, t_next, side="left")) / n
                not_p = 1.0 - p
                while above < m and xs_desc[above] > t_next:
                    insort(ys, ys_desc[above])
                    above += 1
            if t_next < d:
                break
            cond = bisect_left(ys, t_next - d) / above if above else 0.0
            if p + q * not_p * cond < percentile:
                break
            j -= 1
            t = t_next
            d_star = d
    return d_star, t
