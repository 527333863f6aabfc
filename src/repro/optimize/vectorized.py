"""The Figure-1 parameter sweeps (§4.1), broadcast one candidate chunk
at a time.

The scalar sweeps (SingleR in :mod:`repro.core.optimizer`, SingleD in
the test oracle ``tests/oracles/singled.py``) walk the sorted sample
log with a two-pointer loop, calling ``discrete_cdf`` (a Python wrapper
around one ``np.searchsorted``) once per probe — O(N) probes, each a few
microseconds of interpreter overhead. This module computes the same
search with array ``np.searchsorted`` calls over fixed-size chunks of
the candidate delays and **returns bit-for-bit the same**
:class:`~repro.core.optimizer.SingleRFit`:

* every success-rate value is produced by the *identical* sequence of
  IEEE-754 operations the scalar code performs (same operand order, same
  dtype), so each feasibility comparison ``alpha >= k`` agrees exactly;
* the SingleR two-pointer trajectory is reconstructed from a vectorized
  binary search per candidate delay (valid because the success rate is
  non-decreasing in ``t`` for a fixed ``d``). The only state carried
  across chunks is one integer, the running minimum of the landing
  points, and the sweep stops at the chunk where the scalar loop would;
* each binary search starts on a bracket (:func:`_bracket`) instead of
  all ``n`` t-indices. Below: the success rate is at most
  ``fx + q * (1 - fx)``, so no index under ``floor(thr * n) - 1`` with
  ``thr = (p - q) / (1 - q)`` can be feasible, nor does any index under
  the candidate's first sample ``>= d`` matter. Above: the first index
  with ``Pr(X < t) >= p`` is feasible for every ``d``. For the 99th
  percentile that is a band of a few percent of ``n`` just below the
  tail: 7 rounds instead of 11 on a 2 000-sample window;
* the trajectory is then **verified**: the exact probe sequence the
  scalar loop would make is replayed in bounded broadcast batches. If
  float rounding ever produced a non-monotone feasibility pattern that
  fools the binary search, or a bracket missed a landing point, the
  verification fails, ``optimize.sweep.fallbacks`` ticks in the
  :mod:`repro.obs` registry and the scalar sweep runs instead —
  equality is guaranteed, not assumed;
* the SingleD sweep needs no fallback: its single descent is emulated
  exactly by locating the highest infeasible probe at or above the
  Eq.-2 delay.

There is one sweep and two entry points. ``*_vectorized`` takes any
sample logs and sorts them; ``*_chunked`` takes logs that are already
sorted — typically the ``np.memmap`` behind an
:class:`repro.store.EmpiricalStore` — plus an optional ``release``
callback (``EmpiricalStore.release``) run after each chunk, so a sweep
over a multi-GB map keeps its resident set near one chunk. The input
type picks how ``Pr(X < rx[j])`` is read: an in-memory log keeps one
O(N) first-occurrence table, a memmap recomputes it per probe so that
additional memory stays O(chunk).

``tests/test_optimize_vectorized.py`` and ``tests/test_store_fit.py``
enforce bit-for-bit equality against the scalar sweeps.
"""

from __future__ import annotations

import numpy as np

from ..core.optimizer import (
    SingleRFit,
    check_fit_inputs,
    compute_optimal_singler as _singler_scalar,
    discrete_cdf,
    quantile_higher_sorted,
    singler_success_rate,
)
from ..obs.metrics import get_metrics

DEFAULT_CHUNK = 131_072
_REPLAY_BATCH = 262_144


def sort_logs(rx, ry):
    """``(rx, ry)`` as sorted float64 arrays, sorting a shared log once."""
    rx_sorted = np.sort(np.asarray(rx, dtype=np.float64))
    if ry is rx:
        return rx_sorted, rx_sorted
    return rx_sorted, np.sort(np.asarray(ry, dtype=np.float64))


def compute_optimal_singler_vectorized(
    rx,
    ry,
    percentile: float,
    budget: float,
) -> SingleRFit:
    """Vectorized ``ComputeOptimalSingleR`` — same result, no scalar loop.

    Drop-in replacement for
    :func:`repro.core.optimizer.compute_optimal_singler`.
    """
    return compute_optimal_singler_chunked(*sort_logs(rx, ry), percentile, budget)


def compute_optimal_singled_vectorized(
    rx,
    ry,
    percentile: float,
    budget: float,
) -> SingleRFit:
    """Vectorized SingleD fit — bit-for-bit the scalar descent in
    ``tests/oracles/singled.py``."""
    return compute_optimal_singled_chunked(*sort_logs(rx, ry), percentile, budget)


def compute_optimal_singler_chunked(
    rx,
    ry,
    percentile: float,
    budget: float,
    *,
    chunk: int = DEFAULT_CHUNK,
    release=None,
) -> SingleRFit:
    """The SingleR sweep over *sorted* logs, ``chunk`` candidates at a time."""
    rx = np.asanyarray(rx, dtype=np.float64)
    ry = np.asanyarray(ry, dtype=np.float64)
    check_fit_inputs(rx, ry, percentile, budget)

    chunk = max(int(chunk), 1)
    picked = _sweep_trajectory(rx, ry, percentile, budget, chunk, release)
    if picked is None:  # the replay rejected the trajectory: exact path
        get_metrics().counter("optimize.sweep.fallbacks").inc()
        fit = _singler_scalar(rx, ry, percentile, budget)
        if release is not None:
            release()
        return fit
    d_star, t = picked

    # Finishers shared verbatim with the scalar implementation
    # (``np.quantile`` replaced by its sorted-array order statistic).
    p_x_ge_d = 1.0 - discrete_cdf(rx, d_star)
    q = 1.0 if p_x_ge_d <= budget else budget / p_x_ge_d
    success = singler_success_rate(rx, ry, budget, t, d_star)
    baseline = quantile_higher_sorted(rx, percentile)
    if release is not None:
        release()
    return SingleRFit(
        delay=d_star,
        prob=float(q),
        predicted_tail=t,
        predicted_success=float(success),
        baseline_tail=baseline,
        budget=float(budget),
        percentile=float(percentile),
    )


def _sweep_trajectory(rx, ry, percentile, budget, chunk, release):
    """The two-pointer trajectory, reconstructed one candidate chunk at a
    time.

    Returns ``(d_star, t)`` exactly as the scalar sweep would pick them,
    or ``None`` when the probe-replay verification detects a feasibility
    pattern the monotone binary search cannot represent (caller falls
    back to the scalar loop).
    """
    n = rx.size
    ny = ry.size
    i_max = max(int(np.ceil(n * (1.0 - budget))) - 1, 0)
    m = min(i_max, n - 1) + 1  # number of candidate delays

    # Pr(X < rx[j]) = (first-occurrence index of rx[j]) / n. The same
    # integer searchsorted, float cast and divide either way, element
    # for element; only where it happens differs.
    if isinstance(rx, np.memmap):

        def fx_at(j: np.ndarray) -> np.ndarray:
            return np.searchsorted(rx, rx[j], side="left").astype(np.float64) / n

    else:
        table = np.searchsorted(rx, rx, side="left").astype(np.float64)
        table /= n
        fx_at = table.__getitem__

    carry = n - 1  # min(n - 1, landing points of all previous chunks)
    d_star = float(rx[0])
    j_final = n - 1

    for s in range(0, m, chunk):
        e = min(s + chunk, m)
        csize = e - s
        cand = np.arange(s, e, dtype=np.int64)
        d = np.array(rx[s:e], dtype=np.float64)  # chunk copy, not a view
        locc = np.searchsorted(rx, d, side="left")  # lowest j with rx[j-1] >= d
        surv = 1.0 - locc.astype(np.float64) / n
        degenerate = surv <= 0.0  # unreachable for sample delays; kept exact
        with np.errstate(divide="ignore"):
            q = np.where(degenerate, 1.0, np.minimum(1.0, budget / surv))

        def feasible(d_idx: np.ndarray, j: np.ndarray) -> np.ndarray:
            # SingleRSuccessRate at t = rx[j], operation for operation:
            # ``p_x_le_t + q * (1.0 - p_x_le_t) * p_y``, collapsing to
            # ``p_x_le_t`` on the ``surv <= 0`` branch.
            fx = fx_at(j)
            fy = np.searchsorted(ry, rx[j] - d[d_idx], side="left")
            fy = fy.astype(np.float64) / ny
            alpha = np.where(degenerate[d_idx], fx, fx + q[d_idx] * (1.0 - fx) * fy)
            return alpha >= percentile

        # Per-candidate first feasible t-index, assuming alpha(t) monotone
        # in t for fixed d (true in exact arithmetic; verified below),
        # searched inside the bracket rather than over all n t-indices.
        all_idx = np.arange(csize)
        top = feasible(all_idx, np.full(csize, n - 1))
        jmin = np.full(csize, n, dtype=np.int64)  # sentinel: none feasible
        lo, hi = _bracket(rx, percentile, q, locc)
        active = top.copy()
        while np.any(active & (lo < hi)):
            sel = active & (lo < hi)
            mid = (lo[sel] + hi[sel]) // 2
            f = feasible(all_idx[sel], mid)
            hi[sel] = np.where(f, mid, hi[sel])
            lo[sel] = np.where(f, lo[sel], mid + 1)
        jmin[top] = lo[top]

        # The inner loop can only settle at max(first feasible t, first
        # sample >= d); the outer loop's shared j is then a running minimum.
        land = np.maximum(jmin, locc)
        lp = np.minimum(np.minimum.accumulate(land), carry)
        j_before = np.concatenate(([carry], lp[:-1]))

        violated = cand > j_before  # the ``while i <= min(j, i_max)`` exit
        stopped = bool(violated.any())
        n_proc = int(np.argmax(violated)) if stopped else csize
        jb = j_before[:n_proc]
        ja = np.minimum(jb, land[:n_proc])

        moved = np.flatnonzero(ja < jb)
        if moved.size:
            d_star = float(d[moved[-1]])
        if n_proc:
            j_final = int(ja[-1])

        # -- probe replay: certify the trajectory matches the scalar loop --
        # Committed probes: for candidate i the scalar loop accepted every
        # t = rx[j], j in [ja[i], jb[i] - 1] (must all be feasible) ...
        counts = jb - ja
        cum = np.cumsum(counts)
        starts = cum - counts  # probe offset where candidate i begins
        total = int(cum[-1]) if n_proc else 0
        for b0 in range(0, total, _REPLAY_BATCH):
            k = np.arange(b0, min(b0 + _REPLAY_BATCH, total))
            d_rep = np.searchsorted(cum, k, side="right")
            if not bool(np.all(feasible(d_rep, k - starts[d_rep] + ja[d_rep]))):
                return None
        # ... and then stopped: when the stop was a failed success-rate
        # check (not the ``rx[j-1] < d`` / ``j == 0`` boundary), the probe
        # below the landing point must be infeasible.
        stop = np.flatnonzero((ja > 0) & (ja > locc[:n_proc]))
        if stop.size and bool(np.any(feasible(stop, ja[stop] - 1))):
            return None

        if release is not None:
            release()
        if stopped:
            break
        carry = int(lp[-1])

    return d_star, float(rx[j_final])


def _bracket(rx, percentile, q, locc):
    """``(lo, hi)``: per candidate, a t-index range holding its landing
    point ``max(first feasible j, locc)``, with ``lo <= hi``.

    ``lo`` is ``max(locc, floor(thr * n) - 1)`` with
    ``thr = (p - q) / (1 - q)``: since ``fy <= 1``, the success rate is
    at most ``fx + q * (1 - fx)``, which reaches ``p`` only where
    ``fx >= thr``, and ``fx = Pr(X < rx[j]) <= j / n``; the ``- 1``
    absorbs the rounding. A candidate with ``q >= 1`` (degenerate ones
    included) gets ``locc``. ``hi`` is ``jp``, the first ``j`` with
    ``Pr(X < rx[j]) >= p``: the success rate is at least ``fx`` there,
    whatever ``d`` is, so ``jp`` is always feasible (``n - 1`` when no
    such ``j`` exists). The probe replay still certifies every landing
    point, so a wrong bracket costs a scalar fallback, never a wrong fit.
    """
    n = rx.size
    # The smallest count k with k / n >= p (the same float division the
    # fx lookup makes); then fx(j) >= p exactly where rx[j] > rx[k - 1].
    k = min(max(int(np.ceil(percentile * n)), 1), n)
    while k > 1 and (k - 1) / n >= percentile:
        k -= 1
    while k < n and k / n < percentile:
        k += 1
    jp = min(int(np.searchsorted(rx, rx[k - 1], side="right")), n - 1)
    with np.errstate(divide="ignore"):
        thr = np.where(q < 1.0, (percentile - q) / (1.0 - q), 0.0)
    lo = np.maximum(locc, np.floor(thr * n).astype(np.int64) - 1)
    return lo, np.maximum(lo, jp)


def compute_optimal_singled_chunked(
    rx,
    ry,
    percentile: float,
    budget: float,
    *,
    chunk: int = DEFAULT_CHUNK,
    release=None,
) -> SingleRFit:
    """The SingleD sweep over *sorted* logs, ``chunk`` probes at a time.

    The scalar loop walks t downward from the top sample and stops at the
    first success-rate failure (or at ``t < d``); the survivor is exactly
    ``rx[b + 1]`` where ``b`` is the highest infeasible index at or above
    the Eq.-2 delay, so the scan carries that single integer and needs no
    monotonicity assumption.
    """
    rx = np.asanyarray(rx, dtype=np.float64)
    ry = np.asanyarray(ry, dtype=np.float64)
    check_fit_inputs(rx, ry, percentile, budget)
    chunk = max(int(chunk), 1)

    n = rx.size
    idx = min(int(np.ceil(n * (1.0 - budget))), n - 1)
    d = float(rx[idx])
    lo_d = int(np.searchsorted(rx, d, side="left"))

    last_infeasible = -1
    for s in range(lo_d, n, chunk):
        rxj = np.array(rx[s : s + chunk], dtype=np.float64)
        fx = np.searchsorted(rx, rxj, side="left").astype(np.float64) / n
        fy = np.searchsorted(ry, rxj - d, side="left").astype(np.float64) / ry.size
        bad = np.flatnonzero(fx + (1.0 - fx) * fy < percentile)
        if bad.size:
            last_infeasible = s + int(bad[-1])
        if release is not None:
            release()

    if last_infeasible < 0:
        best_t = float(rx[lo_d])
    else:
        best_t = float(rx[min(last_infeasible + 1, n - 1)])

    baseline = quantile_higher_sorted(rx, percentile)
    best_t = min(best_t, baseline)
    success = singler_success_rate(rx, ry, 1.0, best_t, d)
    if release is not None:
        release()
    return SingleRFit(
        delay=d,
        prob=1.0,
        predicted_tail=best_t,
        predicted_success=float(success),
        baseline_tail=baseline,
        budget=float(budget),
        percentile=float(percentile),
    )
