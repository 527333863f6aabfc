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
  search per candidate delay for its first feasible t-index (valid
  because the success rate is non-decreasing in ``t`` for a fixed
  ``d``). The only state carried across chunks is one integer, the
  running minimum of the landing points, and the sweep stops at the
  chunk where the scalar loop would;
* each search starts on a bracket (:func:`_bracket`) instead of all
  ``n`` t-indices. Below: the success rate is at most
  ``fx + q * (1 - fx)``, so no index under ``floor(thr * n) - 1`` with
  ``thr = (p - q) / (1 - q)`` can be feasible, nor does any index under
  the candidate's first sample ``>= d`` matter. Above: the first index
  with ``Pr(X < t) >= p`` is feasible for every ``d``. For the 99th
  percentile that is a band of a few percent of ``n`` just below the
  tail;
* inside the brackets (:func:`_first_feasible`) the open candidates sit
  in compact arrays that shrink as intervals close. Where the brackets
  are wide on average, each probe goes by false position, where the
  straight line between the two anchors crosses ``p``, with a bisection
  step after any probe that failed to halve its interval; narrow ones
  bisect. On a 1M-sample Pareto(1.1) log at ``(0.99, 0.05)`` the search
  makes 4.20 M probes where bisection made 10.79 M, and 820 k instead of
  1.76 M on 200k samples (``optimize.sweep.probes`` counts them); a
  2 000-sample window at that objective stays on bisection;
* the trajectory is then **verified**: the exact probe sequence the
  scalar loop would make is replayed in bounded broadcast batches. If
  float rounding ever produced a non-monotone feasibility pattern that
  fools the search, or a bracket missed a landing point, the
  verification fails, ``optimize.sweep.fallbacks`` ticks in the
  :mod:`repro.obs` registry and the scalar sweep runs instead, on the
  sorted logs in place — equality is guaranteed, not assumed;
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
    compute_optimal_singler_sorted as _singler_scalar,
    discrete_cdf,
    quantile_higher_sorted,
    singler_success_rate,
)
from ..obs.metrics import get_metrics

DEFAULT_CHUNK = 131_072
_REPLAY_BATCH = 262_144
#: A chunk whose open brackets are at most this many indices wide on
#: average bisects; a wider one probes by false position. Above it
#: bisection averages over 6 probes per candidate, false position about
#: 4. Measured on 2k-100k-sample logs (p 0.9-0.999, B 0.01-0.3): where
#: brackets averaged under ~50 indices false position took 1.07-1.47x
#: bisection's time, its extra rounds for a few slow-converging
#: candidates costing more than the probes it saved; above 64 it took
#: 0.68-0.95x on logs of 30k samples or more, 0.86-1.11x on 2k-8k.
#: The widest interval did not separate the two (600-9 000 on both sides).
_FALSE_POSITION_MIN_WIDTH = 64


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
    probes = get_metrics().counter("optimize.sweep.probes")

    def success(d, q, j):
        # SingleRSuccessRate at t = rx[j], operation for operation:
        # ``p_x_le_t + q * (1.0 - p_x_le_t) * p_y``, computed in place
        # with the same grouping (IEEE ``*`` and ``+`` commute exactly).
        # The scalar's ``surv <= 0`` branch returns ``p_x_le_t``; there
        # ``q = 0`` and ``fx + 0.0 == fx`` bit for bit.
        fx = fx_at(j)
        t = rx[j]
        t -= d
        fy = np.searchsorted(ry, t, side="left")
        del t
        fy = fy.astype(np.float64)
        fy /= ny
        alpha = 1.0 - fx
        alpha *= q
        alpha *= fy
        alpha += fx
        return alpha

    for s in range(0, m, chunk):
        e = min(s + chunk, m)
        csize = e - s
        d = np.array(rx[s:e], dtype=np.float64)  # chunk copy, not a view
        locc = np.searchsorted(rx, d, side="left")  # lowest j with rx[j-1] >= d
        surv = 1.0 - locc.astype(np.float64) / n
        with np.errstate(divide="ignore"):
            q = np.where(surv > 0.0, np.minimum(1.0, budget / surv), 0.0)
        del surv

        def feasible(d_idx: np.ndarray, j: np.ndarray) -> np.ndarray:
            return success(d[d_idx], q[d_idx], j) >= percentile

        jmin = _first_feasible(success, percentile, rx, d, q, locc, probes)

        # The inner loop can only settle at max(first feasible t, first
        # sample >= d); the outer loop's shared j is then a running minimum.
        land = np.maximum(jmin, locc)
        lp = np.minimum(np.minimum.accumulate(land), carry)
        j_before = np.concatenate(([carry], lp[:-1]))

        # the ``while i <= min(j, i_max)`` exit
        violated = np.arange(s, e) > j_before
        stopped = bool(violated.any())
        n_proc = int(np.argmax(violated)) if stopped else csize
        jb = j_before[:n_proc]
        ja = np.minimum(jb, land[:n_proc])

        moved = np.flatnonzero(ja < jb)
        if moved.size:
            d_star = float(d[moved[-1]])
        if n_proc:
            j_final = int(ja[-1])

        if not _replay_certifies(feasible, ja, jb, locc[:n_proc]):
            return None

        if release is not None:
            release()
        if stopped:
            break
        carry = int(lp[-1])
        # Free this chunk's trajectory before the next chunk's search
        # allocates its own.
        del land, lp, j_before, violated, jb, ja, moved

    return d_star, float(rx[j_final])


def _replay_certifies(feasible, ja, jb, locc):
    """Probe replay: whether the scalar loop, probe for probe, moves each
    processed candidate from ``jb`` down to ``ja`` and stops there.

    Its temporaries (up to ``_REPLAY_BATCH`` probes) are freed on return,
    before the next chunk's search allocates its own.
    """
    # Committed probes: for candidate i the scalar loop accepted every
    # t = rx[j], j in [ja[i], jb[i] - 1] (must all be feasible) ...
    counts = jb - ja
    cum = np.cumsum(counts)
    starts = cum - counts  # probe offset where candidate i begins
    total = int(cum[-1]) if ja.size else 0
    for b0 in range(0, total, _REPLAY_BATCH):
        k = np.arange(b0, min(b0 + _REPLAY_BATCH, total))
        d_rep = np.searchsorted(cum, k, side="right")
        if not bool(np.all(feasible(d_rep, k - starts[d_rep] + ja[d_rep]))):
            return False
    # ... and then stopped: when the stop was a failed success-rate
    # check (not the ``rx[j-1] < d`` / ``j == 0`` boundary), the probe
    # below the landing point must be infeasible.
    stop = np.flatnonzero((ja > 0) & (ja > locc))
    return not (stop.size and bool(np.any(feasible(stop, ja[stop] - 1))))


def _first_feasible(success, percentile, rx, d, q, locc, probes):
    """Per candidate, the first feasible t-index in ``[lo, hi]``, or ``n``
    when ``hi`` itself is infeasible (by monotonicity, so is all below).

    Any probe order that keeps the invariant (nothing in ``[lo_0, lo)``
    feasible, ``hi`` feasible) ends on the same index, so how each probe
    is placed changes the cost, never the answer. One probe at ``hi``
    sorts the candidates and anchors the feasible side; the open ones are
    then gathered into compact arrays that shrink as intervals close.

    When the open intervals are wider than ``_FALSE_POSITION_MIN_WIDTH``
    on average, every open candidate probes ``lo`` next, for an
    infeasible anchor, and then goes by false position: the line from
    ``alpha(lo - 1)`` to ``alpha(hi)`` crosses ``p`` at ``x``, and the
    probe is ``ceil(x)`` clamped into ``[lo, hi - 1]``. Near the tail
    ``alpha`` is close to linear in ``j``, so the first such probe
    usually lands on the answer and the second closes the interval. A
    probe that failed to halve its interval is followed by a bisection
    step, which keeps the worst case within ``2 * log2(width)`` rounds
    after the anchors. Narrower chunks bisect throughout.
    """
    lo, hi = _bracket(rx, percentile, q, locc)
    a_hi = success(d, q, hi)
    probes.inc(hi.size)
    found = a_hi >= percentile
    jmin = np.where(found, lo, rx.size)
    found &= lo < hi
    idx = np.flatnonzero(found)
    del found
    if not idx.size:
        return jmin
    lo, hi, d, q = lo[idx], hi[idx], d[idx], q[idx]
    width = hi - lo
    secant = bool(width.mean() > _FALSE_POSITION_MIN_WIDTH)
    if secant:
        a_hi = a_hi[idx]
        a_lo = np.empty(idx.size)  # alpha(lo - 1), set by the probe at lo
        fp = None  # per candidate: may the next probe be false position?
    while idx.size:
        if secant and fp is None:
            j = lo.copy()
        else:
            j = width // 2
            j += lo
            if secant and fp.any():
                x = np.subtract(percentile, a_lo)
                x /= a_hi - a_lo  # in (0, 1]: a_lo < p <= a_hi
                x *= width + 1
                np.ceil(x, out=x)
                step = x.astype(np.int64)  # in [1, width + 1]
                del x
                step += lo - 1  # in [lo, hi] ...
                step -= step == hi  # ... clamped into [lo, hi - 1]
                np.copyto(j, step, where=fp)
                del step
        alpha = success(d, q, j)
        probes.inc(j.size)
        ok = alpha >= percentile
        np.copyto(hi, j, where=ok)
        if secant:
            np.copyto(a_hi, alpha, where=ok)
        np.logical_not(ok, out=ok)
        j += 1
        np.copyto(lo, j, where=ok)
        if secant:
            np.copyto(a_lo, alpha, where=ok)
        del alpha, ok, j
        rest = hi - lo
        if secant:
            # The probe at lo only fetched an anchor; after it, a probe
            # that did not halve its interval hands over to bisection.
            fp = np.full(idx.size, True) if fp is None else width >= 2 * rest
        width = rest
        closed = width == 0
        if closed.any():
            jmin[idx[closed]] = lo[closed]
            open_ = ~closed
            idx, lo, hi, d, q = idx[open_], lo[open_], hi[open_], d[open_], q[open_]
            width = width[open_]
            if secant:
                a_lo, a_hi, fp = a_lo[open_], a_hi[open_], fp[open_]
    return jmin


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
