"""On-line policy adaptation for time-varying load (paper §4.4).

The paper sketches (without code) how the §4.3 iterative adapter extends
to services whose response-time distribution drifts over hours or days:
re-fit continuously from a sliding window of recent observations and
balance exploration (trusting fresh refits) against exploitation (keeping
a known-good policy). This module is that extension:

* :class:`SlidingWindowLog` — bounded-memory response-time window with
  O(1) amortized append and percentile queries on demand.
* :class:`DriftDetector` — flags distribution shift by comparing the
  recent window's quantile profile against a reference profile
  (a two-sample Kolmogorov-Smirnov test on the stored samples).
* :class:`OnlinePolicyController` — feed it batches of observations from
  the live system; it re-fits the SingleR parameters when enough fresh
  data has accumulated or drift is detected, and applies the §4.3
  learning-rate damping between consecutive policies.

The controller is transport-agnostic: it never runs the system itself —
callers stream ``(primary response times, reissue pairs)`` in and read
``controller.policy`` out, which is exactly the shape of a sidecar that
tunes a production hedging layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..distributions.base import RngLike
from .optimizer import SingleRFit, discrete_cdf
from .policies import SingleR


class SlidingWindowLog:
    """A bounded window of the most recent response-time observations."""

    def __init__(self, capacity: int = 50_000):
        if capacity < 100:
            raise ValueError("capacity must be >= 100")
        self.capacity = int(capacity)
        self._primary: deque = deque(maxlen=self.capacity)
        self._pair_x: deque = deque(maxlen=max(self.capacity // 10, 100))
        self._pair_y: deque = deque(maxlen=max(self.capacity // 10, 100))
        self.total_seen = 0

    def extend(self, primary, pair_x=None, pair_y=None) -> None:
        """Append a batch of observations (reissue pairs optional)."""
        primary = np.asarray(primary, dtype=np.float64)
        if primary.size and float(primary.min()) < 0.0:
            raise ValueError("response times must be non-negative")
        self._primary.extend(primary.tolist())
        self.total_seen += int(primary.size)
        if pair_x is not None or pair_y is not None:
            pair_x = np.asarray(pair_x, dtype=np.float64)
            pair_y = np.asarray(pair_y, dtype=np.float64)
            if pair_x.shape != pair_y.shape:
                raise ValueError("pair_x and pair_y must have equal length")
            self._pair_x.extend(pair_x.tolist())
            self._pair_y.extend(pair_y.tolist())

    def __len__(self) -> int:
        return len(self._primary)

    @property
    def n_pairs(self) -> int:
        return len(self._pair_x)

    def primary(self) -> np.ndarray:
        return np.array(self._primary, dtype=np.float64)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array(self._pair_x, dtype=np.float64),
            np.array(self._pair_y, dtype=np.float64),
        )

    def percentile(self, k: float) -> float:
        if not self._primary:
            raise ValueError("empty window")
        return float(np.quantile(self.primary(), k, method="higher"))

    def keep_last(self, n: int, keep_pairs: int = 0) -> None:
        """Drop all but the most recent ``n`` primary observations and
        the most recent ``keep_pairs`` reissue pairs. Used when a drift
        refit decides the older regime's samples would poison the fit —
        pairs delivered alongside the triggering batch are new-regime
        evidence and worth keeping."""
        if n < 0 or keep_pairs < 0:
            raise ValueError("n and keep_pairs must be >= 0")
        while len(self._primary) > n:
            self._primary.popleft()
        while len(self._pair_x) > keep_pairs:
            self._pair_x.popleft()
            self._pair_y.popleft()


class DriftDetector:
    """Two-sample KS drift detector over response-time windows.

    ``update`` compares the candidate sample against the stored reference;
    when the KS statistic exceeds ``threshold`` the detector reports drift
    and re-anchors the reference to the new sample. The KS statistic is
    scale-free, so a latency distribution that doubles wholesale is
    flagged just as reliably as one that grows a new mode.
    """

    def __init__(self, threshold: float = 0.12, min_samples: int = 500):
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self._reference: np.ndarray | None = None
        self.last_statistic = 0.0

    def update(self, sample) -> bool:
        """Returns True (and re-anchors) when the sample drifted."""
        sample = np.asarray(sample, dtype=np.float64)
        if sample.size < self.min_samples:
            return False
        if self._reference is None:
            self._reference = sample.copy()
            return False
        # Lazy: importing serving or the CLI must load no scipy.
        from scipy import stats

        self.last_statistic = float(
            stats.ks_2samp(self._reference, sample).statistic
        )
        if self.last_statistic > self.threshold:
            self._reference = sample.copy()
            return True
        return False

    def reset(self) -> None:
        self._reference = None
        self.last_statistic = 0.0


@dataclass
class RefitEvent:
    """One policy refresh (for observability/telemetry)."""

    observations: int
    reason: str  # "batch" | "drift"
    policy: SingleR
    fit: SingleRFit


class OnlinePolicyController:
    """Streamed §4.3 adaptation with drift-triggered refits (§4.4).

    Parameters
    ----------
    percentile, budget:
        The optimization target, as in the offline fitters.
    refit_interval:
        Refit after this many new observations (the exploitation path).
    learning_rate:
        λ-damping between the current and refit delays — small values
        resist chasing noise, exactly as in the offline adaptive loop.
    drift_threshold:
        KS statistic above which a refit happens immediately and the
        damping is bypassed (the old delay is stale by assumption).
    window:
        Observation window capacity.
    truncate_window_on_drift:
        When a drift refit fires, first shrink the window to the batch
        that triggered it. Without this, a fit right after a regime
        change mixes old- and new-regime samples, which misestimates the
        survival ``Pr(X > d)`` and therefore the budget-consistent ``q``
        — the live serving layer turns this on.
    """

    def __init__(
        self,
        percentile: float,
        budget: float,
        refit_interval: int = 5_000,
        learning_rate: float = 0.5,
        drift_threshold: float = 0.12,
        window: int = 50_000,
        use_correlation: bool = True,
        min_pairs_for_correlation: int = 50,
        truncate_window_on_drift: bool = False,
    ):
        if not 0.0 < percentile < 1.0:
            raise ValueError("percentile must be in (0, 1)")
        if not 0.0 < budget <= 1.0:
            raise ValueError("budget must be in (0, 1]")
        if refit_interval < 100:
            raise ValueError("refit_interval must be >= 100")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        self.percentile = float(percentile)
        self.budget = float(budget)
        self.refit_interval = int(refit_interval)
        self.learning_rate = float(learning_rate)
        self.use_correlation = use_correlation
        self.min_pairs_for_correlation = int(min_pairs_for_correlation)
        self.truncate_window_on_drift = bool(truncate_window_on_drift)
        self.log = SlidingWindowLog(window)
        self.drift = DriftDetector(threshold=drift_threshold)
        self.policy = SingleR(0.0, self.budget)  # §4.3 starting point
        self.events: list[RefitEvent] = []
        self._since_refit = 0

    def observe(self, primary, pair_x=None, pair_y=None) -> SingleR:
        """Feed one batch of measurements; returns the (possibly new)
        policy to use for subsequent requests."""
        primary = np.asarray(primary, dtype=np.float64)
        self.log.extend(primary, pair_x, pair_y)
        self._since_refit += int(primary.size)

        drifted = self.drift.update(primary)
        if drifted:
            if self.truncate_window_on_drift:
                n_pairs = 0 if pair_x is None else np.asarray(pair_x).size
                self.log.keep_last(int(primary.size), keep_pairs=int(n_pairs))
            self._refit(reason="drift", damped=False)
        elif self._since_refit >= self.refit_interval:
            self._refit(reason="batch", damped=True)
        return self.policy

    def _fit(self) -> SingleRFit:
        """One window refit through the ``online`` solver.

        The solver applies the same rule this method used to inline:
        correlated search when the window holds enough reissue pairs,
        otherwise the (now vectorized) empirical sweep with ``ry``
        falling back to ``rx`` when the pair log alone is too thin —
        e.g. right after a drift truncation kept only the triggering
        batch's probes. Routing through :mod:`repro.optimize` means live
        serving refits and offline figure fits share one core.
        """
        # Lazy: repro.optimize pulls in the scenario registries.
        from ..optimize import FitRequest, solve

        px, py = self.log.pairs()
        result = solve(
            FitRequest(
                percentile=self.percentile,
                budget=self.budget,
                rx=self.log.primary(),
                pair_x=px,
                pair_y=py,
                options={
                    "use_correlation": self.use_correlation,
                    "min_pairs": self.min_pairs_for_correlation,
                },
            ),
            solver="online",
        )
        return result.fit

    def _refit(self, reason: str, damped: bool) -> None:
        if len(self.log) < 200:
            return  # not enough signal to fit anything yet
        fit = self._fit()
        if damped:
            d_new = self.policy.delay + self.learning_rate * (
                fit.delay - self.policy.delay
            )
        else:
            d_new = fit.delay
        rx_sorted = np.sort(self.log.primary())
        surv = 1.0 - discrete_cdf(rx_sorted, d_new)
        q_new = 1.0 if surv <= self.budget else self.budget / surv
        self.policy = SingleR(float(d_new), float(q_new))
        self.events.append(
            RefitEvent(
                observations=self.log.total_seen,
                reason=reason,
                policy=self.policy,
                fit=fit,
            )
        )
        self._since_refit = 0

    @property
    def n_refits(self) -> int:
        return len(self.events)
