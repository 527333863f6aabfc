"""Closed-loop policy adaptation for the live hedging runtime.

:class:`AutoTuner` is the glue the docstring of :mod:`repro.core.online`
promises: it stands between a :class:`~repro.serving.hedge.HedgedClient`
and an :class:`~repro.core.online.OnlinePolicyController`, turning raw
request outcomes into the unbiased observation stream the controller
expects, and exposing the controller's current :class:`SingleR` back to
the client as *the* policy for subsequent requests.

Sample hygiene matters here. A hedged request's observed latency is
``min(X, d + Y)`` — feeding that to the fitter would bias the primary
distribution low. The tuner therefore only learns from:

* **probe pairs** ``(x, y)`` — both attempts ran to completion, so both
  are full, uncensored draws; and
* requests whose drawn plan was *empty* (the stage coins all failed).
  The coins are flipped independently of the service time, so these are
  unbiased draws of the primary distribution ``X`` — a free importance
  sample worth ``(1 - q)`` of the traffic.

Deadline-expired requests are censored and excluded — except probes,
whose attempts both ran to completion and are fully observed even when
they missed the SLA.

Refit scheduling: with ``refit_mode="executor"`` controller refits run
on a single-worker thread pool, so a refit over a large window never
pauses the event loop's timer dispatch — batches are handed to the
worker in arrival order, and :meth:`AutoTuner.drain` joins the queue
when a deterministic read of the tuned policy is needed. The default
``refit_mode="sync"`` keeps the historical inline behaviour: every
refit completes inside ``record``, which is what tests (and any caller
that wants strictly reproducible policy timelines) rely on.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor

from ..core.online import OnlinePolicyController
from ..core.policies import ReissuePolicy, SingleR

REFIT_MODES = ("sync", "executor")


class AutoTuner:
    """Feed live request outcomes into an on-line policy controller.

    Parameters
    ----------
    percentile, budget:
        Optimization target, as in the offline fitters (e.g. ``0.99`` at
        a 5% reissue budget).
    batch_size:
        Observations buffered between controller feeds; small batches
        track drift faster at slightly more fitting work.
    controller:
        Bring your own (pre-configured) controller; by default one is
        built from ``percentile`` / ``budget`` and ``controller_kwargs``.
    initial_policy:
        Policy served before the first refit (default: the controller's
        §4.3 cold-start ``SingleR(0, budget)``).
    refit_mode:
        ``"sync"`` (default) refits inline inside ``record`` —
        deterministic, the mode tests use. ``"executor"`` hands each
        flushed batch to a single-worker thread pool so refits never
        block the serving event loop; call :meth:`drain` to wait for
        in-flight refits (or :meth:`close` to drain and shut down).
    """

    def __init__(
        self,
        percentile: float = 0.99,
        budget: float = 0.05,
        *,
        batch_size: int = 500,
        controller: OnlinePolicyController | None = None,
        initial_policy: ReissuePolicy | None = None,
        refit_mode: str = "sync",
        **controller_kwargs,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if refit_mode not in REFIT_MODES:
            raise ValueError(
                f"refit_mode must be one of {REFIT_MODES}, got {refit_mode!r}"
            )
        if controller is None:
            # Serving default: after a drift refit, fit only the regime
            # that triggered it — mixed-regime windows misprice q.
            controller_kwargs.setdefault("truncate_window_on_drift", True)
            controller = OnlinePolicyController(
                percentile=percentile, budget=budget, **controller_kwargs
            )
        elif controller_kwargs:
            raise ValueError(
                "pass controller_kwargs only when the tuner builds the "
                "controller itself"
            )
        self.controller = controller
        self.batch_size = int(batch_size)
        self._initial_policy = (
            initial_policy
            if initial_policy is not None
            else SingleR(0.0, controller.budget)
        )
        self._primary: list[float] = []
        self._pair_x: list[float] = []
        self._pair_y: list[float] = []
        self.samples_used = 0
        self.samples_discarded = 0
        self.refit_mode = refit_mode
        self._executor: ThreadPoolExecutor | None = None
        self._pending: list[Future] = []
        self._refit_error: BaseException | None = None
        #: Background refits that raised (executor mode). The first
        #: exception is re-raised by :meth:`drain`; this counts them all.
        self.refit_failures = 0

    # -- the policy the client serves with ----------------------------------
    @property
    def policy(self) -> ReissuePolicy:
        """Current policy: the controller's once it has refit at least
        once, the initial policy before that."""
        if self.controller.n_refits > 0:
            return self.controller.policy
        return self._initial_policy

    @property
    def n_refits(self) -> int:
        return self.controller.n_refits

    @property
    def events(self):
        return self.controller.events

    # -- observation intake --------------------------------------------------
    def record(self, outcome) -> None:
        """Fold one :class:`RequestOutcome` into the learning buffers."""
        if outcome.deadline_exceeded and outcome.pair is None:
            # Censored at the deadline. (Probes are exempt: both their
            # attempts ran to completion, so the pair is fully observed
            # even when it missed the SLA.)
            self.samples_discarded += 1
            return
        if outcome.pair is not None:
            x, y = outcome.pair
            self._primary.append(float(x))
            self._pair_x.append(float(x))
            self._pair_y.append(float(y))
            self.samples_used += 1
        elif outcome.n_planned == 0:
            # No stage coin succeeded: the request ran unhedged, so its
            # latency is a full draw of the primary distribution.
            self._primary.append(float(outcome.latency_ms))
            self.samples_used += 1
        else:
            self.samples_discarded += 1  # censored by the hedge race
        if len(self._primary) >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        """Hand buffered observations to the controller.

        Sync mode runs the (possible) refit inline; executor mode
        snapshots the buffers and enqueues the feed on the single
        worker, returning immediately — observation order is preserved
        because the pool has exactly one thread.
        """
        if not self._primary:
            return
        primary = list(self._primary)
        pair_x = list(self._pair_x)
        pair_y = list(self._pair_y)
        self._primary.clear()
        self._pair_x.clear()
        self._pair_y.clear()
        if self.refit_mode == "sync":
            self._observe(primary, pair_x, pair_y)
            return
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-autotune"
            )
        self._collect_done()
        self._pending.append(
            self._executor.submit(self._observe, primary, pair_x, pair_y)
        )

    def _collect_done(self) -> None:
        """Drop completed futures, latching the first failure.

        A failed refit must not vanish in housekeeping — drain()
        surfaces the latched exception — but keeping failed futures
        around would grow without bound under a persistently bad feed,
        so errors are folded into one latched exception + a counter.
        """
        still: list[Future] = []
        for future in self._pending:
            if not future.done():
                still.append(future)
                continue
            exc = future.exception()
            if exc is not None:
                self.refit_failures += 1
                if self._refit_error is None:
                    self._refit_error = exc
        self._pending = still

    def _observe(self, primary, pair_x, pair_y) -> None:
        if pair_x:
            self.controller.observe(primary, pair_x, pair_y)
        else:
            self.controller.observe(primary)

    def drain(self) -> None:
        """Flush, then wait for every in-flight executor refit.

        After ``drain`` returns, :attr:`policy` reflects all recorded
        observations — the deterministic read point for reports and
        tests running in executor mode. Re-raises the *first* exception
        any background refit raised since the last drain
        (:attr:`refit_failures` counts them all).
        """
        self.flush()
        pending, self._pending = self._pending, []
        for future in pending:
            try:
                future.result()
            except BaseException as exc:  # noqa: BLE001 - latched below
                self.refit_failures += 1
                if self._refit_error is None:
                    self._refit_error = exc
        if self._refit_error is not None:
            error, self._refit_error = self._refit_error, None
            raise error

    def close(self) -> None:
        """Drain and shut the refit worker down (idempotent).

        The worker is shut down even when drain re-raises a failed
        refit — no thread outlives a crashing close.
        """
        try:
            self.drain()
        finally:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
