"""Tests for the hedged request path: races, cancellation, admission.

These run real asyncio with a deterministic backend whose service times
are fixed, so winner identity and model latencies are exact while the
timer/cancellation machinery is exercised for real. Wall-clock margins
between the competing events are kept wide (≥ 5x) so scheduler jitter
cannot flip outcomes.
"""

import asyncio

import pytest

from repro.core.policies import (
    DoubleR,
    ImmediateReissue,
    NoReissue,
    SingleD,
    SingleR,
)
from repro.serving.backends import SimulatedBackend
from repro.serving.hedge import HedgedClient


class FixedBackend(SimulatedBackend):
    """Deterministic service times: one value for primaries, one for
    reissues."""

    def __init__(self, primary_ms, reissue_ms, time_scale=2e-4, rng=None):
        super().__init__(time_scale=time_scale, rng=rng)
        self.primary_ms = float(primary_ms)
        self.reissue_ms = float(reissue_ms)

    def service_time_ms(self, query_id, is_reissue):
        return self.reissue_ms if is_reissue else self.primary_ms


def run(coro):
    return asyncio.run(coro)


class TestRaceSemantics:
    def test_no_reissue_passthrough(self):
        be = FixedBackend(primary_ms=10.0, reissue_ms=1.0)
        client = HedgedClient(be, NoReissue(), rng=1)
        out = run(client.request(0))
        assert out.latency_ms == pytest.approx(10.0)
        assert out.winner == "primary"
        assert out.n_planned == 0 and out.n_reissues == 0
        assert be.started == 1

    def test_reissue_wins_and_primary_cancelled(self):
        n = 20
        be = FixedBackend(primary_ms=100.0, reissue_ms=1.0)
        client = HedgedClient(be, SingleD(5.0), rng=1)
        outs = run(client.serve(n))
        for out in outs:
            assert out.winner == "reissue"
            assert out.latency_ms == pytest.approx(6.0)  # d + reissue
            assert out.n_reissues == 1
            assert out.cancelled_attempts == 1
        # Every losing primary was cancelled and reaped.
        assert be.cancelled == n
        assert be.in_flight == 0
        assert client.metrics.reissue_wins == n
        assert client.metrics.cancelled_attempts == n

    def test_primary_wins_and_reissue_cancelled(self):
        n = 10
        be = FixedBackend(primary_ms=50.0, reissue_ms=100.0)
        client = HedgedClient(be, SingleD(5.0), rng=1)
        outs = run(client.serve(n))
        for out in outs:
            assert out.winner == "primary"
            assert out.latency_ms == pytest.approx(50.0)
            assert out.n_reissues == 1
            assert out.cancelled_attempts == 1
        assert be.cancelled == n
        assert be.in_flight == 0
        assert client.metrics.reissue_wins == 0

    def test_fast_primary_beats_timer_no_reissue_sent(self):
        be = FixedBackend(primary_ms=5.0, reissue_ms=1.0)
        client = HedgedClient(be, SingleD(50.0), rng=1)
        out = run(client.request(0))
        assert out.winner == "primary"
        assert out.n_planned == 1  # coin succeeded...
        assert out.n_reissues == 0  # ...but the primary beat the timer
        assert be.started == 1

    def test_model_latency_is_min_of_completions(self):
        # Reissue dispatched (timer 5 < primary 8) but primary still wins:
        # min(8, 5 + 10) = 8.
        be = FixedBackend(primary_ms=8.0, reissue_ms=10.0, time_scale=1e-3)
        client = HedgedClient(be, SingleD(5.0), rng=1)
        out = run(client.request(0))
        assert out.winner == "primary"
        assert out.latency_ms == pytest.approx(8.0)

    def test_zero_probability_stage_never_fires(self):
        be = FixedBackend(primary_ms=10.0, reissue_ms=1.0)
        client = HedgedClient(be, SingleR(1.0, 0.0), rng=1)
        outs = run(client.serve(10))
        assert all(o.n_planned == 0 and o.n_reissues == 0 for o in outs)

    def test_multi_stage_policy(self):
        # Stages at 5 and 15; reissue takes 30: completions at 35, 45 and
        # primary 200 — the first reissue wins at 35.
        be = FixedBackend(primary_ms=200.0, reissue_ms=30.0)
        client = HedgedClient(be, DoubleR(5.0, 1.0, 15.0, 1.0), rng=1)
        out = run(client.request(0))
        assert out.n_reissues == 2
        assert out.winner == "reissue"
        assert out.latency_ms == pytest.approx(35.0)
        assert out.cancelled_attempts == 2  # primary + the slower reissue
        assert be.in_flight == 0

    def test_immediate_reissue(self):
        be = FixedBackend(primary_ms=40.0, reissue_ms=4.0)
        client = HedgedClient(be, ImmediateReissue(), rng=1)
        out = run(client.request(0))
        assert out.winner == "reissue"
        assert out.latency_ms == pytest.approx(4.0)


class FlakyBackend(FixedBackend):
    """Raises on selected attempts instead of responding."""

    def __init__(self, *args, fail_primary=False, fail_reissue=False, **kw):
        super().__init__(*args, **kw)
        self.fail_primary = fail_primary
        self.fail_reissue = fail_reissue

    async def request(self, query_id, *, is_reissue=False):
        if (is_reissue and self.fail_reissue) or (
            not is_reissue and self.fail_primary
        ):
            await asyncio.sleep(0)
            raise ConnectionError("backend unavailable")
        return await super().request(query_id, is_reissue=is_reissue)


class TestAttemptFailures:
    def test_failed_reissue_does_not_kill_request(self):
        be = FlakyBackend(primary_ms=50.0, reissue_ms=1.0, fail_reissue=True)
        client = HedgedClient(be, SingleD(5.0), rng=1)
        out = run(client.request(0))
        assert out.winner == "primary"
        assert out.latency_ms == pytest.approx(50.0)
        assert be.in_flight == 0

    def test_failed_primary_survived_by_reissue(self):
        be = FlakyBackend(primary_ms=50.0, reissue_ms=10.0, fail_primary=True)
        client = HedgedClient(be, SingleD(5.0), rng=1)
        out = run(client.request(0))
        assert out.winner == "reissue"
        assert out.latency_ms == pytest.approx(15.0)  # d + reissue
        assert be.in_flight == 0

    def test_all_attempts_failed_raises_cleanly(self):
        be = FlakyBackend(
            primary_ms=50.0, reissue_ms=1.0,
            fail_primary=True, fail_reissue=True,
        )
        client = HedgedClient(be, SingleD(5.0), rng=1)
        with pytest.raises(ConnectionError):
            run(client.request(0))
        assert be.in_flight == 0
        assert client.in_flight == 0  # semaphore released

    def test_serve_finishes_siblings_when_one_request_fails(self):
        class OnePoisonedBackend(FixedBackend):
            async def request(self, query_id, *, is_reissue=False):
                if query_id == 3:
                    await asyncio.sleep(0)
                    raise ConnectionError("poisoned query")
                return await super().request(query_id, is_reissue=is_reissue)

        be = OnePoisonedBackend(primary_ms=10.0, reissue_ms=1.0)
        client = HedgedClient(be, NoReissue(), rng=1)
        with pytest.raises(ConnectionError):
            run(client.serve(10))
        # Every sibling ran to completion and was recorded — no
        # abandoned tasks, no lost telemetry.
        assert be.completed == 9
        assert client.metrics.completed == 9
        assert client.in_flight == 0

    def test_failed_probe_attempt_raises_without_leak(self):
        be = FlakyBackend(primary_ms=10.0, reissue_ms=4.0, fail_reissue=True)
        client = HedgedClient(
            be, NoReissue(), probe_fraction=0.999999, rng=1
        )
        with pytest.raises(ConnectionError):
            run(client.request(0))
        assert be.in_flight == 0


class TestDeadline:
    def test_deadline_cancels_everything(self):
        n = 5
        be = FixedBackend(primary_ms=500.0, reissue_ms=500.0)
        client = HedgedClient(be, SingleD(5.0), deadline_ms=20.0, rng=1)
        outs = run(client.serve(n))
        for out in outs:
            assert out.deadline_exceeded
            assert out.winner == "none"
            assert out.latency_ms == pytest.approx(20.0)
        assert be.completed == 0
        assert be.in_flight == 0
        assert be.cancelled == 2 * n  # primary + reissue per request
        assert client.metrics.deadline_exceeded == n

    def test_stage_beyond_deadline_not_dispatched(self):
        be = FixedBackend(primary_ms=500.0, reissue_ms=1.0)
        client = HedgedClient(be, SingleD(100.0), deadline_ms=20.0, rng=1)
        out = run(client.request(0))
        assert out.deadline_exceeded
        assert out.n_reissues == 0  # the d=100 stage never fired
        assert be.started == 1

    def test_fast_response_beats_deadline(self):
        be = FixedBackend(primary_ms=5.0, reissue_ms=1.0)
        client = HedgedClient(be, NoReissue(), deadline_ms=50.0, rng=1)
        out = run(client.request(0))
        assert not out.deadline_exceeded
        assert out.latency_ms == pytest.approx(5.0)

    def test_zero_time_scale_deadline_is_inert(self):
        # At time_scale=0 a wall-clock deadline is meaningless (every
        # model duration collapses to ~zero wall time); it must be a
        # no-op, not an instant expiry that cancels every request.
        def serve(deadline_ms):
            be = FixedBackend(
                primary_ms=100.0, reissue_ms=1.0, time_scale=0.0
            )
            client = HedgedClient(
                be, SingleD(5.0), deadline_ms=deadline_ms, rng=1
            )
            return run(client.serve(20)), be

        with_deadline, be1 = serve(1.0)
        without_deadline, be2 = serve(None)
        assert all(not o.deadline_exceeded for o in with_deadline)
        assert [o.latency_ms for o in with_deadline] == [
            o.latency_ms for o in without_deadline
        ]
        assert be1.completed == be2.completed

    def test_zero_time_scale_disables_stage_timers(self):
        # With instant wall timers a huge delay would still dispatch a
        # reissue on every coin success, mispricing the spend as ~q; at
        # scale 0 hedging timers are off entirely.
        be = FixedBackend(
            primary_ms=100.0, reissue_ms=1.0, time_scale=0.0
        )
        client = HedgedClient(be, SingleD(10_000.0), rng=1)
        outs = run(client.serve(20))
        assert sum(o.n_reissues for o in outs) == 0
        assert client.metrics.reissue_rate == 0.0

    def test_invalid_deadline_rejected(self):
        be = FixedBackend(primary_ms=5.0, reissue_ms=1.0)
        with pytest.raises(ValueError):
            HedgedClient(be, NoReissue(), deadline_ms=0.0)


class TestAdmissionControl:
    def test_concurrency_never_exceeded(self):
        limit = 4
        be = FixedBackend(primary_ms=20.0, reissue_ms=20.0)
        client = HedgedClient(be, NoReissue(), concurrency=limit, rng=1)
        run(client.serve(32))
        assert client.peak_in_flight == limit  # saturated but capped
        assert client.in_flight == 0
        assert client.metrics.completed == 32  # every admitted one recorded
        # Backend attempts are bounded by limit * attempts-per-request.
        assert be.peak_in_flight <= limit

    def test_concurrency_capped_with_hedging(self):
        limit = 3
        be = FixedBackend(primary_ms=50.0, reissue_ms=50.0)
        client = HedgedClient(be, ImmediateReissue(), concurrency=limit, rng=1)
        run(client.serve(12))
        assert client.peak_in_flight <= limit
        assert be.peak_in_flight <= 2 * limit  # primary + duplicate each
        assert client.metrics.completed == 12

    def test_invalid_concurrency_rejected(self):
        be = FixedBackend(primary_ms=5.0, reissue_ms=1.0)
        with pytest.raises(ValueError):
            HedgedClient(be, NoReissue(), concurrency=0)


class TestProbes:
    def test_probe_runs_both_to_completion(self):
        be = FixedBackend(primary_ms=10.0, reissue_ms=4.0)
        client = HedgedClient(
            be, NoReissue(), probe_fraction=0.999999, rng=1
        )
        out = run(client.request(0))
        assert out.pair == (10.0, 4.0)
        assert out.latency_ms == pytest.approx(4.0)
        assert out.winner == "reissue"
        assert out.cancelled_attempts == 0
        assert be.completed == 2 and be.cancelled == 0
        assert client.metrics.probes == 1
        # Nothing was cancelled, so this is not a cancellation win.
        assert client.metrics.reissue_wins == 0

    def test_probe_missing_deadline_is_counted(self):
        # Probes run to completion but still account against the SLA.
        be = FixedBackend(primary_ms=50.0, reissue_ms=40.0)
        client = HedgedClient(
            be, NoReissue(), deadline_ms=20.0, probe_fraction=0.999999, rng=1
        )
        out = run(client.request(0))
        assert out.pair == (50.0, 40.0)  # fully observed regardless
        assert out.deadline_exceeded
        assert out.latency_ms == pytest.approx(20.0)
        assert out.winner == "none"  # a miss has no cancellation win
        assert client.metrics.deadline_exceeded == 1
        assert client.metrics.reissue_wins == 0

    def test_probe_fraction_validated(self):
        be = FixedBackend(primary_ms=5.0, reissue_ms=1.0)
        with pytest.raises(ValueError):
            HedgedClient(be, NoReissue(), probe_fraction=1.0)


class TestServe:
    def test_serve_returns_outcomes_in_order(self):
        be = FixedBackend(primary_ms=2.0, reissue_ms=1.0)
        client = HedgedClient(be, NoReissue(), rng=1)
        outs = run(client.serve(8, start_id=100))
        assert [o.query_id for o in outs] == list(range(100, 108))

    def test_poisson_arrivals(self):
        be = FixedBackend(primary_ms=2.0, reissue_ms=1.0, time_scale=1e-5)
        client = HedgedClient(be, NoReissue(), rng=1)
        outs = run(client.serve(20, interarrival_ms=1.0, poisson=True))
        assert len(outs) == 20

    def test_policy_swap_between_requests(self):
        be = FixedBackend(primary_ms=50.0, reissue_ms=1.0)
        client = HedgedClient(be, NoReissue(), rng=1)
        out1 = run(client.request(0))
        client.policy = SingleD(5.0)
        out2 = run(client.request(1))
        assert out1.n_reissues == 0
        assert out2.n_reissues == 1

    def test_policy_setter_rejected_while_autotuned(self):
        from repro.serving import AutoTuner

        be = FixedBackend(primary_ms=10.0, reissue_ms=1.0)
        client = HedgedClient(
            be, tuner=AutoTuner(percentile=0.99, budget=0.1), rng=1
        )
        with pytest.raises(RuntimeError):
            client.policy = SingleD(5.0)
        client.tuner = None  # detaching unlocks manual pinning
        client.policy = SingleD(5.0)
        assert client.policy == SingleD(5.0)
