"""Tests for the analytic optimizer module and the event queue."""

import numpy as np
import pytest

from oracles.multistage import optimal_doubler
from repro.core.analytic import (
    optimal_singled,
    optimal_singler,
    singler_tail_for_delay,
)
from repro.core.policies import MultipleR, SingleD, SingleR
from repro.distributions import Exponential, LogNormal, Pareto
from repro.simulation.events import (
    ARRIVAL,
    DEPARTURE,
    REISSUE_CHECK,
    EventQueue,
)


class TestAnalyticSingleR:
    def test_tail_for_delay_spends_full_budget(self):
        dist = Exponential(1.0)
        t_hi = float(dist.quantile(1 - 1e-9))
        d = float(dist.quantile(0.5))
        t = singler_tail_for_delay(d, dist, dist, 0.95, 0.2, t_hi)
        pol = SingleR(d, 0.2 / float(dist.survival(d)))
        assert t == pytest.approx(
            pol.tail_latency(95.0, dist, dist), rel=1e-6
        )

    def test_optimal_singler_beats_endpoints(self):
        dist = Pareto(1.1, 2.0)
        fit = optimal_singler(dist, dist, percentile=0.95, budget=0.1)
        # Both extremes — immediate (d=0) and the SingleD corner — are in
        # the search space, so the optimum can only be at least as good.
        d0 = singler_tail_for_delay(
            0.0, dist, dist, 0.95, 0.1, float(dist.quantile(1 - 1e-9))
        )
        d1 = optimal_singled(dist, dist, 0.95, 0.1).tail
        assert fit.tail <= d0 + 1e-6
        assert fit.tail <= d1 + 1e-6

    def test_optimal_singled_matches_eq2(self):
        dist = LogNormal(1.0, 1.0)
        fit = optimal_singled(dist, dist, 0.95, 0.2)
        assert isinstance(fit.policy, SingleD)
        assert float(dist.survival(fit.policy.delay)) == pytest.approx(
            0.2, rel=1e-6
        )

    def test_doubler_never_beats_singler(self):
        dist = Exponential(0.8)
        sr = optimal_singler(dist, dist, percentile=0.9, budget=0.2)
        dr = optimal_doubler(dist, dist, percentile=0.9, budget=0.2, grid=10)
        assert dr.tail >= sr.tail - 1e-5 * sr.tail

    def test_doubler_respects_budget(self):
        dist = Exponential(0.8)
        dr = optimal_doubler(dist, dist, percentile=0.9, budget=0.2, grid=8)
        assert dr.policy.expected_budget(dist, dist) <= 0.2 + 1e-6

    def test_multipler_budget_helper(self):
        dist = Exponential(1.0)
        b = MultipleR([(0.0, 0.5), (1.0, 0.5)]).expected_budget(dist, dist)
        # Stage 1 fires with 0.5; stage 2 fires iff the coin succeeds and
        # both the primary and the (possibly issued) first copy are
        # outstanding at t=1.
        s = float(dist.survival(1.0))
        expected = 0.5 + 0.5 * s * (1 - 0.5 * float(dist.cdf(1.0)))
        assert b == pytest.approx(expected)

    def test_validation(self):
        dist = Exponential(1.0)
        with pytest.raises(ValueError):
            optimal_singler(dist, dist, percentile=0.0, budget=0.1)
        with pytest.raises(ValueError):
            optimal_singled(dist, dist, percentile=0.9, budget=0.0)


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(3.0, ARRIVAL, "c")
        q.push(1.0, ARRIVAL, "a")
        q.push(2.0, ARRIVAL, "b")
        assert [e[3] for e in q.drain()] == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        q.push(1.0, DEPARTURE, "first")
        q.push(1.0, ARRIVAL, "second")
        q.push(1.0, REISSUE_CHECK, "third")
        assert [e[3] for e in q.drain()] == ["first", "second", "third"]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-0.1, ARRIVAL, None)

    def test_len_bool_peek(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(5.0, ARRIVAL, 1)
        assert q and len(q) == 1
        assert q.peek_time() == 5.0
        q.pop()
        assert not q

    def test_event_tuple_shape(self):
        q = EventQueue()
        q.push(1.5, REISSUE_CHECK, 42)
        time, seq, kind, payload = q.pop()
        assert (time, kind, payload) == (1.5, REISSUE_CHECK, 42)
        assert isinstance(seq, int)
