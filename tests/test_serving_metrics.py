"""Tests for the streaming serving telemetry (sketch accuracy, counters)."""

import numpy as np
import pytest

from repro.serving.hedge import RequestOutcome
from repro.serving.metrics import ServingMetrics


def outcome(
    latency=10.0,
    winner="primary",
    n_reissues=0,
    cancelled=0,
    deadline=False,
    pair=None,
):
    return RequestOutcome(
        query_id=0,
        latency_ms=latency,
        winner=winner,
        n_planned=1 if n_reissues else 0,
        n_reissues=n_reissues,
        cancelled_attempts=cancelled,
        deadline_exceeded=deadline,
        pair=pair,
    )


class TestSketchAccuracy:
    def test_tdigest_p99_within_5pct_of_exact(self, rng):
        # Acceptance criterion: live t-digest p99 vs exact np.quantile on
        # the same stream, within 5%.
        stream = rng.lognormal(3.0, 0.9, 20_000)
        m = ServingMetrics()
        for x in stream:
            m.record_latency(float(x))
        for p in (0.5, 0.99, 0.999):
            exact = float(np.quantile(stream, p))
            assert m.quantile(p) == pytest.approx(exact, rel=0.05)

    def test_digest_merge_across_clients(self, rng):
        a, b = ServingMetrics(), ServingMetrics()
        sa = rng.lognormal(3.0, 0.5, 5_000)
        sb = rng.lognormal(4.0, 0.5, 5_000)
        for x in sa:
            a.record_latency(float(x))
        for x in sb:
            b.record_latency(float(x))
        merged = a.merge_digest(b)
        exact = float(np.quantile(np.concatenate([sa, sb]), 0.99))
        assert merged.quantile(0.99) == pytest.approx(exact, rel=0.05)


class TestCounters:
    def test_reissue_rate(self):
        m = ServingMetrics()
        for _ in range(8):
            m.record(outcome())
        for _ in range(2):
            m.record(outcome(n_reissues=1, winner="reissue", cancelled=1))
        assert m.completed == 10
        assert m.reissue_rate == pytest.approx(0.2)
        assert m.reissue_wins == 2
        assert m.cancelled_attempts == 2

    def test_policy_rate_excludes_probes(self):
        m = ServingMetrics()
        for _ in range(8):
            m.record(outcome())
        for _ in range(2):
            m.record(outcome(n_reissues=1, pair=(5.0, 7.0)))
        assert m.probes == 2
        assert m.reissue_rate == pytest.approx(0.2)
        assert m.policy_reissue_rate == pytest.approx(0.0)

    def test_deadline_counter(self):
        m = ServingMetrics()
        m.record(outcome(latency=20.0, winner="none", deadline=True))
        assert m.deadline_exceeded == 1

    def test_empty_rates_are_zero(self):
        m = ServingMetrics()
        assert m.reissue_rate == 0.0
        assert m.policy_reissue_rate == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ServingMetrics().record_latency(-1.0)

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            ServingMetrics(percentiles=(1.5,))


class TestSnapshot:
    def test_snapshot_fields_and_render(self, rng):
        m = ServingMetrics()
        for x in rng.lognormal(3.0, 0.5, 1_000):
            m.record_latency(float(x))
        m.record(outcome(n_reissues=1, winner="reissue", cancelled=1))
        snap = m.snapshot()
        assert snap.completed == 1_001
        assert 0.5 in snap.quantiles and 0.99 in snap.quantiles
        assert snap.policy_reissue_rate == m.policy_reissue_rate
        text = snap.render()
        assert "requests completed" in text
        assert "policy reissue rate" in text
        assert "p99" in text

    def test_empty_snapshot(self):
        snap = ServingMetrics().snapshot()
        assert snap.completed == 0
        assert snap.quantiles == {}
        assert "requests completed" in snap.render()


class TestCrossShardMerge:
    def test_merge_equals_single_combined_client(self, rng):
        # Two shards each serve half the traffic; merging their metrics
        # must look like one client that served it all — counters exact,
        # digest quantiles within the documented sketch tolerance (~1%
        # through p99, a few percent at p999).
        streams = (
            rng.lognormal(3.0, 0.6, 4_000),
            rng.lognormal(3.6, 0.8, 4_000),
        )
        shards = (ServingMetrics(), ServingMetrics())
        combined = ServingMetrics()
        for shard, stream in zip(shards, streams):
            for i, latency in enumerate(stream):
                out = outcome(
                    latency=float(latency),
                    winner="reissue" if i % 5 == 0 else "primary",
                    n_reissues=1 if i % 3 == 0 else 0,
                    cancelled=1 if i % 5 == 0 else 0,
                    deadline=i % 97 == 0,
                    pair=(1.0, 2.0) if i % 11 == 0 else None,
                )
                shard.record(out)
                combined.record(out)
        merged = shards[0].merge(shards[1])
        for counter in (
            "completed",
            "reissues_sent",
            "reissue_wins",
            "cancelled_attempts",
            "deadline_exceeded",
            "probes",
        ):
            assert getattr(merged, counter) == getattr(combined, counter)
        for p in (0.5, 0.9, 0.99):
            assert merged.quantile(p) == pytest.approx(
                combined.quantile(p), rel=0.01
            )
        assert merged.quantile(0.999) == pytest.approx(
            combined.quantile(0.999), rel=0.05
        )

    def test_merge_leaves_shards_untouched(self, rng):
        a, b = ServingMetrics(), ServingMetrics()
        for x in rng.lognormal(3.0, 0.5, 500):
            a.record_latency(float(x))
        b.record(outcome(n_reissues=1, winner="reissue", cancelled=1))
        before = (a.completed, a.quantile(0.5), b.reissue_wins)
        a.merge(b)
        assert (a.completed, a.quantile(0.5), b.reissue_wins) == before

    def test_merge_unions_watched_percentiles(self):
        a = ServingMetrics(percentiles=(0.5, 0.99))
        b = ServingMetrics(percentiles=(0.9,))
        merged = a.merge(b)
        for x in range(1, 200):
            merged.record_latency(float(x))
        assert sorted(merged.snapshot().quantiles) == [0.5, 0.9, 0.99]


# -- property-based merge contract (requires hypothesis) ---------------------

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

#: Per-request outcome variants the generator cycles through; the kind
#: integer selects one, so every counter sees arbitrary mixes.
N_OUTCOME_KINDS = 10

MERGE_COUNTERS = (
    "completed",
    "reissues_sent",
    "reissue_wins",
    "cancelled_attempts",
    "deadline_exceeded",
    "probes",
)


def _outcome_of_kind(latency: float, kind: int):
    if kind == 0:  # cancellation win
        return outcome(
            latency=latency, winner="reissue", n_reissues=1, cancelled=1
        )
    if kind == 1:  # measurement probe
        return outcome(latency=latency, pair=(latency, latency + 1.0))
    if kind == 2:  # deadline miss
        return outcome(latency=latency, winner="none", deadline=True)
    if kind == 3:  # reissue sent, primary still won
        return outcome(latency=latency, n_reissues=1, cancelled=1)
    return outcome(latency=latency)


if HAVE_HYPOTHESIS:

    class TestMergePropertyBased:
        """For *arbitrary* shard splits of one outcome stream, merge()
        must keep counters exact and digest quantiles within the
        documented ~1% (p <= 0.99) / ~5% (p999) tolerances."""

        @given(
            items=st.lists(
                st.tuples(
                    st.floats(
                        min_value=0.0,
                        max_value=1e4,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                    st.integers(0, 3),  # owning shard
                    st.integers(0, N_OUTCOME_KINDS - 1),
                ),
                min_size=16,
                max_size=300,
            )
        )
        @settings(max_examples=40, deadline=None)
        def test_arbitrary_shard_split_matches_combined_stream(self, items):
            from functools import reduce

            shards = [ServingMetrics() for _ in range(4)]
            combined = ServingMetrics()
            for latency, shard_index, kind in items:
                out = _outcome_of_kind(latency, kind)
                shards[shard_index].record(out)
                combined.record(out)
            merged = reduce(lambda a, b: a.merge(b), shards)
            for counter in MERGE_COUNTERS:
                assert getattr(merged, counter) == getattr(
                    combined, counter
                ), counter
            for p in (0.5, 0.9, 0.99):
                assert merged.quantile(p) == pytest.approx(
                    combined.quantile(p), rel=0.01, abs=1e-9
                ), f"p{p}"
            assert merged.quantile(0.999) == pytest.approx(
                combined.quantile(0.999), rel=0.05, abs=1e-9
            )

        @given(
            latencies=st.lists(
                st.floats(
                    min_value=0.0,
                    max_value=1e4,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=2,
                max_size=200,
            )
        )
        @settings(max_examples=25, deadline=None)
        def test_merge_is_commutative_on_counters_and_tails(self, latencies):
            half = len(latencies) // 2
            a, b = ServingMetrics(), ServingMetrics()
            for x in latencies[:half]:
                a.record_latency(x)
            for x in latencies[half:]:
                b.record_latency(x)
            ab, ba = a.merge(b), b.merge(a)
            for counter in MERGE_COUNTERS:
                assert getattr(ab, counter) == getattr(ba, counter)
            for p in (0.5, 0.99):
                assert ab.quantile(p) == pytest.approx(
                    ba.quantile(p), rel=0.01, abs=1e-9
                )

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_merge_property_based_requires_hypothesis():
        """Placeholder so the skipped property suite stays visible."""
