"""Tests for the serving fleet's parts (policy store, selectors, the
in-loop shard) and for what only in-loop shards can show: deterministic
backends and injected faults (the chaos layer). The front-door contract
shared by every shard kind is in ``test_serving_contract.py``."""

import asyncio

import numpy as np
import pytest

from repro.core.policies import NoReissue, SingleR
from repro.distributions import Deterministic, LogNormal
from repro.serving.backends import SyntheticBackend
from repro.serving.chaos import ChaosBackend
from repro.serving.fleet import (
    SHARD_SELECTORS,
    PolicyStore,
    ServingFleet,
    ShardWorker,
    make_selector,
)
from repro.serving.hedge import HedgedClient
from repro.serving.loadgen import LoadGenerator


def synthetic_factory(dist, time_scale):
    def factory(shard_id, rng):
        return SyntheticBackend(dist, time_scale=time_scale, rng=rng)

    return factory


def build_fleet(
    n_shards=2,
    dist=None,
    time_scale=0.0,
    policy=None,
    seed=7,
    **kwargs,
):
    return ServingFleet.build(
        n_shards,
        synthetic_factory(dist or LogNormal(3.0, 0.6), time_scale),
        policy=policy if policy is not None else SingleR(40.0, 0.2),
        seed=seed,
        **kwargs,
    )


class TestPolicyStore:
    def test_publish_bumps_version_and_snapshots(self):
        store = PolicyStore()
        assert store.get() == (0, None)
        v1 = store.publish(SingleR(10.0, 0.1), source="test")
        v2 = store.publish(SingleR(20.0, 0.2))
        assert (v1, v2) == (1, 2)
        version, policy = store.get()
        assert version == 2
        assert policy == SingleR(20.0, 0.2)
        assert store.publishes == [(1, "test"), (2, "")]

    def test_seed_policy_is_published_as_init(self):
        store = PolicyStore(SingleR(5.0, 0.5))
        assert store.version == 1
        assert store.publishes == [(1, "init")]

    def test_non_policy_rejected(self):
        with pytest.raises(TypeError):
            PolicyStore().publish("single-r")


class TestShardSelectors:
    def test_round_robin_cycles(self):
        selector = make_selector("round-robin")
        shards = [object(), object(), object()]
        picks = [selector.select(shards, i) for i in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_hash_is_stable_and_key_affine(self):
        selector = make_selector("hash")
        shards = [object(), object(), object()]
        # Same query id -> same shard, every time (crc32, not salted hash).
        assert selector.select(shards, 42) == selector.select(shards, 42)
        # An explicit routing key overrides the query id.
        by_key = selector.select(shards, 1, key="user:7")
        assert by_key == selector.select(shards, 999, key="user:7")
        # Spread: 200 distinct ids should not all land on one shard.
        picks = {selector.select(shards, i) for i in range(200)}
        assert picks == {0, 1, 2}

    def test_least_loaded_picks_min_active(self):
        selector = make_selector("least-loaded")

        class FakeShard:
            def __init__(self, load):
                self.load = load

        shards = [FakeShard(3), FakeShard(1), FakeShard(2)]
        assert selector.select(shards, 0) == 1
        shards[1].load = 9
        assert selector.select(shards, 1) == 2

    def test_unknown_selector_names_kind_and_lists_valid(self):
        with pytest.raises(KeyError) as exc:
            make_selector("rendezvous")
        message = str(exc.value)
        assert "shard-selection strategy" in message
        assert "'rendezvous'" in message
        for name in SHARD_SELECTORS.names():
            assert name in message


class TestShardWorker:
    def test_admission_limit_validated(self):
        client = HedgedClient(SyntheticBackend(Deterministic(1.0), 0.0))
        with pytest.raises(ValueError):
            ShardWorker(0, client, PolicyStore(), admission_limit=0)

    def test_untuned_shard_adopts_store_policy(self):
        client = HedgedClient(
            SyntheticBackend(Deterministic(1.0), 0.0), NoReissue()
        )
        store = PolicyStore(SingleR(10.0, 0.1))
        worker = ShardWorker(0, client, store)
        worker.sync_policy()
        assert client.policy == SingleR(10.0, 0.1)
        store.publish(SingleR(30.0, 0.3))
        worker.sync_policy()
        assert client.policy == SingleR(30.0, 0.3)


class TestFleetBasics:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ServingFleet([])
        with pytest.raises(ValueError):
            build_fleet(n_shards=0)

    def test_tuned_shard_out_of_range(self):
        with pytest.raises(ValueError):
            ServingFleet.build(
                2,
                synthetic_factory(Deterministic(1.0), 0.0),
                tuner=object(),
                tuned_shard=5,
            )

    def test_seed_policy_pins_every_shard(self):
        fleet = build_fleet(policy=SingleR(25.0, 0.4))
        asyncio.run(self._drive(fleet, 10))
        for shard in fleet.shards:
            assert shard.client.policy == SingleR(25.0, 0.4)

    def test_error_containment_counts_instead_of_raising(self):
        class FailingBackend:
            time_scale = 0.0

            async def request(self, query_id, *, is_reissue=False):
                raise RuntimeError("backend down")

        clients = [
            HedgedClient(FailingBackend(), NoReissue()),
            HedgedClient(
                SyntheticBackend(Deterministic(1.0), 0.0), NoReissue()
            ),
        ]
        fleet = ServingFleet(clients)
        results = asyncio.run(self._drive(fleet, 10))
        # Round-robin: every other request hits the failing shard and is
        # contained (None), the rest serve normally — no exception.
        assert results.count(None) == 5
        assert fleet.errors == 5
        assert fleet.shards[0].errors == 5
        assert fleet.shards[1].completed == 5
        stats = fleet.stats()
        assert stats["requests"] == stats["completed"] + stats["errors"] == 10

    @staticmethod
    async def _drive(fleet, n):
        return [await fleet.request(i) for i in range(n)]


class TestAutoTunerPropagation:
    def test_tuned_shard_never_subscribes(self):
        # A tuner-carrying client raises on policy assignment; the sync
        # path must publish from it, never write to it.
        from repro.serving.autotune import AutoTuner

        tuner = AutoTuner(percentile=0.95, budget=0.2)
        client = HedgedClient(
            SyntheticBackend(Deterministic(1.0), 0.0), tuner=tuner
        )
        store = PolicyStore(SingleR(99.0, 0.9))
        worker = ShardWorker(0, client, store)
        worker.sync_policy()  # must not raise RuntimeError
        assert client.policy == tuner.policy


class TestAdmissionControl:
    def test_overload_is_served_at_native_latency(self):
        # An unpaced burst far above capacity: every admitted request is
        # served at its native latency (no queueing collapse behind a
        # backlog).
        fleet = build_fleet(
            n_shards=2,
            dist=Deterministic(20.0),
            time_scale=2e-4,
            policy=NoReissue(),
            admission_limit=4,
        )
        generator = LoadGenerator(fleet, rng=np.random.default_rng(5))
        result = generator.run(300, mode="open", target_rps=0)
        assert result.shed > 0, "overload never shed"
        # Admitted requests are served at the backend's deterministic
        # 20 ms — a collapsing fleet would show queue-inflated tails.
        merged = fleet.metrics()
        assert merged.quantile(0.99) == pytest.approx(20.0, rel=0.01)
        assert result.quantiles["p99"] == pytest.approx(20.0, rel=0.01)

    def test_no_limit_never_sheds(self):
        fleet = build_fleet(dist=Deterministic(5.0), time_scale=2e-4)
        result = LoadGenerator(fleet).run(100, mode="open", target_rps=0)
        assert result.shed == 0
        assert result.completed == 100


class TestChaosResilience:
    @staticmethod
    def degraded_fleet(policy, seed=23):
        """Two shards; shard 1's backend spikes 10% of attempts 20x."""
        chaos = []

        def factory(shard_id, rng):
            backend = SyntheticBackend(
                LogNormal(2.0, 0.3), time_scale=2e-5, rng=rng
            )
            if shard_id == 1:
                wrapped = ChaosBackend(
                    backend, rng=np.random.default_rng(1000 + shard_id)
                )
                wrapped.spike(factor=20.0, prob=0.1)
                chaos.append(wrapped)
                return wrapped
            return backend

        fleet = ServingFleet.build(2, factory, policy=policy, seed=seed)
        return fleet, chaos[0]

    def run_fleet(self, policy):
        fleet, chaos = self.degraded_fleet(policy)
        LoadGenerator(fleet, rng=np.random.default_rng(2)).run(
            800, mode="open", target_rps=0
        )
        return fleet, chaos

    def test_hedging_bounds_p99_under_single_shard_degradation(self):
        # Acceptance criterion: with 10% of one shard's attempts spiked
        # 20x (≈5% of fleet traffic ≥ ~100 ms), an unhedged fleet's p99
        # sits in spike territory; hedging re-races the spiked attempts
        # and keeps the fleet p99 bounded near the healthy tail.
        unhedged_fleet, _ = self.run_fleet(NoReissue())
        hedged_fleet, chaos = self.run_fleet(SingleR(15.0, 1.0))
        unhedged_p99 = unhedged_fleet.metrics().quantile(0.99)
        hedged_p99 = hedged_fleet.metrics().quantile(0.99)
        assert chaos.spiked > 0, "the chaos spike never fired"
        assert unhedged_p99 > 100.0, "degradation not visible unhedged"
        assert hedged_p99 < 40.0, f"hedged p99 unbounded: {hedged_p99:.1f}"
        assert hedged_p99 < unhedged_p99 / 3.0

    def test_fleet_counters_merge_exactly_under_churn(self):
        # Under spikes + an error burst + deadlines, the merged fleet
        # counters must equal the per-shard sums exactly (digests merge
        # within tolerance; counters admit no slack).
        chaos = []

        def factory(shard_id, rng):
            backend = SyntheticBackend(
                LogNormal(2.0, 0.3), time_scale=2e-5, rng=rng
            )
            wrapped = ChaosBackend(
                backend, rng=np.random.default_rng(2000 + shard_id)
            )
            if shard_id == 0:
                wrapped.spike(factor=10.0, prob=0.2)
                wrapped.error_burst(10)
            chaos.append(wrapped)
            return wrapped

        fleet = ServingFleet.build(
            2,
            factory,
            policy=SingleR(10.0, 0.5),
            deadline_ms=120.0,
            probe_fraction=0.05,
            seed=31,
        )
        result = LoadGenerator(fleet, rng=np.random.default_rng(6)).run(
            600, mode="open", target_rps=0
        )
        merged = fleet.metrics()
        for counter in (
            "completed",
            "reissues_sent",
            "reissue_wins",
            "cancelled_attempts",
            "deadline_exceeded",
            "probes",
        ):
            per_shard_sum = sum(
                getattr(s.client.metrics, counter) for s in fleet.shards
            )
            assert getattr(merged, counter) == per_shard_sum, counter
        assert result.issued == result.completed + result.shed + result.errors
        assert chaos[0].errors_injected == 10

    def test_blackout_shard_degrades_to_deadline_misses(self):
        # A blacked-out shard must not hang the fleet: with a deadline,
        # its requests complete as misses at the deadline latency while
        # the healthy shard is untouched.
        chaos = []

        def factory(shard_id, rng):
            backend = SyntheticBackend(
                Deterministic(5.0), time_scale=2e-4, rng=rng
            )
            if shard_id == 0:
                wrapped = ChaosBackend(backend)
                wrapped.blackout()
                chaos.append(wrapped)
                return wrapped
            return backend

        fleet = ServingFleet.build(
            2, factory, policy=NoReissue(), deadline_ms=30.0, seed=3
        )

        async def drive():
            return [await fleet.request(i) for i in range(10)]

        results = asyncio.run(drive())
        dead = [o for o in results if o is not None and o.deadline_exceeded]
        alive = [
            o for o in results if o is not None and not o.deadline_exceeded
        ]
        assert len(dead) == 5 and len(alive) == 5
        for outcome in dead:
            assert outcome.winner == "none"
            assert outcome.latency_ms == pytest.approx(30.0)
        for outcome in alive:
            assert outcome.latency_ms == pytest.approx(5.0)
        assert chaos[0].blackholed == 5
