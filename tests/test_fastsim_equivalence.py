"""Seed-for-seed equivalence: fastsim kernel tiers vs the reference loop.

The acceptance bar for the batch layer: for any fixed seed, every fast
kernel tier must produce a ``RunResult`` bit-for-bit identical to
``simulate_cluster_reference`` — same latencies, same pair logs, same
utilization floats, same meta counters. Covered axes: policy family,
queue discipline, load balancer, cancellation, rate spec, and the
``sample_reissue_for`` service-model protocol.

The whole matrix runs once per kernel tier (an autouse fixture pins
``REPRO_KERNEL``): the mandatory ``numpy`` tier, the ``interpreted``
tier (``fastsim/_core.py``, the structured-array core in Python) and the
``compiled`` tier (its C port, ``fastsim/_core.c``). ``TestEdgeCases``
also holds ``compiled`` and ``interpreted`` to each other on the event
orderings most likely to tell two ports apart.
"""

import numpy as np
import pytest

from repro.core.policies import (
    ImmediateReissue,
    MultipleR,
    NoReissue,
    SingleD,
    SingleR,
)
from repro.distributions import Deterministic, Exponential, Pareto
from repro.fastsim import (
    ReplicationSpec,
    simulate_batch,
    simulate_replication,
    simulate_replication_tiered,
)
from repro.fastsim.kernel import queue_mode
from repro.simulation.arrivals import PoissonArrivals, TraceArrivals
from repro.simulation.engine import (
    ClusterConfig,
    simulate_cluster,
    simulate_cluster_reference,
)
from repro.simulation.workloads import ServiceModel


@pytest.fixture(
    autouse=True,
    params=["numpy", "interpreted", "compiled"],
)
def kernel_tier(request, monkeypatch):
    """Pin the kernel tier for every test in this module via the same
    environment switch users reach for (``REPRO_KERNEL``)."""
    monkeypatch.setenv("REPRO_KERNEL", request.param)
    return request.param


def make_config(**over):
    defaults = dict(
        arrivals=PoissonArrivals(1.2),
        service_model=ServiceModel(Exponential(1.0), correlation=0.5),
        n_queries=1500,
        n_servers=4,
        warmup_fraction=0.05,
    )
    defaults.update(over)
    return ClusterConfig(**defaults)


def assert_bitwise_equal(a, b):
    np.testing.assert_array_equal(a.latencies, b.latencies)
    np.testing.assert_array_equal(
        a.primary_response_times, b.primary_response_times
    )
    np.testing.assert_array_equal(a.reissue_pair_x, b.reissue_pair_x)
    np.testing.assert_array_equal(a.reissue_pair_y, b.reissue_pair_y)
    assert a.reissue_rate == b.reissue_rate
    assert a.utilization == b.utilization
    assert a.meta == b.meta


POLICIES = {
    "none": NoReissue(),
    "immediate": ImmediateReissue(1),
    "singled": SingleD(0.8),
    "singler": SingleR(0.5, 0.4),
    "multir": MultipleR([(0.2, 0.3), (0.9, 0.5), (2.0, 1.0)]),
}


class TestPolicyMatrix:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_policies_match_reference(self, name):
        cfg = make_config()
        fast = simulate_replication(cfg, POLICIES[name], 17)
        ref = simulate_cluster_reference(cfg, POLICIES[name], 17)
        assert_bitwise_equal(fast, ref)

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_simulate_cluster_is_the_kernel(self, name):
        cfg = make_config()
        assert_bitwise_equal(
            simulate_cluster(cfg, POLICIES[name], 23),
            simulate_replication(cfg, POLICIES[name], 23),
        )


class TestDisciplinesAndBalancers:
    @pytest.mark.parametrize(
        "discipline", ["fifo", "prioritized-fifo", "prioritized-lifo"]
    )
    def test_disciplines(self, discipline):
        cfg = make_config(discipline=discipline)
        pol = SingleR(0.3, 0.6)
        assert_bitwise_equal(
            simulate_replication(cfg, pol, 5),
            simulate_cluster_reference(cfg, pol, 5),
        )

    @pytest.mark.parametrize(
        "balancer", ["random", "min-of-2", "min-of-all", "round-robin"]
    )
    def test_balancers(self, balancer):
        cfg = make_config(balancer=balancer)
        pol = SingleR(0.3, 0.6)
        assert_bitwise_equal(
            simulate_replication(cfg, pol, 7),
            simulate_cluster_reference(cfg, pol, 7),
        )

    def test_custom_discipline_falls_back_to_reference(self):
        from repro.simulation.queues import FifoQueue

        class TaggedFifo(FifoQueue):
            pass

        cfg = make_config(discipline=TaggedFifo)
        assert queue_mode(cfg) is None  # subclass: no specialization
        pol = SingleR(0.3, 0.6)
        assert_bitwise_equal(
            simulate_replication(cfg, pol, 9),
            simulate_cluster_reference(cfg, pol, 9),
        )


class TestProtocols:
    def test_cancellation(self):
        cfg = make_config(cancel_queued=True, cancel_overhead=0.05)
        pol = ImmediateReissue(2)
        fast = simulate_replication(cfg, pol, 11)
        ref = simulate_cluster_reference(cfg, pol, 11)
        assert fast.meta["n_cancelled"] > 0
        assert_bitwise_equal(fast, ref)

    def test_zero_overhead_cancellation_ties(self):
        # cancel_overhead=0 schedules departures at the current time —
        # the sharpest event-ordering edge case.
        cfg = make_config(cancel_queued=True, cancel_overhead=0.0)
        pol = ImmediateReissue(2)
        assert_bitwise_equal(
            simulate_replication(cfg, pol, 13),
            simulate_cluster_reference(cfg, pol, 13),
        )

    def test_target_utilization_rate_spec(self):
        cfg = make_config(arrivals=None, target_utilization=0.35)
        pol = SingleD(1.0)
        assert_bitwise_equal(
            simulate_replication(cfg, pol, 19),
            simulate_cluster_reference(cfg, pol, 19),
        )

    def test_heavy_tail_service(self):
        cfg = make_config(
            service_model=ServiceModel(Pareto(1.1, 2.0), correlation=0.5),
            arrivals=None,
            target_utilization=0.3,
        )
        pol = SingleR(8.0, 0.3)
        assert_bitwise_equal(
            simulate_replication(cfg, pol, 29),
            simulate_cluster_reference(cfg, pol, 29),
        )

    def test_sample_reissue_for_protocol(self):
        class PerQueryModel(ServiceModel):
            """Tracks per-query deterministic work, like the search tier."""

            def sample_primary(self, n, rng=None):
                self._det = super().sample_primary(n, rng)
                return self._det

            def sample_reissue_for(self, query_id, rng=None):
                from repro.distributions.base import as_rng

                return float(
                    self._det[query_id] * as_rng(rng).lognormal(0.0, 0.1)
                )

        cfg = make_config(service_model=PerQueryModel(Exponential(1.0)))
        pol = SingleR(0.4, 0.5)
        assert_bitwise_equal(
            simulate_replication(cfg, pol, 31),
            simulate_cluster_reference(cfg, pol, 31),
        )


class TestBatch:
    def test_batch_matches_single_runs(self):
        cfg = make_config()
        pol = SingleR(0.5, 0.4)
        specs = [ReplicationSpec(cfg, pol, seed=s, key=f"s{s}") for s in (1, 2, 3)]
        batch = simulate_batch(specs)
        for spec, run in zip(specs, batch):
            solo = simulate_cluster(cfg, pol, spec.seed)
            assert run.meta.pop("key") == spec.key
            assert_bitwise_equal(run, solo)

    def test_batch_composition_is_inert(self):
        cfg = make_config()
        a = ReplicationSpec(cfg, SingleR(0.5, 0.4), seed=42)
        b = ReplicationSpec(cfg, NoReissue(), seed=43)
        alone = simulate_batch([a])[0]
        paired = simulate_batch([b, a])[1]
        assert_bitwise_equal(alone, paired)


class TestDeterminism:
    def test_same_seed_same_bits(self):
        cfg = make_config()
        pol = MultipleR([(0.2, 0.3), (0.9, 0.5)])
        assert_bitwise_equal(
            simulate_cluster(cfg, pol, 37), simulate_cluster(cfg, pol, 37)
        )

    def test_different_seeds_differ(self):
        cfg = make_config()
        a = simulate_cluster(cfg, NoReissue(), 1)
        b = simulate_cluster(cfg, NoReissue(), 2)
        assert not np.array_equal(a.latencies, b.latencies)


class TestEdgeCases:
    """Orderings where a port could drift from its twin: the fixture's
    tier must equal the reference, and ``compiled`` must equal
    ``interpreted``, bit for bit."""

    def check(self, tier, cfg, policy, seed=41):
        ref = simulate_cluster_reference(cfg, policy, seed)
        run, executed = simulate_replication_tiered(cfg, policy, seed)
        assert executed == tier
        assert_bitwise_equal(run, ref)
        compiled, _ = simulate_replication_tiered(cfg, policy, seed, tier="compiled")
        interpreted, _ = simulate_replication_tiered(
            cfg, policy, seed, tier="interpreted"
        )
        assert_bitwise_equal(compiled, interpreted)
        return run

    def test_one_server(self, kernel_tier):
        self.check(kernel_tier, make_config(n_servers=1, n_queries=800), SingleR(0.5, 0.4))

    def test_tied_arrivals(self, kernel_tier):
        # Four queries share every timestamp: insertion order breaks ties.
        stamps = np.repeat(np.arange(400) * 2.0, 4)
        cfg = make_config(arrivals=TraceArrivals(stamps), n_queries=1600)
        self.check(kernel_tier, cfg, SingleR(0.5, 0.5))

    def test_tied_departures(self, kernel_tier):
        # Constant service on a constant clock: departures tie with each
        # other and with arrivals, so the (time, seq) order decides.
        cfg = make_config(
            service_model=ServiceModel(Deterministic(1.0)),
            arrivals=TraceArrivals(np.repeat(np.arange(500) * 0.5, 2)),
            n_queries=1000,
            discipline="prioritized-fifo",
        )
        self.check(kernel_tier, cfg, SingleD(1.0))

    def test_every_reissue_cancelled(self, kernel_tier):
        # One server, immediate reissues: each copy queues behind its own
        # primary and is cancelled when it reaches the server.
        cfg = make_config(
            n_servers=1,
            arrivals=PoissonArrivals(0.3),
            cancel_queued=True,
            cancel_overhead=0.05,
        )
        run = self.check(kernel_tier, cfg, ImmediateReissue(1))
        assert run.meta["n_cancelled"] == run.meta["n_reissues_total"] > 0

    def test_zero_cancel_overhead(self, kernel_tier):
        cfg = make_config(cancel_queued=True, cancel_overhead=0.0)
        run = self.check(kernel_tier, cfg, SingleR(0.2, 0.9))
        assert run.meta["n_cancelled"] > 0

    def test_empty_plan(self, kernel_tier):
        run = self.check(kernel_tier, make_config(cancel_queued=True), NoReissue())
        assert run.meta["n_reissues_total"] == 0

    def test_prioritized_lifo_near_saturation(self, kernel_tier):
        cfg = make_config(
            arrivals=None,
            target_utilization=0.95,
            discipline="prioritized-lifo",
        )
        self.check(kernel_tier, cfg, SingleR(0.5, 0.5))
