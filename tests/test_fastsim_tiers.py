"""The kernel-tier dispatcher: selection, overrides, visibility, property.

Four contracts:

* **Selection** — ``REPRO_KERNEL`` / ``tier=`` pick a tier; invalid
  names fail loudly; ``compiled`` without a working C compiler raises
  with the reason instead of silently downgrading; automatic selection
  prefers ``compiled`` exactly when the C library builds or loads.
* **Structural fallbacks are visible** — unspecialized disciplines run
  ``reference``, backlog-dependent balancers degrade the array core to
  ``numpy``, and both show up in the executed-tier return value, the
  batch span attributes, the metric registry, and
  ``ScenarioReport.summary()["fastsim"]``.
* **Property** — for random ``ClusterConfig``/policy draws, every tier
  is bit-for-bit equal to ``simulate_cluster_reference`` (the directed
  matrix lives in ``test_fastsim_equivalence.py``).
* **No compiler** — with the compiler lookup patched to find nothing,
  or to a compiler that fails (the ``no_compiler`` / ``failing_compiler``
  fixtures in ``conftest.py``), everything runs on ``numpy``; the build
  cache itself is tested in ``test_fastsim_ccore.py``.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _clib
from repro.core.policies import (
    ImmediateReissue,
    MultipleR,
    NoReissue,
    SingleD,
    SingleR,
)
from repro.distributions import Exponential
from repro.fastsim import (
    TIERS,
    ReplicationSpec,
    kernel_info,
    resolve_tier,
    run_replications,
    simulate_batch,
    simulate_replication_tiered,
    tier_counts,
)
from repro.obs import get_metrics, metrics_scope, tracing
from repro.scenarios import Session
from repro.simulation.arrivals import PoissonArrivals
from repro.simulation.engine import ClusterConfig, simulate_cluster_reference
from repro.simulation.workloads import (
    ServiceModel,
    independent_workload,
    queueing_workload,
)
from repro.systems import RedisClusterSystem


def make_config(**over):
    defaults = dict(
        arrivals=PoissonArrivals(1.2),
        service_model=ServiceModel(Exponential(1.0), correlation=0.5),
        n_queries=400,
        n_servers=3,
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


TESTABLE_TIERS = ("compiled", "numpy", "interpreted")


class TestSelection:
    def test_auto_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_tier() is None
        monkeypatch.setenv("REPRO_KERNEL", "auto")
        assert resolve_tier() is None
        monkeypatch.setenv("REPRO_KERNEL", "")
        assert resolve_tier() is None

    def test_explicit_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        run, executed = simulate_replication_tiered(
            make_config(), SingleR(0.5, 0.4), 7, tier="numpy"
        )
        assert executed == "numpy"

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        _, executed = simulate_replication_tiered(
            make_config(), SingleR(0.5, 0.4), 7
        )
        assert executed == "reference"

    def test_unknown_tier_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "cython")
        with pytest.raises(ValueError, match="unknown kernel tier 'cython'"):
            simulate_replication_tiered(make_config(), NoReissue(), 1)

    def test_compiled_without_compiler_is_actionable(self, monkeypatch, no_compiler):
        # The explicit request must never silently downgrade.
        monkeypatch.setenv("REPRO_KERNEL", "compiled")
        with pytest.raises(RuntimeError, match=r"`cc` is not on PATH"):
            simulate_replication_tiered(make_config(), NoReissue(), 1)

    def test_compiled_with_failing_compiler_is_actionable(
        self, monkeypatch, failing_compiler
    ):
        monkeypatch.setenv("REPRO_KERNEL", "compiled")
        with pytest.raises(RuntimeError, match=r"exited with status 1.*broken"):
            simulate_replication_tiered(make_config(), NoReissue(), 1)
        assert not any((failing_compiler.parents[1] / "cache").rglob("*.so"))

    def test_auto_prefers_compiled(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        _, executed = simulate_replication_tiered(
            make_config(), SingleR(0.5, 0.4), 7
        )
        assert executed == "compiled"

    def test_auto_falls_back_to_numpy(self, monkeypatch, no_compiler):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        _, executed = simulate_replication_tiered(
            make_config(), SingleR(0.5, 0.4), 7
        )
        assert executed == "numpy"
        assert kernel_info()["default_tier"] == "numpy"

    def test_auto_falls_back_to_numpy_when_build_fails(
        self, monkeypatch, failing_compiler
    ):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        for seed in (7, 8):
            _, executed = simulate_replication_tiered(
                make_config(), SingleR(0.5, 0.4), seed
            )
            assert executed == "numpy"
        # One build attempt per process: the failure is remembered.
        assert Path(f"{failing_compiler}.calls").read_text() == "call\n"
        assert kernel_info()["default_tier"] == "numpy"
        assert kernel_info()["compiler"] == str(failing_compiler)

    def test_kernel_info_shape(self, no_compiler):
        info = kernel_info()
        assert info["tiers"] == list(TIERS)
        assert info["compiler"] is None
        assert info["numba_version"] is None
        assert info["default_tier"] == "numpy"

    def test_kernel_info_with_compiler(self):
        info = kernel_info()
        assert info["compiler"] is not None
        assert info["compiler"] == _clib.find_compiler()
        assert info["default_tier"] == "compiled"


class TestStructuralFallbacks:
    def test_unspecialized_discipline_runs_reference(self):
        from repro.simulation.queues import FifoQueue

        class TaggedFifo(FifoQueue):
            pass

        cfg = make_config(discipline=TaggedFifo)
        for tier in TESTABLE_TIERS:
            _, executed = simulate_replication_tiered(
                cfg, SingleR(0.3, 0.6), 9, tier=tier
            )
            assert executed == "reference"

    def test_backlog_balancer_degrades_array_core_to_numpy(self):
        cfg = make_config(balancer="min-of-2")
        _, executed = simulate_replication_tiered(
            cfg, SingleR(0.3, 0.6), 9, tier="interpreted"
        )
        assert executed == "numpy"

    def test_round_robin_is_statically_dispatchable(self):
        cfg = make_config(balancer="round-robin")
        run, executed = simulate_replication_tiered(
            cfg, SingleR(0.3, 0.6), 9, tier="interpreted"
        )
        assert executed == "interpreted"
        assert_bitwise_equal(run, simulate_cluster_reference(cfg, SingleR(0.3, 0.6), 9))

    def test_tier_counts_accumulate(self):
        before = tier_counts()
        simulate_replication_tiered(make_config(), NoReissue(), 1, tier="numpy")
        after = tier_counts()
        assert after["numpy"] == before["numpy"] + 1


class TestVisibility:
    def test_batch_span_carries_tier_and_throughput(self):
        cfg = make_config()
        specs = [
            ReplicationSpec(cfg, SingleR(0.5, 0.4), seed=s) for s in (1, 2, 3)
        ]
        with tracing() as tracer:
            simulate_batch(specs, tier="numpy")
            batch_spans = [
                s for s in tracer.spans if s.name == "fastsim.batch"
            ]
            assert len(batch_spans) == 1
            attrs = batch_spans[0].attrs
            assert attrs["kernel_tier"] == "numpy"
            assert attrs["kernel_tiers"] == {"numpy": 3}
            assert attrs["queries_per_sec"] > 0
            assert (
                get_metrics().counter("fastsim.tier.numpy").value == 3
            )

    def test_mixed_batch_reports_every_tier(self):
        from repro.simulation.queues import FifoQueue

        class TaggedFifo(FifoQueue):
            pass

        specs = [
            ReplicationSpec(make_config(), SingleR(0.5, 0.4), seed=1),
            ReplicationSpec(
                make_config(discipline=TaggedFifo), SingleR(0.5, 0.4), seed=1
            ),
        ]
        with tracing() as tracer:
            simulate_batch(specs, tier="numpy")
            attrs = [
                s for s in tracer.spans if s.name == "fastsim.batch"
            ][0].attrs
            assert attrs["kernel_tiers"] == {"numpy": 1, "reference": 1}

    @pytest.mark.parametrize(
        "build, tiers",
        [
            (lambda: queueing_workload(n_queries=600), {"numpy": 2}),
            # RoundRobinConnectionQueue is unspecialized: reference only.
            (
                lambda: RedisClusterSystem(utilization=0.4, n_queries=600),
                {"reference": 2},
            ),
            # Closed-form executor: never touches the kernel.
            (lambda: independent_workload(n_queries=600), {}),
        ],
        ids=["queueing", "redis", "independent"],
    )
    def test_run_replications_one_batch_span(self, monkeypatch, build, tiers):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        system = build()
        with tracing() as tracer, metrics_scope() as registry:
            before = tier_counts()
            runs = run_replications(system, SingleR(0.5, 0.3), [1, 2])
            after = tier_counts()
            spans = [s for s in tracer.spans if s.name == "fastsim.batch"]
            assert len(spans) == 1
            attrs = spans[0].attrs
            diff = {t: after[t] - before[t] for t in TIERS if after[t] > before[t]}
            assert attrs["kernel_tiers"] == diff == tiers
            assert attrs["n_replications"] == 2
            assert attrs["queries"] == sum(r.n_queries for r in runs)
            assert registry.counter("fastsim.replications").value == 2

    def test_scenario_summary_surfaces_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        report = Session("sim").run("queueing-tail-quick")
        section = report.summary()["fastsim"]
        assert section["kernel_tier"] == "numpy"
        assert section["kernel_tiers"] == {
            "numpy": len(report.seeds)
        }
        assert "kernel tier" in report.render()
        assert "numpy" in report.render()


# ---------------------------------------------------------------------------
# Property: random configs/policies agree bit-for-bit across every tier.
# ---------------------------------------------------------------------------


@st.composite
def policies(draw):
    kind = draw(
        st.sampled_from(["none", "immediate", "singled", "singler", "multir"])
    )
    if kind == "none":
        return NoReissue()
    if kind == "immediate":
        return ImmediateReissue(draw(st.integers(1, 3)))
    delay = draw(
        st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)
    )
    if kind == "singled":
        return SingleD(delay)
    prob = draw(st.floats(0.01, 1.0, allow_nan=False))
    if kind == "singler":
        return SingleR(delay, prob)
    stages = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 3.0, allow_nan=False),
                st.floats(0.01, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=3,
        )
    )
    # Stage delays must be non-decreasing.
    return MultipleR(sorted(stages, key=lambda stage: stage[0]))


@st.composite
def configs(draw):
    return make_config(
        n_queries=draw(st.integers(2, 60)),
        n_servers=draw(st.integers(1, 4)),
        discipline=draw(
            st.sampled_from(["fifo", "prioritized-fifo", "prioritized-lifo"])
        ),
        balancer=draw(
            st.sampled_from(
                ["random", "round-robin", "min-of-2", "min-of-all"]
            )
        ),
        arrivals=PoissonArrivals(draw(st.floats(0.5, 3.0, allow_nan=False))),
        service_model=ServiceModel(
            Exponential(1.0), correlation=draw(st.sampled_from([0.0, 0.5]))
        ),
        cancel_queued=draw(st.booleans()),
        cancel_overhead=draw(st.sampled_from([0.0, 0.05])),
    )


class TestTierProperty:
    @given(cfg=configs(), policy=policies(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_all_tiers_agree_bitwise(self, cfg, policy, seed):
        reference = simulate_cluster_reference(cfg, policy, seed)
        for tier in TESTABLE_TIERS:
            run, _ = simulate_replication_tiered(cfg, policy, seed, tier=tier)
            assert_bitwise_equal(run, reference)
