"""Engine equivalence and the RunResult-based report.

The acceptance contract: the same Scenario object runs under both
engines. ``sim`` is bit-for-bit the ``system.run(policy, as_rng(seed))``
oracle loop for **every registered system** (the test parametrizes over
the registry, so registering a new system without adding an equivalence
scenario fails here), serially, on a process pool and from a cache
replay, and reports the same kernel tiers on all three paths; the
``live`` engine returns the same report shape from a live asyncio run.
"""

import numpy as np
import pytest

from repro.core.interfaces import RunResult
from repro.core.policies import SingleD, SingleR
from repro.distributions.base import as_rng
from repro.scenarios import SYSTEMS, Session, bundled_scenario, scenario

# Small but non-trivial per-system scenarios for the equivalence matrix.
EQUIVALENCE_SCENARIOS = {
    "independent": scenario(
        "eq-independent",
        system="independent",
        policy=SingleR(4.0, 0.5),
        percentile=0.99,
        n_queries=2_000,
        seeds=(101, 103),
    ),
    "correlated": scenario(
        "eq-correlated",
        system="correlated",
        policy=SingleR(4.0, 0.5),
        workload={"correlation": 0.7},
        percentile=0.99,
        n_queries=2_000,
        seeds=(101, 103),
    ),
    "queueing": scenario(
        "eq-queueing",
        system="queueing",
        utilization=0.3,
        policy=SingleR(6.0, 0.5),
        percentile=0.95,
        n_queries=1_200,
        seeds=(101, 103),
    ),
    "redis": scenario(
        "eq-redis",
        system="redis",
        utilization=0.3,
        policy=SingleR(25.0, 0.5),
        percentile=0.99,
        n_queries=1_000,
        seeds=(101,),
    ),
    "lucene": scenario(
        "eq-lucene",
        system="lucene",
        utilization=0.3,
        policy=SingleD(120.0),
        percentile=0.99,
        n_queries=1_000,
        seeds=(101,),
    ),
}


def assert_runs_equal(a: RunResult, b: RunResult):
    np.testing.assert_array_equal(a.latencies, b.latencies)
    np.testing.assert_array_equal(
        a.primary_response_times, b.primary_response_times
    )
    np.testing.assert_array_equal(a.reissue_pair_x, b.reissue_pair_x)
    np.testing.assert_array_equal(a.reissue_pair_y, b.reissue_pair_y)
    assert a.reissue_rate == b.reissue_rate
    assert a.utilization == b.utilization


def test_equivalence_matrix_covers_every_registered_system():
    assert set(EQUIVALENCE_SCENARIOS) == set(SYSTEMS.names()), (
        "a system was (un)registered; update EQUIVALENCE_SCENARIOS so the "
        "sim-vs-oracle contract keeps covering every system"
    )


def oracle_runs(sc):
    """The reference: one unbatched ``system.run`` per seed."""
    system, policy = sc.build_system(), sc.build_policy()
    return [system.run(policy, as_rng(s)) for s in sc.scale.seeds]


#: Kernel tiers the sim engine reports under REPRO_KERNEL=numpy (closed-
#: form systems never touch the kernel; Redis' connection queue has no
#: array mode, so it runs on the reference loop).
EXPECTED_TIERS = {
    "independent": {},
    "correlated": {},
    "queueing": {"numpy": 2},
    "redis": {"reference": 1},
    "lucene": {"numpy": 1},
}


@pytest.mark.parametrize("kind", sorted(EQUIVALENCE_SCENARIOS))
def test_reference_and_fastsim_agree_bit_for_bit(kind, tmp_path, monkeypatch):
    """The reference oracle loop and the sim engine (which runs the
    fastsim kernels) agree per seed — serially, on 2 workers, and from a
    cache replay — and every path reports the same kernel tiers."""
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    sc = EQUIVALENCE_SCENARIOS[kind]
    oracle = oracle_runs(sc)
    reports = [
        Session("sim").run(sc),
        Session("sim", workers=2).run(sc),
        Session("sim", cache_dir=tmp_path).run(sc),
        Session("sim", cache_dir=tmp_path).run(sc),  # the replay
    ]
    assert reports[-1].meta["pipeline"]["cache_hits"] == len(sc.scale.seeds)
    for report in reports:
        assert report.seeds == sc.scale.seeds
        assert len(report.runs) == len(oracle)
        for a, b in zip(oracle, report.runs):
            assert_runs_equal(a, b)
        assert report.median_tail == reports[0].median_tail
        assert report.summary()["fastsim"]["kernel_tiers"] == EXPECTED_TIERS[kind]


class TestPipelineEngine:
    """The sim engine's pipeline path: cache accounting and the pool."""

    def test_matches_fastsim_and_replays_from_cache(self, tmp_path):
        sc = EQUIVALENCE_SCENARIOS["queueing"]
        oracle = oracle_runs(sc)
        cache = tmp_path / "cache"
        cold = Session("sim", cache_dir=cache).run(sc)
        for a, b in zip(oracle, cold.runs):
            assert_runs_equal(a, b)
        assert cold.meta["pipeline"]["cache_misses"] == len(sc.scale.seeds)

        warm = Session("sim", cache_dir=cache).run(sc)
        for a, b in zip(oracle, warm.runs):
            assert_runs_equal(a, b)
        assert warm.meta["pipeline"]["cache_hits"] == len(sc.scale.seeds)
        assert warm.meta["pipeline"]["jobs"] == 0

    def test_parallel_matches_serial(self):
        sc = EQUIVALENCE_SCENARIOS["independent"]
        serial = Session("sim").run(sc)
        parallel = Session("sim", workers=2).run(sc)
        for a, b in zip(serial.runs, parallel.runs):
            assert_runs_equal(a, b)


class TestServingEngine:
    """The live engine: a HedgedClient run per seed."""

    def test_bundled_scenario_serves_live(self):
        report = Session("live", requests=120, time_scale=1e-6).run(
            bundled_scenario("queueing-tail-quick"), seeds=(3,)
        )
        (run,) = report.runs
        assert run.n_queries == 120
        assert run.latencies.min() >= 0.0
        assert 0.0 <= run.reissue_rate <= len(run.latencies)
        assert np.isfinite(report.median_tail)
        assert run.meta["engine"] == "live"
        assert run.meta["scenario"] == "queueing-tail-quick"

    def test_system_backends_resolve(self):
        # redis/lucene scenarios bridge to their workload backends.
        for kind, backend in (("redis", "RedisBackend"), ("lucene", "SearchBackend")):
            sc = EQUIVALENCE_SCENARIOS[kind]
            report = Session("live", requests=40, time_scale=0.0).run(
                sc, seeds=(5,)
            )
            assert report.runs[0].meta["backend"] == backend

    def test_engine_rejects_unknown_options(self):
        with pytest.raises(TypeError, match="warp_factor.*'live'"):
            Session("live", warp_factor=9)


class TestAllEnginesOneScenario:
    """The headline acceptance: one bundled Scenario object, both engines."""

    def test_same_scenario_runs_everywhere(self):
        sc = bundled_scenario("queueing-tail-quick").with_scale(
            n_queries=600, seeds=(101,)
        )
        reports = {
            "sim": Session("sim").run(sc),
            "live": Session("live", requests=60, time_scale=1e-6).run(sc),
        }
        # The simulator: identical bits to the oracle loop.
        assert_runs_equal(oracle_runs(sc)[0], reports["sim"].runs[0])
        # Both engines: the same report shape with the same summary keys.
        # The sanctioned exceptions are sim's execution sections —
        # "pipeline" (cache hits/misses, per-wave stats) and "fastsim"
        # (which kernel tier actually executed).
        summaries = [r.summary() for r in reports.values()]
        assert reports["sim"].summary()["pipeline"]["per_wave"]
        assert reports["sim"].summary()["fastsim"]["kernel_tier"] in (
            "compiled",
            "numpy",
        )
        core = [
            {k for k in s if k not in ("pipeline", "fastsim")}
            for s in summaries
        ]
        assert all(keys == core[0] for keys in core)
        for report in reports.values():
            assert report.scenario is sc or report.scenario == sc
            text = report.render()
            assert "queueing-tail-quick" in text
            assert "P95" in text


class TestReport:
    def test_summary_and_sla(self):
        sc = EQUIVALENCE_SCENARIOS["queueing"]
        report = Session("sim").run(sc)
        s = report.summary()
        assert s["scenario"] == "eq-queueing"
        assert s["engine"] == "sim"
        assert s["median_tail_ms"] == report.median_tail
        # SLA verdict appears only when the objective declares one.
        assert "sla_met" not in s
        with_sla = Session("sim").run(
            scenario(
                "sla",
                system="independent",
                policy="none",
                percentile=0.5,
                sla_ms=1e9,
                n_queries=500,
                seeds=(1,),
            )
        )
        assert with_sla.sla_met is True
        assert with_sla.summary()["sla_met"] is True

    def test_within_budget_uses_documented_tolerance(self):
        from repro.scenarios.engines import ScenarioReport

        sc = scenario(
            "budgeted",
            system="independent",
            policy=SingleR(0.0, 0.5),  # measured rate ≈ 0.5
            budget=0.4,
            n_queries=500,
            seeds=(1,),
        )
        report = Session("sim").run(sc)
        assert 0.45 < report.median_reissue_rate < 0.55
        # 0.5 ≤ 1.5 × 0.4: within tolerance, and the summary says which
        # tolerance produced the verdict.
        assert report.within_budget is True
        s = report.summary()
        assert s["within_budget"] is True
        assert s["budget_tolerance"] == ScenarioReport.BUDGET_TOLERANCE == 1.5
        over = Session("sim").run(
            scenario(
                "over-budget",
                system="independent",
                policy=SingleR(0.0, 0.5),
                budget=0.2,  # 0.5 > 1.5 × 0.2
                n_queries=500,
                seeds=(1,),
            )
        )
        assert over.within_budget is False
        assert over.summary()["within_budget"] is False
        no_budget = Session("sim").run(
            scenario(
                "no-budget", system="independent", policy="none",
                n_queries=500, seeds=(1,),
            )
        )
        assert no_budget.within_budget is None
        assert "within_budget" not in no_budget.summary()

    def test_seed_override(self):
        sc = EQUIVALENCE_SCENARIOS["independent"]
        report = Session("sim").run(sc, seeds=(7,))
        assert report.seeds == (7,)
        assert len(report.runs) == 1

    @pytest.mark.parametrize("engine", ["sim", "live"])
    def test_repeated_seed_override_is_rejected(self, engine):
        # A repeated seed would count twice in the median.
        with pytest.raises(ValueError, match="seed 101 is repeated"):
            Session(engine).run("queueing-tail-quick", seeds=(101, 101, 103))

    def test_repeated_scale_seeds_fail_validation(self):
        sc = EQUIVALENCE_SCENARIOS["independent"].with_scale(seeds=(5, 7, 5))
        assert sc.validate() == [
            "scale.seeds repeats seed 5; each seed is one replication of "
            "the median"
        ]
        with pytest.raises(ValueError, match="repeats seed 5"):
            Session("sim").run(sc)


class TestEmptyTailError:
    """Satellite: RunResult.tail names the run instead of numpy's error."""

    def make_empty(self, meta):
        empty = np.empty(0)
        return RunResult(
            latencies=empty,
            primary_response_times=empty,
            reissue_pair_x=empty,
            reissue_pair_y=empty,
            reissue_rate=0.0,
            meta=meta,
        )

    def test_names_scenario(self):
        run = self.make_empty({"scenario": "my-scenario"})
        with pytest.raises(ValueError, match="my-scenario"):
            run.tail(0.99)

    def test_names_system_when_no_scenario(self):
        run = self.make_empty({"system": "redis-set-intersection"})
        with pytest.raises(ValueError, match="redis-set-intersection"):
            run.tail(0.99)

    def test_generic_label_without_meta(self):
        with pytest.raises(ValueError, match="no query latencies"):
            self.make_empty({}).tail(0.5)

    def test_nonempty_still_works(self):
        run = self.make_empty({})
        run.latencies = np.array([1.0, 2.0, 3.0])
        assert run.tail(0.5) == 2.0


class TestStoreCounterSurfacing:
    """Per-run trace-store activity lands in meta, summary(), render()."""

    SC = scenario(
        "eq-store-counters",
        system="independent",
        policy=SingleR(4.0, 0.5),
        percentile=0.99,
        n_queries=200,
        seeds=(101,),
    )

    def test_no_store_activity_no_meta(self):
        report = Session("sim").run(self.SC)
        assert "store" not in report.meta
        assert "store" not in report.summary()

    def test_store_deltas_attached_and_rendered(self, tmp_path, monkeypatch):
        # Wrap the replication loop so the run itself touches a store;
        # Session counts the counter deltas across the engine call.
        import numpy as np

        import repro.fastsim
        from repro.store import TraceReader, TraceWriter

        path = tmp_path / "t.store"
        with TraceWriter(path, block_records=64) as w:
            w.append(np.arange(256, dtype=np.float64))

        inner = repro.fastsim.run_replications

        def touching_replications(system, policy, seeds):
            reader = TraceReader(path)
            reader.read_segment("primary")
            reader.read_block(0)  # a cache hit
            return inner(system, policy, seeds)

        monkeypatch.setattr(
            repro.fastsim, "run_replications", touching_replications
        )
        report = Session("sim").run(self.SC)
        store = report.meta["store"]
        assert store["blocks_loaded"] == 4
        assert store["cache_hits"] == 1
        assert store["bytes_read"] == 256 * 8
        assert report.summary()["store"] == store
        assert "trace store" in report.render()
