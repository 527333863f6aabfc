"""Unit tests for repro.pipeline: fingerprints, specs, plans, execution."""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.policies import NoReissue, SingleR
from repro.distributions.base import as_rng
from repro.experiments.common import Scale
from repro.fastsim import run_replications
from repro.pipeline import (
    ResultCache,
    SpecBuilder,
    compile_plan,
    execute_plan,
    fingerprint,
    run_pipeline,
)
from repro.pipeline.cells import evaluate_replication
from repro.pipeline.executor import Job, run_jobs
from repro.pipeline.spec import Ref, SystemRef, system_ref
from repro.simulation.workloads import independent_workload, queueing_workload

TINY = Scale(
    name="tiny", n_queries=1500, eval_seeds=(1, 2), adaptive_trials=2,
    sweep_points=2,
)


# -- module-level cell functions (workers unpickle them by reference) --------

def add_cell(a, b):
    return a + b


def noisy_cell(seed):
    return float(as_rng(seed).random())


def pair_cell(seed):
    return (seed * 10, seed * 10 + 1)


def total_cell(parts):
    return sum(parts)


def boom_cell():
    raise ValueError("boom")


class TestFingerprint:
    def test_deterministic_and_discriminating(self):
        assert fingerprint({"a": 1, "b": 2.5}) == fingerprint({"b": 2.5, "a": 1})
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint("1") != fingerprint(1)
        assert fingerprint([1, 2]) == fingerprint((1, 2))
        x = np.arange(5, dtype=np.float64)
        assert fingerprint(x) == fingerprint(x.copy())
        assert fingerprint(x) != fingerprint(x.astype(np.float32))

    def test_policies_and_scales(self):
        assert fingerprint(SingleR(1.0, 0.5)) == fingerprint(SingleR(1.0, 0.5))
        assert fingerprint(SingleR(1.0, 0.5)) != fingerprint(SingleR(1.0, 0.6))
        assert fingerprint(NoReissue()) != fingerprint(SingleR(0.0, 0.0))
        assert fingerprint(TINY) == fingerprint(
            Scale(
                name="tiny", n_queries=1500, eval_seeds=(1, 2),
                adaptive_trials=2, sweep_points=2,
            )
        )

    def test_callables_by_qualname_only(self):
        def local_fn():
            return 0

        assert fingerprint(add_cell) == fingerprint(add_cell)
        for bad in (lambda: 0, local_fn, SystemRef(lambda: 0, ())):
            with pytest.raises(TypeError, match="module-level"):
                fingerprint(bad)

    def test_dict_keys_of_different_types_do_not_collide(self):
        assert fingerprint({1: "a"}) != fingerprint({"1": "a"})
        assert fingerprint({(1, 2): 0}) != fingerprint({"(1, 2)": 0})

    def test_mixed_key_dict_ignores_insertion_order(self):
        assert fingerprint({1: "x", "1": "y"}) == fingerprint({"1": "y", 1: "x"})
        assert fingerprint({1: "x", "1": "y"}) != fingerprint({1: "y", "1": "x"})

    def test_stateful_values_rejected(self):
        with pytest.raises(TypeError):
            fingerprint(np.random.default_rng(0))
        with pytest.raises(TypeError):
            fingerprint(iter([1, 2]))
        with pytest.raises(TypeError):
            fingerprint(x for x in ())


class TestSystemRef:
    def test_defaults_normalized(self):
        # One call site relying on defaults, one spelling them out:
        # identical refs, so their cells dedupe.
        a = system_ref(queueing_workload, n_queries=1000, utilization=0.3)
        b = system_ref(
            queueing_workload,
            n_queries=1000,
            utilization=0.3,
            ratio=0.5,
            balancer="random",
            discipline="fifo",
        )
        assert fingerprint(a) == fingerprint(b)
        c = system_ref(queueing_workload, n_queries=1000, utilization=0.4)
        assert fingerprint(a) != fingerprint(c)

    def test_build_memoizes_per_process(self):
        ref = system_ref(independent_workload, n_queries=123)
        assert ref.build() is ref.build()
        assert ref.build().n_queries == 123


class TestSpecBuilder:
    def test_duplicate_keys_rejected(self):
        sb = SpecBuilder("t", "t")
        sb.cell("k", add_cell, a=1, b=2)
        with pytest.raises(ValueError, match="duplicate"):
            sb.cell("k", add_cell, a=1, b=2)

    def test_eval_merging_unions_percentiles(self):
        sb = SpecBuilder("t", "t")
        ref = system_ref(independent_workload, n_queries=500)
        h1 = sb.evaluate(ref, NoReissue(), 7, percentiles=(0.95,))
        h2 = sb.evaluate(ref, NoReissue(), 7, percentiles=(0.99,))
        assert h1.key == h2.key
        spec = sb.build(lambda rs: None)
        (cell,) = spec.cells
        assert cell.params["percentiles"] == (0.95, 0.99)
        assert spec.stats["eval_requests"] == 2
        assert spec.stats["eval_requests_merged"] == 1

    def test_mixed_ref_literal_param_rejected(self):
        sb = SpecBuilder("t", "t")
        h = sb.cell("a", pair_cell, seed=1)
        with pytest.raises(TypeError, match="mixes cell references"):
            sb.cell("b", total_cell, parts=(h, 42))

    def test_distinct_seeds_not_merged(self):
        sb = SpecBuilder("t", "t")
        ref = system_ref(independent_workload, n_queries=500)
        h1 = sb.evaluate(ref, NoReissue(), 7, percentiles=(0.95,))
        h2 = sb.evaluate(ref, NoReissue(), 8, percentiles=(0.95,))
        assert h1.key != h2.key


class TestPlan:
    def test_identical_cells_merged(self):
        sb = SpecBuilder("t", "t")
        sb.cell("x", add_cell, a=1, b=2)
        sb.cell("y", add_cell, a=1, b=2)
        sb.cell("z", add_cell, a=1, b=3)
        plan = compile_plan(sb.build(lambda rs: None))
        assert plan.stats.n_declared == 3
        assert plan.stats.n_unique == 2
        assert plan.aliases["y"] == "x"

    def test_dependents_of_merged_cells_merge_too(self):
        sb = SpecBuilder("t", "t")
        x = sb.cell("x", pair_cell, seed=1)
        y = sb.cell("y", pair_cell, seed=1)
        sb.cell("dx", add_cell, a=x.get(0), b=0)
        sb.cell("dy", add_cell, a=y.get(0), b=0)
        plan = compile_plan(sb.build(lambda rs: None))
        assert plan.stats.n_unique == 2  # one pair cell + one dependent

    def test_cycle_detected(self):
        sb = SpecBuilder("t", "t")
        sb.cell("a", add_cell, a=Ref("b"), b=1)
        sb.cell("b", add_cell, a=Ref("a"), b=1)
        with pytest.raises(ValueError, match="cycle"):
            compile_plan(sb.build(lambda rs: None))

    def test_unknown_dep_rejected(self):
        sb = SpecBuilder("t", "t")
        sb.cell("a", add_cell, a=Ref("ghost"), b=1)
        with pytest.raises(KeyError, match="ghost"):
            compile_plan(sb.build(lambda rs: None))

    def test_local_callable_rejected(self):
        def local_fn():
            return 0

        sb = SpecBuilder("t", "t")
        sb.cell("a", local_fn)
        with pytest.raises(TypeError, match="module-level"):
            compile_plan(sb.build(lambda rs: None))

    def test_waves_respect_dependencies(self):
        sb = SpecBuilder("t", "t")
        a = sb.cell("a", pair_cell, seed=1)
        b = sb.cell("b", add_cell, a=a.get(0), b=1)
        sb.cell("c", add_cell, a=b, b=1)
        plan = compile_plan(sb.build(lambda rs: None))
        assert [sorted(w) for w in plan.waves] == [["a"], ["b"], ["c"]]


def _sum_spec():
    sb = SpecBuilder("t", "t")
    parts = [sb.cell(f"p{i}", noisy_cell, seed=i) for i in range(6)]
    total = sb.cell("total", total_cell, parts=parts)
    return sb.build(lambda rs: (rs[total], [rs[p] for p in parts]))


class TestExecutor:
    def test_serial_parallel_cached_identical(self, tmp_path):
        serial = run_pipeline(_sum_spec())
        parallel = run_pipeline(_sum_spec(), workers=2)
        cold = run_pipeline(_sum_spec(), cache_dir=tmp_path)
        warm = run_pipeline(_sum_spec(), cache_dir=tmp_path)
        assert serial == parallel == cold == warm

    def test_cache_hits_counted(self, tmp_path):
        plan = compile_plan(_sum_spec())
        cache = ResultCache(tmp_path)
        _, rep1 = execute_plan(plan, cache=cache)
        assert rep1.cache_writes == 7 and rep1.cache_hits == 0
        _, rep2 = execute_plan(plan, cache=cache)
        assert rep2.cache_hits == 7 and rep2.n_jobs == 0

    def test_partial_cache_reuse(self, tmp_path):
        # A grown spec re-uses the overlapping cells' cached values.
        sb = SpecBuilder("t", "t")
        parts = [sb.cell(f"p{i}", noisy_cell, seed=i) for i in range(6)]
        sb.cell("total", total_cell, parts=parts)
        cache = ResultCache(tmp_path)
        execute_plan(compile_plan(sb.build(lambda rs: None)), cache=cache)

        sb2 = SpecBuilder("t", "t")
        parts2 = [sb2.cell(f"p{i}", noisy_cell, seed=i) for i in range(8)]
        sb2.cell("total", total_cell, parts=parts2)
        _, rep = execute_plan(compile_plan(sb2.build(lambda rs: None)), cache=cache)
        assert rep.cache_hits == 6  # the six original leaves
        assert rep.cache_misses == 3  # two new leaves + changed total

    def test_eval_cells_grouped_into_batches(self):
        sb = SpecBuilder("t", "t")
        ref = system_ref(queueing_workload, n_queries=800, utilization=0.3)
        evals = sb.evaluate_seeds(ref, NoReissue(), (1, 2, 3), 0.95)
        spec = sb.build(lambda rs: rs.median_tail(evals, 0.95))
        plan = compile_plan(spec)
        _, report = execute_plan(plan)
        assert report.n_batches == 1
        assert report.n_batched_cells == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_cell_raises_its_own_error(self, workers):
        sb = SpecBuilder("t", "t")
        sb.cell("kaboom", boom_cell)
        sb.cell("fine", noisy_cell, seed=1)
        with pytest.raises(ValueError, match="boom"):
            execute_plan(compile_plan(sb.build(lambda rs: None)), workers=workers)


class TestEvaluationProtocol:
    def test_eval_cell_matches_direct_run(self):
        system = queueing_workload(n_queries=1200, utilization=0.3)
        ref = system_ref(queueing_workload, n_queries=1200, utilization=0.3)
        pol = SingleR(1.0, 0.3)
        summary = evaluate_replication(
            ref, pol, 5, percentiles=(0.95,), measure=("tails", "reissue_rate")
        )
        direct = system.run(pol, as_rng(5))
        assert summary["tails"][0.95] == direct.tail(0.95)
        assert summary["reissue_rate"] == direct.reissue_rate

    def test_run_replications_batch_equals_loop(self):
        system = queueing_workload(n_queries=1200, utilization=0.3)
        pol = SingleR(1.0, 0.3)
        batch = run_replications(system, pol, (3, 4))
        loop = [system.run(pol, as_rng(s)) for s in (3, 4)]
        for b, l in zip(batch, loop):
            assert np.array_equal(b.latencies, l.latencies)


class TestRunJobs:
    def test_order_and_errors(self):
        jobs = [Job(f"j{s}", noisy_cell, {"seed": s}) for s in range(11)]
        inline = run_jobs(jobs)
        assert inline == [noisy_cell(s) for s in range(11)]
        with ProcessPoolExecutor(max_workers=2) as pool:
            # 11 jobs on 2 workers: chunks of ceil(11 / 8) = 2 jobs.
            assert run_jobs(jobs, pool) == inline
            with pytest.raises(ValueError, match="boom") as info:
                run_jobs([jobs[0], Job("b", boom_cell), jobs[1]], pool)
        # The worker's traceback rides along as the cause.
        assert info.value.__cause__ is not None


class TestRunExperimentKwargs:
    def test_unknown_kwarg_names_experiment_and_choices(self):
        from repro.experiments import run_experiment

        with pytest.raises(TypeError, match="fig7") as ei:
            run_experiment("fig7", scale=TINY, panel="a")
        assert "panels" in str(ei.value)  # suggests the accepted keyword

    def test_known_kwarg_still_works(self):
        from repro.experiments import run_experiment

        res = run_experiment("fig7", scale=TINY, seed=1, panels="a")
        assert res.meta["panels"] == "a"


def test_pipeline_importable_before_experiments():
    """repro.pipeline must not drag the figure drivers in transitively
    (they import repro.pipeline back — a pipeline-first import used to
    die in the half-initialized package)."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", "import repro.pipeline; import repro.experiments"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


class TestCliFlags:
    def test_run_subcommand_with_workers_and_cache(self, tmp_path, capsys):
        from repro.main import main

        cache = tmp_path / "cache"
        rc = main(
            ["figure", "run", "fig9", "--scale", "quick", "--workers", "2",
             "--cache", str(cache)]
        )
        assert rc == 0
        assert any(cache.iterdir())  # cache populated

    def test_list_shows_scales(self, capsys):
        from repro.main import main

        assert main(["figure", "list"]) == 0
        out = capsys.readouterr().out
        assert "scales:" in out
        for name in ("quick", "standard", "full"):
            assert name in out


class TestCacheStoreSpill:
    """Large-array cache entries spill into a per-entry .store sidecar."""

    def put_get(self, tmp_path, value, threshold="8"):
        import os

        os.environ["REPRO_STORE_CACHE_THRESHOLD"] = threshold
        try:
            cache = ResultCache(tmp_path)
            cache.put("ab" + "0" * 38, value)
            return cache, cache.get("ab" + "0" * 38)
        finally:
            del os.environ["REPRO_STORE_CACHE_THRESHOLD"]

    def test_spilled_arrays_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        value = {
            "latencies": rng.exponential(5.0, 100),
            "small": rng.exponential(5.0, 3),
            "scalar": 1.5,
        }
        cache, back = self.put_get(tmp_path, value)
        np.testing.assert_array_equal(back["latencies"], value["latencies"])
        np.testing.assert_array_equal(back["small"], value["small"])
        assert back["scalar"] == 1.5
        # The big array lives in the sidecar, not the pickle.
        store = cache._store_path("ab" + "0" * 38)
        assert store.exists()
        assert value["latencies"].nbytes > cache._path(
            "ab" + "0" * 38
        ).stat().st_size

    def test_below_threshold_stays_pure_pickle(self, tmp_path):
        value = np.arange(100, dtype=np.float64)
        cache, back = self.put_get(tmp_path, value, threshold="1000000")
        np.testing.assert_array_equal(back, value)
        assert not cache._store_path("ab" + "0" * 38).exists()

    def test_corrupt_sidecar_reads_as_miss(self, tmp_path):
        value = np.arange(64, dtype=np.float64)
        cache, back = self.put_get(tmp_path, value)
        np.testing.assert_array_equal(back, value)
        store = cache._store_path("ab" + "0" * 38)
        store.write_bytes(store.read_bytes()[:100])
        assert cache.get("ab" + "0" * 38, "MISS") == "MISS"

    def test_runresult_payload_spills_and_replays(self, tmp_path):
        import os

        from repro.core.interfaces import RunResult

        rng = np.random.default_rng(1)
        run = RunResult(
            latencies=rng.exponential(5.0, 50),
            primary_response_times=rng.exponential(5.0, 50),
            reissue_pair_x=rng.exponential(5.0, 5),
            reissue_pair_y=rng.exponential(5.0, 5),
            reissue_rate=0.1,
            utilization=0.3,
        )
        os.environ["REPRO_STORE_CACHE_THRESHOLD"] = "8"
        try:
            cache = ResultCache(tmp_path)
            cache.put("cd" + "0" * 38, [run])
            (back,) = cache.get("cd" + "0" * 38)
        finally:
            del os.environ["REPRO_STORE_CACHE_THRESHOLD"]
        np.testing.assert_array_equal(back.latencies, run.latencies)
        np.testing.assert_array_equal(
            back.primary_response_times, run.primary_response_times
        )
