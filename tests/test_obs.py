"""Tests for repro.obs: tracing, metrics, exports, and instrumentation."""

import json
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    MetricRegistry,
    Span,
    Tracer,
    chrome_trace,
    get_metrics,
    get_tracer,
    metrics_scope,
    span_tree,
    summary_table,
    tracing,
    tracing_enabled,
    write_trace_artifacts,
)
from repro.obs.trace import absorb, remote_context, snapshot_context
from repro.distributions.base import as_rng
from repro.pipeline.executor import Job, run_jobs


def traced_job(seed, scale=1.0):
    """Module-level job function (picklable) that opens its own span."""
    tracer = get_tracer()
    with tracer.span("worker.unit", scale=scale) as span:
        span.attrs["drawn"] = True
        if tracer.enabled:
            get_metrics().counter("worker.calls").inc()
        return float(as_rng(seed).normal(0, scale))


def traced_jobs(n, scale):
    return [
        Job(f"p{i}", traced_job, {"seed": i, "scale": scale}) for i in range(n)
    ]


class TestNullTracer:
    def test_disabled_by_default(self):
        assert tracing_enabled() is False
        assert get_tracer() is NULL_TRACER
        assert NULL_TRACER.enabled is False

    def test_single_shared_span_object(self):
        # The null path allocates no per-call span: every call hands back
        # the same singleton, whatever the name or attrs.
        a = NULL_TRACER.span("a")
        b = NULL_TRACER.span("b", attr=1)
        assert a is b
        with a as entered:
            assert entered is a

    def test_attr_writes_discarded(self):
        with NULL_TRACER.span("hot") as span:
            span.attrs["key"] = "value"
            span.attrs.update(other=2)
        assert len(span.attrs) == 0

    def test_drain_empty(self):
        NULL_TRACER.event("e")
        assert NULL_TRACER.drain() == []

    def test_no_net_allocation_overhead(self):
        # Overhead guard: a disabled-tracer hot loop must not accumulate
        # memory — every transient (the kwargs dict) is freed per
        # iteration, so the net tracemalloc delta stays near zero.
        tracer = get_tracer()
        for _ in range(100):  # warm any lazy caches first
            with tracer.span("warm"):
                pass
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(10_000):
            with tracer.span("hot"):
                pass
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert after - before < 16_384  # bytes; zero modulo interpreter noise

    def test_disabled_run_records_no_spans(self):
        from repro.core.policies import SingleR
        from repro.fastsim import ReplicationSpec, simulate_batch
        from repro.simulation.workloads import queueing_workload

        system = queueing_workload(n_queries=200)
        simulate_batch([ReplicationSpec(system.config, SingleR(6.0, 0.5), seed=1)])
        assert get_tracer().drain() == []


class TestTracer:
    def test_nesting_and_attrs(self):
        with tracing() as tracer:
            with tracer.span("outer", a=1) as outer:
                with tracer.span("inner") as inner:
                    inner.attrs["b"] = 2
            tracer.event("mark", c=3)
        spans = {s.name: s for s in tracer.spans}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["outer"].attrs == {"a": 1}
        assert spans["inner"].attrs == {"b": 2}
        assert spans["mark"].attrs == {"c": 3}
        assert spans["mark"].t_start == spans["mark"].t_end
        assert spans["outer"].t_end >= spans["inner"].t_end

    def test_tracing_restores_previous_tracer(self):
        with tracing():
            assert tracing_enabled()
        assert not tracing_enabled()
        assert get_tracer() is NULL_TRACER

    def test_span_roundtrips_through_dict(self):
        with tracing() as tracer:
            with tracer.span("x", k="v"):
                pass
        (span,) = tracer.spans
        clone = Span.from_dict(json.loads(json.dumps(span.as_dict())))
        assert clone == span

    def test_exception_still_closes_span(self):
        with tracing() as tracer:
            with pytest.raises(RuntimeError):
                with tracer.span("doomed"):
                    raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.name == "doomed"
        assert span.t_end >= span.t_start

    def test_remote_context_reparents(self):
        with tracing() as tracer:
            with tracer.span("parent") as parent:
                ctx = snapshot_context()
            # Simulate the worker side: a fresh buffering tracer whose
            # roots hang under the shipped parent id.
            with remote_context(ctx) as worker:
                with worker.span("child"):
                    pass
            shipped = [s.as_dict() for s in worker.drain()]
            absorb(shipped)
        child = next(s for s in tracer.spans if s.name == "child")
        assert child.parent_id == parent.span_id
        assert child.trace_id == parent.trace_id


class TestPoolPropagation:
    def test_spans_cross_process_pool(self):
        import os

        jobs = traced_jobs(4, 1.0)
        with tracing() as tracer, metrics_scope() as registry:
            with tracer.span("dispatch.root") as root:
                with ProcessPoolExecutor(max_workers=2) as pool:
                    run_jobs(jobs, pool)
        workers = [s for s in tracer.spans if s.name == "worker.unit"]
        assert len(workers) == len(jobs)
        cells = [s for s in tracer.spans if s.name == "pipeline.cell"]
        assert [s.attrs["key"] for s in cells] == [j.key for j in jobs]
        # Child spans crossed the pool: at least one came from another pid
        # and every one re-parented under the live trace.
        assert any(s.pid != os.getpid() for s in workers)
        ids = {s.span_id for s in tracer.spans}
        assert all(s.parent_id in ids for s in workers)
        assert all(s.trace_id == root.trace_id for s in workers)
        assert registry.counter("worker.calls").value == len(jobs)

    def test_pool_results_identical_with_and_without_tracing(self):
        jobs = traced_jobs(3, 2.0)
        with ProcessPoolExecutor(max_workers=2) as pool:
            plain = run_jobs(jobs, pool)
            with tracing():
                traced = run_jobs(jobs, pool)
        assert plain == traced == run_jobs(jobs)


class TestMetrics:
    def test_counter_gauge_quantile_merge(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("n").inc(3)
        b.counter("n").inc(4)
        a.gauge("g").set(1.0)
        b.gauge("g").set(2.0)
        for i in range(100):
            a.quantile("q").observe(float(i))
            b.quantile("q").observe(float(i + 100))
        a.merge(b)
        assert a.counter("n").value == 7
        assert a.gauge("g").value == 2.0  # last writer wins
        assert a.quantile("q").count == 200
        assert a.quantile("q").quantile(0.5) == pytest.approx(99.5, abs=5.0)

    def test_type_conflict_rejected(self):
        reg = MetricRegistry()
        reg.counter("m")
        with pytest.raises(TypeError, match="m"):
            reg.gauge("m")

    def test_scope_installs_and_restores(self):
        outer = get_metrics()
        with metrics_scope() as inner:
            assert get_metrics() is inner
            inner.counter("x").inc()
        assert get_metrics() is outer
        assert "x" not in outer

    def test_render_and_json(self):
        reg = MetricRegistry()
        reg.counter("hits").inc(5)
        reg.gauge("rate").set(2.5)
        text = reg.render()
        assert "hits" in text and "rate" in text
        data = json.loads(reg.to_json())
        assert data["hits"]["value"] == 5

    def test_counter_gauge_primitives(self):
        c = Counter("c")
        c.inc()
        c.inc(2)
        assert c.value == 3
        g = Gauge("g")
        assert g.updates == 0
        g.set(1.5)
        assert (g.value, g.updates) == (1.5, 1)


class TestExports:
    def _trace_quick(self):
        from repro.scenarios import Session

        with tracing() as tracer, metrics_scope() as registry:
            Session().run("queueing-tail-quick", seeds=[101])
        return tracer.spans, registry

    def test_chrome_trace_schema(self):
        spans, registry = self._trace_quick()
        doc = chrome_trace(spans, metrics=registry.as_dict())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == len(spans)
        ids = {e["args"]["span_id"] for e in events}
        for e in events:
            assert e["ph"] == "X"
            assert isinstance(e["name"], str)
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            parent = e["args"]["parent_id"]
            assert parent is None or parent in ids
        assert "fastsim.replications" in doc["metadata"]["metrics"]

    def test_chrome_trace_is_json_serializable(self):
        spans, registry = self._trace_quick()
        json.dumps(chrome_trace(spans, metrics=registry.as_dict()))

    def test_span_tree_and_summary(self):
        spans, _ = self._trace_quick()
        tree = span_tree(spans)
        assert "scenario.run" in tree
        assert "fastsim.batch" in tree
        table = summary_table(spans)
        assert "span" in table and "p99 ms" in table

    def test_write_trace_artifacts(self, tmp_path):
        spans, registry = self._trace_quick()
        arts = write_trace_artifacts(
            spans, tmp_path, stem="t", metrics=registry.as_dict()
        )
        assert set(arts) == {"chrome", "jsonl", "metrics"}
        chrome = json.loads(arts["chrome"].read_text())
        assert chrome["traceEvents"]
        lines = arts["jsonl"].read_text().splitlines()
        assert len(lines) == len(spans)
        assert Span.from_dict(json.loads(lines[0]))

    def test_overlapping_roots_get_distinct_lanes(self):
        # Two concurrent, non-nested spans in one pid must not share a
        # Chrome lane, or the viewer draws them as a bogus nesting.
        tracer = Tracer()
        a = Span(name="a", trace_id="t", span_id="1", parent_id=None,
                 t_start=0.0, t_end=2.0)
        b = Span(name="b", trace_id="t", span_id="2", parent_id=None,
                 t_start=1.0, t_end=3.0)
        tracer.spans.extend([a, b])
        events = chrome_trace(tracer.spans)["traceEvents"]
        lanes = {e["args"]["span_id"]: e["tid"] for e in events}
        assert lanes["1"] != lanes["2"]


class TestServingTrace:
    def test_request_span_nests_reissue_and_cancel(self, tmp_path):
        # Acceptance criterion: a traced serving run yields Chrome-trace
        # JSON where at least one request span contains nested reissue
        # and cancellation child spans.
        from repro.scenarios import Session

        scenario = {
            "name": "hedge-trace",
            "system": {"kind": "independent"},
            "policy": {"kind": "single-r", "delay": 1.0, "prob": 1.0},
            "objective": {"percentile": 0.99},
            "scale": {"n_queries": 40, "seeds": [7]},
        }
        with tracing() as tracer:
            Session("live", time_scale=2e-5).run(scenario)
        arts = write_trace_artifacts(tracer.spans, tmp_path, stem="hedge")
        events = json.loads(arts["chrome"].read_text())["traceEvents"]
        children_of = {}
        for e in events:
            children_of.setdefault(e["args"]["parent_id"], []).append(e["name"])
        requests = [
            e for e in events if e["name"] == "serving.request"
        ]
        assert requests
        nested = [
            e
            for e in requests
            if "serving.attempt.reissue" in children_of.get(e["args"]["span_id"], [])
            and "serving.cancel" in children_of.get(e["args"]["span_id"], [])
        ]
        assert nested, "no request span with nested reissue + cancel children"

    def test_chaos_spiked_primary_loses_race_with_cancel_in_trace(self):
        # Chaos regression for the PR 6 race-acceptance test: a primary
        # slowed 50x by fault injection must lose to the policy reissue,
        # and the trace must show the reissue child winning plus the
        # cancellation of the spiked primary.
        import asyncio

        import numpy as np

        from repro.core.policies import SingleR
        from repro.distributions import Deterministic
        from repro.serving.backends import SyntheticBackend
        from repro.serving.chaos import ChaosBackend
        from repro.serving.hedge import HedgedClient

        backend = ChaosBackend(
            SyntheticBackend(Deterministic(10.0), time_scale=2e-4)
        )
        backend.spike(factor=50.0, prob=1.0, primary_only=True)
        client = HedgedClient(
            backend, SingleR(1.0, 1.0), rng=np.random.default_rng(3)
        )
        with tracing() as tracer:
            outcomes = asyncio.run(client.serve(5))
        for outcome in outcomes:
            # Reissues are spared the spike, so the hedge wins every race
            # at (d=1) + 10 model ms instead of the spiked 500.
            assert outcome.winner == "reissue"
            assert outcome.latency_ms == pytest.approx(11.0)
            assert outcome.cancelled_attempts == 1
        requests = [s for s in tracer.spans if s.name == "serving.request"]
        assert len(requests) == 5
        children_of = {}
        for span in tracer.spans:
            children_of.setdefault(span.parent_id, []).append(span.name)
        for span in requests:
            names = children_of.get(span.span_id, [])
            assert "serving.attempt.reissue" in names
            # The cancellation of the spiked primary is a point event
            # (zero-duration child span) under the request span.
            assert "serving.cancel" in names
            assert span.attrs["winner"] == "reissue"

    def test_race_outcome_attrs_on_request_span(self):
        from repro.scenarios import Session

        scenario = {
            "name": "hedge-attrs",
            "system": {"kind": "independent"},
            "policy": {"kind": "single-r", "delay": 1.0, "prob": 1.0},
            "objective": {"percentile": 0.99},
            "scale": {"n_queries": 20, "seeds": [11]},
        }
        with tracing() as tracer:
            Session("live", time_scale=2e-5).run(scenario)
        requests = [s for s in tracer.spans if s.name == "serving.request"]
        assert requests
        for span in requests:
            assert span.attrs["winner"] in ("primary", "reissue")
            assert span.attrs["latency_ms"] >= 0
            assert span.attrs["n_reissues"] >= 0


class TestCliIntegration:
    def test_trace_subcommand_writes_artifacts(self, tmp_path, capsys):
        from repro.main import main

        rc = main(
            [
                "trace",
                "queueing-tail-quick",
                "--engine",
                "sim",
                "--seeds",
                "101",
                "--out",
                str(tmp_path),
                "--stem",
                "smoke",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario.run" in out
        assert "span summary" in out
        chrome = json.loads((tmp_path / "smoke.chrome.json").read_text())
        assert chrome["traceEvents"]

    def test_trace_json_carries_report_summary(self, tmp_path, capsys):
        from repro.main import main

        rc = main(
            ["trace", "queueing-tail-quick", "--seeds", "101",
             "--out", str(tmp_path), "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["engine"] == "sim"
        assert doc["summary"]["median_tail_ms"] > 0
        assert doc["summary"]["fastsim"]["kernel_tiers"]
        assert doc["spans"] > 0
        assert "fastsim.replications" in doc["metrics"]

    def test_run_without_trace_flag_stays_silent(self, capsys):
        from repro.main import main

        rc = main(["run", "queueing-tail-quick", "--seeds", "101"])
        assert rc == 0
        assert "span summary" not in capsys.readouterr().out


class TestPipelineCacheStats:
    def test_run_report_surfaces_cache_stats(self, tmp_path, capsys):
        from repro.main import main

        argv = [
            "run", "queueing-tail-quick",
            "--cache", str(tmp_path / "c"), "--seeds", "101",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "pipeline cache" in cold
        assert "misses" in cold
        assert main(argv) == 0  # warm: same cells now hit
        warm = capsys.readouterr().out
        assert "pipeline cache" in warm
        hit_line = next(
            line for line in warm.splitlines() if "pipeline cache" in line
        )
        assert "hits 0" not in hit_line

    def test_summary_json_includes_per_wave(self, tmp_path):
        from repro.scenarios import Session

        report = Session(cache_dir=tmp_path / "c").run(
            "queueing-tail-quick", seeds=[101]
        )
        stats = report.summary()["pipeline"]
        assert {"cache_hits", "cache_misses", "per_wave"} <= set(stats)
        assert stats["per_wave"], "expected at least one wave"
        wave = stats["per_wave"][0]
        assert {"wave", "cells", "cache_hits", "cache_misses"} <= set(wave)
