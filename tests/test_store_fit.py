"""Out-of-core fits are bit-for-bit equal to the in-memory fits."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import quantile_higher_sorted
from repro.optimize import FitRequest, solve
from repro.optimize.storefit import (
    compute_optimal_singled_chunked,
    compute_optimal_singler_chunked,
    load_trace_evidence,
)
from repro.optimize.vectorized import (
    compute_optimal_singled_vectorized,
    compute_optimal_singler_vectorized,
)
from repro.store import EmpiricalStore, StoreNotSortedError, TraceWriter
from repro.store.format import DEFAULT_BLOCK_RECORDS


def bits(fit):
    """Exact float identity, not approx: the tentpole contract."""
    return dataclasses.astuple(fit)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it allocated, per tracemalloc."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_store(path, samples, pairs=None, *, block_records=64):
    with TraceWriter(path, block_records=block_records, sorted=True) as w:
        w.append(np.sort(np.asarray(samples, dtype=np.float64)))
        if pairs is not None:
            w.begin_segment("pairs", 2)
            w.append(np.asarray(pairs, dtype=np.float64))
    return path


log_strategy = st.lists(
    st.floats(0.1, 1e4, allow_nan=False), min_size=20, max_size=400
)


class TestChunkedEqualsVectorized:
    @settings(max_examples=40, deadline=None)
    @given(
        samples=log_strategy,
        percentile=st.sampled_from([0.9, 0.95, 0.99]),
        budget=st.sampled_from([0.01, 0.05, 0.2]),
        chunk=st.sampled_from([1, 3, 7, 64]),
    )
    def test_singler_bitwise(self, samples, percentile, budget, chunk):
        rx = np.sort(np.asarray(samples, dtype=np.float64))
        expected = compute_optimal_singler_vectorized(
            rx, rx, percentile, budget
        )
        got = compute_optimal_singler_chunked(
            rx, rx, percentile, budget, chunk=chunk
        )
        assert bits(got) == bits(expected)

    @settings(max_examples=40, deadline=None)
    @given(
        samples=log_strategy,
        percentile=st.sampled_from([0.9, 0.95, 0.99]),
        budget=st.sampled_from([0.01, 0.05, 0.2]),
        chunk=st.sampled_from([1, 5, 128]),
    )
    def test_singled_bitwise(self, samples, percentile, budget, chunk):
        rx = np.sort(np.asarray(samples, dtype=np.float64))
        expected = compute_optimal_singled_vectorized(
            rx, rx, percentile, budget
        )
        got = compute_optimal_singled_chunked(
            rx, rx, percentile, budget, chunk=chunk
        )
        assert bits(got) == bits(expected)

    def test_distinct_reissue_log(self, rng):
        rx = np.sort(rng.lognormal(2.0, 0.6, 5000))
        ry = np.sort(rng.lognormal(1.5, 0.4, 3000))
        expected = compute_optimal_singler_vectorized(rx, ry, 0.99, 0.05)
        got = compute_optimal_singler_chunked(rx, ry, 0.99, 0.05, chunk=777)
        assert bits(got) == bits(expected)

    def test_release_called_between_chunks(self, rng):
        rx = np.sort(rng.exponential(5.0, 2000))
        calls = []
        compute_optimal_singler_chunked(
            rx, rx, 0.99, 0.05, chunk=100, release=lambda: calls.append(1)
        )
        assert len(calls) > 1


class TestQuantileHigherSorted:
    @settings(max_examples=50, deadline=None)
    @given(
        samples=st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=500
        ),
        p=st.floats(0.0, 1.0),
    )
    def test_matches_np_quantile(self, samples, p):
        x = np.sort(np.asarray(samples, dtype=np.float64))
        assert quantile_higher_sorted(x, p) == float(
            np.quantile(x, p, method="higher")
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            quantile_higher_sorted(np.empty(0), 0.5)


class TestSolverIntegration:
    def test_empirical_solver_store_vs_memory(self, tmp_path, rng):
        samples = rng.lognormal(2.0, 0.6, 20_000)
        path = make_store(tmp_path / "t.store", samples)
        mem = solve(
            FitRequest(rx=samples, percentile=0.99, budget=0.05), "empirical"
        )
        store = solve(
            FitRequest(
                rx=EmpiricalStore(path), percentile=0.99, budget=0.05
            ),
            "empirical",
        )
        assert store.meta["store"] is True
        assert "store" not in mem.meta
        assert store.policy.to_spec() == mem.policy.to_spec()
        assert bits(store.fit) == bits(mem.fit)

    def test_correlated_solver_store_vs_memory(self, tmp_path, rng):
        samples = rng.lognormal(2.0, 0.6, 8000)
        pair_x = rng.lognormal(2.0, 0.6, 600)
        pair_y = 0.5 * pair_x + rng.lognormal(1.0, 0.3, 600)
        pairs = np.column_stack([pair_x, pair_y])
        path = make_store(tmp_path / "c.store", samples, pairs)
        kwargs = dict(
            pair_x=pair_x, pair_y=pair_y, percentile=0.99, budget=0.05
        )
        mem = solve(FitRequest(rx=samples, **kwargs), "correlated")
        store = solve(
            FitRequest(rx=EmpiricalStore(path), **kwargs), "correlated"
        )
        assert store.meta["store"] is True
        assert store.policy.to_spec() == mem.policy.to_spec()
        assert bits(store.fit) == bits(mem.fit)

    def test_correlated_store_fit_allocates_o_pairs(self, tmp_path, rng):
        """Peak traced allocation is O(pairs), not O(samples): the
        fitter's "only the (small) pair log lives in RAM"."""
        samples = rng.lognormal(2.0, 0.6, 200_000)  # 1.6 MB as float64
        pair_x = rng.choice(samples, 2000)
        pair_y = 0.5 * pair_x + rng.lognormal(1.0, 0.3, 2000)
        path = make_store(
            tmp_path / "big.store",
            samples,
            np.column_stack([pair_x, pair_y]),
            block_records=4096,
        )
        kwargs = dict(
            pair_x=pair_x, pair_y=pair_y, percentile=0.99, budget=0.05
        )
        request = FitRequest(rx=EmpiricalStore(path), **kwargs)
        store, peak = traced_peak(solve, request, "correlated")
        assert peak < 512 * 1024, f"peak traced allocation {peak} bytes"
        mem = solve(FitRequest(rx=samples, **kwargs), "correlated")
        assert bits(store.fit) == bits(mem.fit)

    def test_empirical_store_fit_memory_is_bounded(self, tmp_path, rng):
        """A 1M-sample fit from the store peaks at a fixed working set
        (~25 MB traced, the same at 2M), far below the resident fit's
        ~210 MB; the answer stays bit-for-bit the resident one."""
        samples = rng.lognormal(2.0, 0.6, 1_000_000)
        path = make_store(
            tmp_path / "large.store", samples,
            block_records=DEFAULT_BLOCK_RECORDS,
        )
        kwargs = dict(percentile=0.99, budget=0.05)
        store, peak = traced_peak(
            solve, FitRequest(rx=EmpiricalStore(path), **kwargs), "empirical"
        )
        assert peak < 32 * 2**20, f"peak traced allocation {peak} bytes"
        mem, resident_peak = traced_peak(
            solve, FitRequest(rx=samples, **kwargs), "empirical"
        )
        assert resident_peak > 32 * 2**20  # the bound tells the paths apart
        assert bits(store.fit) == bits(mem.fit)


class TestLoadTraceEvidence:
    def test_store_path_yields_empirical_store(self, tmp_path, rng):
        samples = rng.exponential(5.0, 1000)
        pairs = rng.exponential(5.0, (50, 2))
        path = make_store(tmp_path / "t.store", samples, pairs)
        evidence = load_trace_evidence(str(path))
        assert isinstance(evidence["rx"], EmpiricalStore)
        np.testing.assert_array_equal(evidence["pair_x"], pairs[:, 0])
        np.testing.assert_array_equal(evidence["pair_y"], pairs[:, 1])

    def test_unsorted_store_raises_actionable(self, tmp_path, rng):
        path = tmp_path / "u.store"
        with TraceWriter(path, block_records=64) as w:
            w.append(rng.exponential(5.0, 100))
        with pytest.raises(StoreNotSortedError, match="repro store sort"):
            load_trace_evidence(str(path))

    def test_csv_path_loads_whole(self, tmp_path, rng):
        from repro.io.tracelog import TraceLog, write_trace

        samples = rng.exponential(5.0, 100)
        csv = tmp_path / "t.csv"
        write_trace(csv, TraceLog(primary=samples))
        evidence = load_trace_evidence(str(csv))
        np.testing.assert_array_equal(evidence["rx"], samples)
        assert "pair_x" not in evidence
