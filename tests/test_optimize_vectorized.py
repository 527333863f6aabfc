"""Bit-for-bit equivalence of the vectorized Figure-1 sweeps.

Mirrors ``tests/test_fastsim_equivalence.py``: the scalar sweeps in
``repro.core.optimizer`` are the reference, and the chunked broadcast
sweeps in ``repro.optimize.vectorized`` must return *identical*
``SingleRFit`` dataclasses — every field, every bit — across a
randomized matrix of sample sets, percentiles, and budgets, plus the
adversarial shapes (duplicates, tiny logs, constant logs) where index
arithmetic earns its keep.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.singled import compute_optimal_singled
from repro.core.optimizer import (
    compute_optimal_singler,
    singler_success_rate,
)
from repro.distributions import LogNormal, Pareto
from repro.obs import metrics_scope
from repro.optimize import FitRequest, solve, vectorized
from repro.optimize.storefit import compute_optimal_singler_chunked
from repro.optimize.vectorized import (
    compute_optimal_singled_vectorized,
    compute_optimal_singler_vectorized,
)
from repro.store import EmpiricalStore, TraceWriter

PERCENTILES = (0.5, 0.9, 0.95, 0.99)
BUDGETS = (0.01, 0.05, 0.2, 0.5, 1.0)


def sample_logs(kind: str, n: int, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "pareto":
        rx = rng.pareto(1.1, n) * 2.0 + 2.0
    elif kind == "lognormal":
        rx = rng.lognormal(1.0, 1.0, n)
    elif kind == "discrete":
        # Heavy duplication: first-occurrence arithmetic must agree.
        rx = rng.integers(1, max(2, n // 8 + 2), n).astype(np.float64)
    else:  # constant
        rx = np.full(n, 3.0)
    ry = rng.lognormal(0.5, 1.0, n) if seed % 2 else rx
    return rx, ry


class TestSingleREquivalence:
    @pytest.mark.parametrize("kind", ["pareto", "lognormal", "discrete", "constant"])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 4096])
    def test_matrix_bit_for_bit(self, kind, n):
        for seed in (0, 1):
            rx, ry = sample_logs(kind, n, seed)
            for k in PERCENTILES:
                for budget in BUDGETS:
                    legacy = compute_optimal_singler(rx, ry, k, budget)
                    fast = compute_optimal_singler_vectorized(rx, ry, k, budget)
                    assert legacy == fast, (kind, n, seed, k, budget)

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=400),
        k=st.sampled_from(PERCENTILES),
        budget=st.sampled_from(BUDGETS),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_randomized_bit_for_bit(self, data, n, k, budget, seed):
        rng = np.random.default_rng(seed)
        # Mix continuous and quantized values so near-ties at the
        # feasibility threshold are actually exercised.
        rx = rng.pareto(1.05, n) * 2.0 + 2.0
        if data.draw(st.booleans(), label="quantize"):
            rx = np.round(rx, 1)
        ry = rx if data.draw(st.booleans(), label="shared_ry") else (
            rng.lognormal(0.5, 1.0, n)
        )
        legacy = compute_optimal_singler(rx, ry, k, budget)
        fast = compute_optimal_singler_vectorized(rx, ry, k, budget)
        assert legacy == fast

    def test_input_validation_matches_legacy(self):
        rx = np.array([1.0, 2.0])
        nan = np.array([1.0, 2.0, np.nan])  # sorted: NaN goes last
        for bad in (
            lambda f: f(np.empty(0), rx, 0.9, 0.1),
            lambda f: f(rx, np.empty(0), 0.9, 0.1),
            lambda f: f(rx, rx, 0.0, 0.1),
            lambda f: f(rx, rx, 1.0, 0.1),
            lambda f: f(rx, rx, 0.9, 0.0),
            lambda f: f(rx, rx, 0.9, 1.5),
            lambda f: f(nan, rx, 0.9, 0.1),
            lambda f: f(rx, nan, 0.9, 0.1),
        ):
            for fit in (
                compute_optimal_singler,
                compute_optimal_singler_vectorized,
                compute_optimal_singler_chunked,
            ):
                with pytest.raises(ValueError):
                    bad(fit)


class TestSingleDEquivalence:
    @pytest.mark.parametrize("kind", ["pareto", "lognormal", "discrete", "constant"])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 4096])
    def test_matrix_bit_for_bit(self, kind, n):
        for seed in (0, 1):
            rx, ry = sample_logs(kind, n, seed)
            for k in PERCENTILES:
                for budget in BUDGETS:
                    legacy = compute_optimal_singled(rx, ry, k, budget)
                    fast = compute_optimal_singled_vectorized(rx, ry, k, budget)
                    assert legacy == fast, (kind, n, seed, k, budget)

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=400),
        k=st.sampled_from(PERCENTILES),
        budget=st.sampled_from(BUDGETS),
        seed=st.integers(min_value=0, max_value=2**31),
        quantize=st.booleans(),
    )
    def test_randomized_bit_for_bit(self, n, k, budget, seed, quantize):
        rng = np.random.default_rng(seed)
        rx = rng.pareto(1.05, n) * 2.0 + 2.0
        if quantize:
            rx = np.round(rx, 1)
        ry = rng.lognormal(0.5, 1.0, n)
        legacy = compute_optimal_singled(rx, ry, k, budget)
        fast = compute_optimal_singled_vectorized(rx, ry, k, budget)
        assert legacy == fast


class TestScalarFallback:
    def test_sweep_trajectory_fallback_path(self, monkeypatch, tmp_path):
        """If the probe replay ever rejects the reconstructed trajectory,
        every entry point — in-memory, chunked over a store's memmap, and
        ``solve`` on a store — must fall back to the scalar sweep (same
        result, slower) rather than guess."""
        monkeypatch.setattr(
            vectorized, "_sweep_trajectory", lambda *a, **k: None
        )
        rng = np.random.default_rng(3)
        rx = rng.pareto(1.1, 500) * 2.0 + 2.0
        legacy = compute_optimal_singler(rx, rx, 0.95, 0.1)
        assert vectorized.compute_optimal_singler_vectorized(
            rx, rx, 0.95, 0.1
        ) == legacy

        path = tmp_path / "log.store"
        with TraceWriter(path, sorted=True) as writer:
            writer.append(np.sort(rx))
        store = EmpiricalStore(path)
        try:
            mapped = store.sorted_samples
            assert isinstance(mapped, np.memmap)
            assert compute_optimal_singler_chunked(
                mapped, mapped, 0.95, 0.1, chunk=64, release=store.release
            ) == legacy
            request = FitRequest(rx=store, percentile=0.95, budget=0.1)
            assert solve(request, "empirical").fit == legacy
        finally:
            store.close()

    def test_fallback_releases_the_map(self, monkeypatch):
        """The scalar path releases the caller's pages like the sweep
        does, and the fallback counter records that it ran."""
        monkeypatch.setattr(
            vectorized, "_sweep_trajectory", lambda *a, **k: None
        )
        rx = np.sort(np.random.default_rng(5).exponential(5.0, 400))
        released = []
        with metrics_scope() as registry:
            fit = compute_optimal_singler_chunked(
                rx, rx, 0.95, 0.1, release=lambda: released.append(1)
            )
        assert released == [1]
        assert fallbacks(registry) == 1
        assert fit == compute_optimal_singler(rx, rx, 0.95, 0.1)

    def test_fallback_reads_a_memmap_in_place(self, monkeypatch, tmp_path):
        """The scalar fallback loops over the sorted logs it is given: on
        a memmap it sorts, copies and partitions nothing, so its traced
        peak stays far below the log's size."""
        monkeypatch.setattr(
            vectorized, "_sweep_trajectory", lambda *a, **k: None
        )
        rx = np.sort(LogNormal(3.0, 0.8).sample(20_000, np.random.default_rng(8)))
        oracle = compute_optimal_singler(rx, rx, 0.99, 0.05)
        mapped = memmap_of(tmp_path, rx)
        tracemalloc.start()
        try:
            fit = compute_optimal_singler_chunked(mapped, mapped, 0.99, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mapped.nbytes / 4, f"peak traced allocation {peak} bytes"
        assert fit == oracle


def fallbacks(registry) -> int:
    counter = registry.get("optimize.sweep.fallbacks")
    return 0 if counter is None else counter.value


def store_memmap(path, sorted_samples):
    """An open store holding ``sorted_samples`` and its memmap."""
    with TraceWriter(path, sorted=True) as writer:
        writer.append(sorted_samples)
    store = EmpiricalStore(path)
    assert isinstance(store.sorted_samples, np.memmap)
    return store, store.sorted_samples


def scalar_moves(rx, ry, percentile, budget):
    """``(i, j)`` for every candidate delay ``rx[i]`` that moved the
    scalar loop's t-index, ``j`` being where it landed."""
    n = rx.size
    i, j, moves = 0, n - 1, []
    i_max = max(int(np.ceil(n * (1.0 - budget))) - 1, 0)
    while i <= min(j, i_max):
        d, j_before = rx[i], j
        while j > 0 and rx[j - 1] >= d and singler_success_rate(
            rx, ry, budget, rx[j - 1], d
        ) >= percentile:
            j -= 1
        if j < j_before:
            moves.append((i, j))
        i += 1
    return moves


def tied_logs(seed: int, n: int, shape: str):
    rng = np.random.default_rng(seed)
    rx = rng.lognormal(1.0, 1.0, n)
    if shape == "rounded":
        rx = np.round(rx)
    elif shape == "heavy-ties":  # a dozen values, most samples on three
        rx = np.round(rx / 4.0)
    elif shape == "top-tied":  # Pr(X < max) can fall below p
        rx[rx > np.quantile(rx, 0.7)] = rx.max()
    return np.sort(rx)


def memmap_of(directory, sorted_samples):
    """The same samples as a read-only ``np.memmap``, like a store's."""
    path = directory / "log.f8"
    sorted_samples.tofile(path)
    return np.memmap(path, dtype=np.float64, mode="r")


def probes(registry) -> int:
    counter = registry.get("optimize.sweep.probes")
    return 0 if counter is None else counter.value


class TestBracket:
    """The binary search starts each candidate on ``_bracket``'s range,
    and the probe replay certifies what it finds."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        shape=st.sampled_from(["continuous", "rounded", "top-tied"]),
        k=st.sampled_from([0.5, 0.9, 0.99, 0.999]),
        budget=st.sampled_from([0.001, 0.05, 0.5, 0.9, 1.0]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_bracket_claims_hold_probe_for_probe(self, n, shape, k, budget, seed):
        """Nothing in ``[locc, lo)`` is feasible, and ``hi`` is feasible
        unless it is the last index or equals ``lo``."""
        rx = tied_logs(seed, n, shape)
        m = min(max(int(np.ceil(n * (1.0 - budget))) - 1, 0), n - 1) + 1
        locc = np.searchsorted(rx, rx[:m], side="left")
        q = np.minimum(1.0, budget / (1.0 - locc / n))
        lo, hi = vectorized._bracket(rx, k, q, locc)
        assert np.all((locc <= lo) & (lo <= hi) & (hi <= n - 1))
        for i in range(m):
            d = rx[i]
            for j in range(locc[i], lo[i]):
                assert singler_success_rate(rx, rx, budget, rx[j], d) < k
            if lo[i] < hi[i] < n - 1:
                assert singler_success_rate(rx, rx, budget, rx[hi[i]], d) >= k

    def test_no_fallback_on_bench_shaped_inputs(self, tmp_path):
        """A bracket that is right but always rejected would pass every
        equality test and still run the scalar loop."""
        rng = np.random.default_rng(11)
        service = LogNormal(3.0, 0.8)
        with metrics_scope() as registry:
            for _ in range(256):
                window = service.sample(2_000, rng)
                solve(FitRequest(0.99, 0.05, rx=window), "empirical")
            log = np.sort(Pareto(1.1, 2.0).sample(200_000, rng))
            resident = compute_optimal_singler_vectorized(log, log, 0.99, 0.05)
            store, mapped = store_memmap(tmp_path / "log.store", log)
            try:
                backed = compute_optimal_singler_chunked(
                    mapped, mapped, 0.99, 0.05, release=store.release
                )
            finally:
                store.close()
        assert backed == resident
        assert fallbacks(registry) == 0

    @pytest.mark.parametrize("source", ["resident", "memmap"])
    def test_replay_rejects_a_bracket_past_the_landing_point(
        self, monkeypatch, tmp_path, source
    ):
        """A lower bound one past a record candidate's true landing point
        is caught by the replay: the sweep falls back to the scalar loop
        once and still returns the oracle's fit."""
        rx = np.sort(LogNormal(3.0, 0.8).sample(2_000, np.random.default_rng(4)))
        k, budget = 0.99, 0.05
        oracle = compute_optimal_singler(rx, rx, k, budget)
        i_star, landed = scalar_moves(rx, rx, k, budget)[-1]
        real = vectorized._bracket

        def past_the_landing_point(rx_, percentile, q, locc):
            lo, hi = real(rx_, percentile, q, locc)
            assert lo[i_star] <= landed <= hi[i_star]  # one chunk: i is i
            lo[i_star] = landed + 1
            return lo, np.maximum(lo, hi)

        monkeypatch.setattr(vectorized, "_bracket", past_the_landing_point)
        store = None
        if source == "memmap":
            store, rx = store_memmap(tmp_path / "log.store", rx)
        try:
            chunk = vectorized.DEFAULT_CHUNK
            assert vectorized._sweep_trajectory(
                rx, rx, k, budget, chunk, None
            ) is None
            with metrics_scope() as registry:
                fit = compute_optimal_singler_chunked(rx, rx, k, budget)
            assert fallbacks(registry) == 1
            assert fit == oracle
        finally:
            if store is not None:
                store.close()


class TestLandingSearch:
    """The false-position search over compacted candidates lands where
    bisection did, with fewer probes."""

    BISECTION_PROBES = 1_763_780

    @pytest.mark.parametrize("source", ["resident", "memmap"])
    def test_probe_count_is_pinned_and_halved(self, tmp_path, source):
        """On a fixed 200k-sample Pareto(1.1) log at (0.99, 0.05) the
        search makes exactly 820 546 probes. The plain bisection it
        replaced made 1 763 780 on the same input (one probe per
        candidate at the top of the t range, then every bisection
        round); the count must stay at most half of that."""
        rx = np.sort(Pareto(1.1, 2.0).sample(200_000, np.random.default_rng(7)))
        oracle = compute_optimal_singler_vectorized(rx, rx, 0.99, 0.05)
        if source == "memmap":
            rx = memmap_of(tmp_path, rx)
        with metrics_scope() as registry:
            fit = compute_optimal_singler_chunked(rx, rx, 0.99, 0.05)
        assert fit == oracle
        assert fallbacks(registry) == 0
        assert probes(registry) == 820_546
        assert 2 * probes(registry) <= self.BISECTION_PROBES

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2_000, max_value=50_000),
        shape=st.sampled_from(["continuous", "rounded", "heavy-ties", "top-tied"]),
        k=st.sampled_from([0.5, 0.9, 0.99, 0.999]),
        budget=st.sampled_from([0.001, 0.05, 0.5, 1.0]),
        distinct_ry=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_no_fallback_at_false_position_sizes(
        self, tmp_path_factory, n, shape, k, budget, distinct_ry, seed
    ):
        """At sizes where brackets get wide enough for false position,
        the replay accepts every trajectory: no input reaches the scalar
        fallback, the memmap sweep equals the resident one, and both
        equal the scalar loop where that is cheap enough to run."""
        rx = tied_logs(seed, n, shape)
        ry = tied_logs(seed + 1, n // 2, "continuous") if distinct_ry else rx
        mapped_x = memmap_of(tmp_path_factory.mktemp("logs"), rx)
        mapped_y = mapped_x
        if distinct_ry:
            mapped_y = memmap_of(tmp_path_factory.mktemp("logs"), ry)
        with metrics_scope() as registry:
            resident = compute_optimal_singler_chunked(rx, ry, k, budget)
            stored = compute_optimal_singler_chunked(mapped_x, mapped_y, k, budget)
        assert fallbacks(registry) == 0
        assert stored == resident
        if n <= 4_000:
            assert resident == compute_optimal_singler(rx, ry, k, budget)
