"""Bit-for-bit equivalence of the vectorized Figure-1 sweeps.

Mirrors ``tests/test_fastsim_equivalence.py``: the scalar sweeps in
``repro.core.optimizer`` are the reference, and the chunked broadcast
sweeps in ``repro.optimize.vectorized`` must return *identical*
``SingleRFit`` dataclasses — every field, every bit — across a
randomized matrix of sample sets, percentiles, and budgets, plus the
adversarial shapes (duplicates, tiny logs, constant logs) where index
arithmetic earns its keep.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import (
    compute_optimal_singled,
    compute_optimal_singler,
)
from repro.optimize import FitRequest, solve
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
        from repro.optimize import vectorized

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
