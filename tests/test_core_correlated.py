"""Tests for the correlation-aware optimizer (paper §4.2).

The sweep loop runs in the package's C library (``core/_correlated.c``)
and falls back to its Python twin where that library cannot load; both
are held bit for bit to a stateless Figure-1 loop, on every caller.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.correlated import ConditionalReissueCdf
from repro import _clib
from repro.core.adaptive import AdaptiveSingleROptimizer
from repro.core.correlated import compute_optimal_singler_correlated
from repro.core.interfaces import RunResult
from repro.core.optimizer import (
    SingleRFit,
    compute_optimal_singler,
    discrete_cdf,
)
from repro.obs import metrics_scope
from repro.optimize import FitRequest, solve
from repro.store import EmpiricalStore, TraceWriter


def correlated_pairs(n=3000, r=0.5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.pareto(1.1, n) * 2.0 + 2.0
    z = rng.pareto(1.1, n) * 2.0 + 2.0
    return x, r * x + z


class TestConditionalCdf:
    def test_matches_naive_count(self):
        # Rounded so that every query value ties with samples: both
        # inequalities are strict (X == t and Y == y are not counted).
        x, y = (np.round(a) for a in correlated_pairs(500))
        cond = ConditionalReissueCdf(x, y)
        for t in (2.0, 5.0, 10.0):
            y_above = y[x > t]
            yy = float(np.sort(y_above)[y_above.size // 2])
            assert (x == t).any() and (y_above == yy).sum() > 1
            assert cond(t, yy) == int((y_above < yy).sum()) / y_above.size

    def test_no_mass_above_t(self):
        x = np.array([1.0, 2.0])
        y = np.array([1.0, 2.0])
        cond = ConditionalReissueCdf(x, y)
        assert cond(5.0, 100.0) == 0.0

    def test_positive_correlation_lowers_conditional(self):
        # Under positive correlation, conditioning on a slow primary makes
        # a fast reissue less likely than unconditionally.
        x, y = correlated_pairs(20_000, r=1.0, seed=2)
        cond = ConditionalReissueCdf(x, y)
        t = float(np.quantile(x, 0.95))
        yy = float(np.quantile(y, 0.5))
        unconditional = float((y <= yy).mean())
        assert cond(t, yy) < unconditional


class TestCorrelatedFit:
    def test_feasible_and_on_budget(self):
        x, y = correlated_pairs()
        fit = compute_optimal_singler_correlated(x, x, y, 0.95, 0.1)
        assert 0.0 <= fit.prob <= 1.0
        surv = float((x >= fit.delay).mean())
        assert fit.prob * surv <= 0.1 + 1 / x.size + 1e-9
        assert fit.predicted_tail <= fit.baseline_tail + 1e-9

    def test_independent_pairs_agree_with_independent_optimizer(self):
        # With r=0 the conditional CDF estimator should land near the
        # unconditional fit.
        rng = np.random.default_rng(5)
        x = rng.lognormal(1.0, 1.0, 8000)
        y = rng.lognormal(1.0, 1.0, 8000)
        fit_c = compute_optimal_singler_correlated(x, x, y, 0.95, 0.15)
        fit_i = compute_optimal_singler(x, y, 0.95, 0.15)
        assert fit_c.predicted_tail == pytest.approx(
            fit_i.predicted_tail, rel=0.15
        )

    def test_correlation_makes_optimizer_reissue_earlier(self):
        # §5.3: under service-time correlation the optimal SingleR reissues
        # earlier (larger outstanding fraction) with smaller q.
        x_i, y_i = correlated_pairs(20_000, r=0.0, seed=3)
        x_c, y_c = correlated_pairs(20_000, r=0.9, seed=3)
        fit_i = compute_optimal_singler_correlated(x_i, x_i, y_i, 0.95, 0.1)
        fit_c = compute_optimal_singler_correlated(x_c, x_c, y_c, 0.95, 0.1)
        out_i = float((x_i > fit_i.delay).mean())
        out_c = float((x_c > fit_c.delay).mean())
        assert out_c >= out_i
        assert fit_c.prob <= fit_i.prob + 1e-9

    def test_correlated_fit_predicts_no_better_than_independent_assumption(self):
        # Ignoring positive correlation overestimates reissue value: the
        # correlation-aware predicted tail must be >= the naive one.
        x, y = correlated_pairs(10_000, r=0.8, seed=4)
        naive = compute_optimal_singler(x, y, 0.95, 0.1)
        aware = compute_optimal_singler_correlated(x, x, y, 0.95, 0.1)
        assert aware.predicted_tail >= naive.predicted_tail - 1e-9

    def test_validation(self):
        x, y = correlated_pairs(100)
        with pytest.raises(ValueError):
            compute_optimal_singler_correlated([], x, y, 0.9, 0.1)
        with pytest.raises(ValueError):
            compute_optimal_singler_correlated(x, x[:10], y[:5], 0.9, 0.1)
        with pytest.raises(ValueError):
            compute_optimal_singler_correlated(x, x, y, 1.5, 0.1)


def figure1_random_access(rx, pair_x, pair_y, percentile, budget):
    """The §4.2 search as Figure 1 writes it, one stateless lookup per term.

    Every probe is answered from scratch — ``DiscreteCDF`` by binary
    search on the sorted log, the conditional CDF by a random-access
    :class:`ConditionalReissueCdf` query — so it shares no sweep state
    with the fitter it checks.
    """
    rx = np.sort(np.asarray(rx, dtype=np.float64))
    cond = ConditionalReissueCdf(pair_x, pair_y)
    n = rx.size

    def success_rate(t, d):
        p_x_lt_t = discrete_cdf(rx, t)
        q = min(1.0, budget / (1.0 - discrete_cdf(rx, d)))
        return p_x_lt_t + q * (1.0 - p_x_lt_t) * cond(t, t - d)

    i, j = 0, n - 1
    d_star, t = rx[0], rx[j]
    i_max = max(int(np.ceil(n * (1.0 - budget))) - 1, 0)
    while i <= min(j, i_max):
        d = rx[i]
        i += 1
        while j > 0 and rx[j - 1] >= d:
            if success_rate(rx[j - 1], d) < percentile:
                break
            j -= 1
            t, d_star = rx[j], d
    p_x_ge_d = 1.0 - discrete_cdf(rx, d_star)
    return SingleRFit(
        delay=float(d_star),
        prob=1.0 if p_x_ge_d <= budget else budget / p_x_ge_d,
        predicted_tail=float(t),
        predicted_success=float(success_rate(t, d_star)),
        baseline_tail=float(np.quantile(rx, percentile, method="higher")),
        budget=float(budget),
        percentile=float(percentile),
    )


@st.composite
def tied_logs(draw):
    """Logs with ties inside rx, between pair_x and rx, and inside pair_y."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decimals = draw(st.integers(0, 2))
    n = draw(st.integers(1, 400))
    m = draw(st.integers(1, 400))
    rx = np.round(rng.lognormal(0.5, 1.0, n), decimals)
    if draw(st.booleans()):  # pairs are a subset of the primary log
        pair_x = rng.choice(rx, m)
    else:
        pair_x = np.round(rng.lognormal(0.5, 1.0, m), decimals)
    r = draw(st.sampled_from([0.0, 0.5, 1.0]))
    pair_y = np.round(r * pair_x + rng.lognormal(0.5, 1.0, m), decimals)
    # Down to 1/n (a single reissue) and up to 1.0 (i_max == 0).
    budget = draw(st.sampled_from([1.0 / n, 0.01, 0.05, 0.3, 0.9, 1.0]))
    return rx, pair_x, pair_y, draw(st.sampled_from([0.5, 0.9, 0.99])), budget


@settings(max_examples=150, deadline=None)
@given(tied_logs())
def test_property_bit_for_bit_with_random_access_figure1(logs):
    rx, pair_x, pair_y, percentile, budget = logs
    expected = figure1_random_access(rx, pair_x, pair_y, percentile, budget)
    assert (
        compute_optimal_singler_correlated(rx, pair_x, pair_y, percentile, budget)
        == expected
    )
    # baseline_tail apart (np.quantile vs the order statistic, equal bits),
    # the presorted path runs the same statements.
    assert (
        compute_optimal_singler_correlated(
            np.sort(rx), pair_x, pair_y, percentile, budget, presorted=True
        )
        == expected
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1000),
    r=st.floats(0.0, 1.0),
    budget=st.floats(0.05, 0.5),
)
def test_property_correlated_fit_invariants(seed, r, budget):
    rng = np.random.default_rng(seed)
    x = rng.lognormal(0.5, 1.0, 500)
    y = r * x + rng.lognormal(0.5, 1.0, 500)
    fit = compute_optimal_singler_correlated(x, x, y, 0.9, budget)
    assert 0.0 <= fit.prob <= 1.0
    assert fit.predicted_tail <= fit.baseline_tail + 1e-9
    assert 0.0 <= fit.predicted_success <= 1.0


def python_loop(fit, *args, **kwargs):
    """``fit(*args, **kwargs)`` with the C library unloadable, so the
    sweep runs its Python loop; returns the result and the number of
    fallbacks counted."""
    failed = RuntimeError("the repro C library is unavailable (patched)")
    with metrics_scope() as registry, mock.patch.object(
        _clib, "load", side_effect=failed
    ):
        result = fit(*args, **kwargs)
    return result, fallbacks(registry)


def fallbacks(registry) -> int:
    counter = registry.get("optimize.correlated.fallbacks")
    return 0 if counter is None else counter.value


@st.composite
def sweep_logs(draw):
    """Tie-heavy logs at the objectives the callers fit."""
    rx, pair_x, pair_y, _, _ = draw(tied_logs())
    percentile = draw(st.sampled_from([0.5, 0.9, 0.99, 0.999]))
    budget = draw(st.sampled_from([0.001, 0.05, 0.5, 1.0]))
    return rx, pair_x, pair_y, percentile, budget


@settings(max_examples=120, deadline=None)
@given(sweep_logs(), st.booleans())
def test_property_c_sweep_equals_python_loop_and_oracle(logs, mapped):
    rx, pair_x, pair_y, percentile, budget = logs
    expected = figure1_random_access(rx, pair_x, pair_y, percentile, budget)
    with tempfile.TemporaryDirectory() as tmp:
        if mapped:  # the store path: a sorted read-only map, presorted
            path = Path(tmp) / "rx.npy"
            np.save(path, np.sort(rx))
            rx_in, kwargs = np.load(path, mmap_mode="r"), {"presorted": True}
        else:
            rx_in, kwargs = rx, {}
        args = (rx_in, pair_x, pair_y, percentile, budget)
        compiled = compute_optimal_singler_correlated(*args, **kwargs)
        loop, counted = python_loop(
            compute_optimal_singler_correlated, *args, **kwargs
        )
        del rx_in
    assert compiled == expected
    assert loop == expected
    assert counted == 1


def test_without_compiler_runs_the_python_loop_and_counts_it(request):
    x, y = correlated_pairs(3000, r=0.5, seed=7)
    with metrics_scope() as registry:
        compiled = compute_optimal_singler_correlated(x, x, y, 0.99, 0.05)
        assert fallbacks(registry) == 0
        request.getfixturevalue("no_compiler")
        for expected_count in (1, 2):
            fit = compute_optimal_singler_correlated(x, x, y, 0.99, 0.05)
            assert fit == compiled
            assert fallbacks(registry) == expected_count
    assert "`cc` is not on PATH" in _clib._unavailable


def probe_run(n=4000, m=900, seed=3):
    rng = np.random.default_rng(seed)
    primary = rng.lognormal(1.0, 0.7, n)
    pair_x = rng.choice(primary, m)
    pair_y = 0.6 * pair_x + rng.lognormal(0.5, 0.5, m)
    return RunResult(
        latencies=primary,
        primary_response_times=primary,
        reissue_pair_x=pair_x,
        reissue_pair_y=pair_y,
        reissue_rate=m / n,
    )


def store_of(tmp_path, samples):
    path = tmp_path / "primary.store"
    with TraceWriter(path, sorted=True) as writer:
        writer.append(np.sort(samples))
    return EmpiricalStore(path)


class TestEveryCaller:
    """The C sweep's fit is ``==`` the Python loop's on every caller."""

    def test_adaptive_fit_from_run(self):
        run = probe_run()
        optimizer = AdaptiveSingleROptimizer(percentile=0.99, budget=0.05)
        compiled = optimizer.fit_from_run(run)
        loop, counted = python_loop(optimizer.fit_from_run, run)
        assert compiled == loop and counted == 1

    @pytest.mark.parametrize("solver", ["correlated", "online"])
    def test_solvers(self, solver):
        run = probe_run()
        request = FitRequest(
            rx=run.primary_response_times,
            pair_x=run.reissue_pair_x,
            pair_y=run.reissue_pair_y,
            percentile=0.99,
            budget=0.05,
        )
        compiled = solve(request, solver)
        loop, counted = python_loop(solve, request, solver)
        assert compiled.fit == loop.fit and counted == 1
        if solver == "online":
            assert compiled.meta["mode"] == "correlated"

    def test_store_backed_solver(self, tmp_path):
        run = probe_run()
        store = store_of(tmp_path, run.primary_response_times)
        try:
            request = FitRequest(
                rx=store,
                pair_x=run.reissue_pair_x,
                pair_y=run.reissue_pair_y,
                percentile=0.99,
                budget=0.05,
            )
            compiled = solve(request, "correlated")
            loop, counted = python_loop(solve, request, "correlated")
        finally:
            store.close()
        assert compiled.meta["store"] is True
        assert compiled.fit == loop.fit and counted == 1


class TestNaNIsRejected:
    """A NaN anywhere in the logs is an error, as for the empirical
    fitter, never a fit with a NaN baseline or a biased ``cond``."""

    @staticmethod
    def logs(n=200, m=120):
        rng = np.random.default_rng(11)
        rx = rng.lognormal(1.0, 0.5, n)
        pair_x = rng.choice(rx, m)
        return rx, pair_x, pair_x + rng.lognormal(0.0, 0.5, m)

    @pytest.mark.parametrize("solver", ["correlated", "online", "empirical"])
    def test_nan_in_rx(self, solver):
        rx, pair_x, pair_y = self.logs()
        rx[17] = np.nan
        request = FitRequest(
            rx=rx, pair_x=pair_x, pair_y=pair_y, percentile=0.9, budget=0.1
        )
        with pytest.raises(ValueError, match="must not contain NaN"):
            solve(request, solver)

    def test_nan_in_presorted_mapped_rx(self, tmp_path):
        # The store refuses non-finite blocks at open; a presorted map
        # handed in directly must be refused by the fitter itself.
        rx, pair_x, pair_y = self.logs()
        rx[17] = np.nan
        np.save(tmp_path / "rx.npy", np.sort(rx))
        mapped = np.load(tmp_path / "rx.npy", mmap_mode="r")
        with pytest.raises(ValueError, match="rx must not contain NaN"):
            compute_optimal_singler_correlated(
                mapped, pair_x, pair_y, 0.9, 0.1, presorted=True
            )

    @pytest.mark.parametrize("which", ["pair_x", "pair_y"])
    @pytest.mark.parametrize("solver", ["correlated", "online"])
    def test_nan_in_pairs(self, which, solver):
        rx, pair_x, pair_y = self.logs()
        {"pair_x": pair_x, "pair_y": pair_y}[which][5] = np.nan
        request = FitRequest(
            rx=rx, pair_x=pair_x, pair_y=pair_y, percentile=0.9, budget=0.1
        )
        with pytest.raises(
            ValueError, match="pair_x and pair_y must not contain NaN"
        ):
            solve(request, solver)
