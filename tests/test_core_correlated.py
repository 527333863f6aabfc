"""Tests for the correlation-aware optimizer (paper §4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.correlated import ConditionalReissueCdf
from repro.core.correlated import compute_optimal_singler_correlated
from repro.core.optimizer import (
    SingleRFit,
    compute_optimal_singler,
    discrete_cdf,
)


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
