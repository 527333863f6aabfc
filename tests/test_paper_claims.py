"""The paper's quantitative claims, asserted on the figures' quick rows.

Every figure claim reads the session's shared serial run
(``figure_runs`` in ``conftest.py``: ``quick`` scale, seed 42), the same
rows the golden digests pin, so checking a claim costs no simulation.
The design-choice ablations at the end run their own small systems.

``docs/paper_claims.md`` is the ledger: one row per claim with its paper
section, the value these rows give, the tolerance and the test id, plus
the claims still open.
"""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveSingleROptimizer
from repro.core.correlated import compute_optimal_singler_correlated
from repro.core.optimizer import compute_optimal_singler
from repro.core.policies import NoReissue, SingleR
from repro.distributions import Pareto
from repro.simulation.engine import ClusterConfig, simulate_cluster
from repro.simulation.workloads import (
    ServiceModel,
    correlated_workload,
    queueing_workload,
)


def rows(figure_runs, eid, panel=None):
    result = figure_runs(eid).result
    return [r for r in result.rows if panel is None or r[0] == panel]


# ---------------------------------------------------------------------------
# Figure 2: load perturbation and adaptive convergence (§4.3)
# ---------------------------------------------------------------------------


def test_fig2_reissue_budget_inflates_primary_cdf(figure_runs):
    vals = {}
    for _, x, series, value in rows(figure_runs, "fig2", "a"):
        vals.setdefault(series, []).append((x, value))
    orig = dict(vals["Original"])
    pert = dict(vals["Primary"])
    x85 = min(orig, key=lambda p: abs(p - 0.85))
    assert pert[x85] > orig[x85], "30% reissue budget must inflate the primary CDF"


def test_fig2_every_trial_recorded(figure_runs):
    assert len(rows(figure_runs, "fig2", "b")) >= 4


# ---------------------------------------------------------------------------
# Figure 3: SingleR vs SingleD on the three §5.1 workloads
# ---------------------------------------------------------------------------


@pytest.fixture
def fig3_ratios(figure_runs):
    """(workload, policy) -> [(budget, P95 reduction ratio)]."""
    by = {}
    for row in rows(figure_runs, "fig3"):
        by.setdefault((row[0], row[2]), []).append((row[1], row[7]))
    return by


def test_fig3_singler_helps_on_every_workload(fig3_ratios):
    for wl in ("independent", "correlated", "queueing"):
        assert max(r for _, r in fig3_ratios[(wl, "SingleR")]) > 1.0, wl
    assert max(r for _, r in fig3_ratios[("independent", "SingleR")]) > 1.5


@pytest.mark.parametrize("workload", ["independent", "correlated"])
def test_fig3_singler_matches_singled_at_smallest_budget(fig3_ratios, workload):
    b0 = min(b for b, _ in fig3_ratios[(workload, "SingleR")])
    sr = dict(fig3_ratios[(workload, "SingleR")])[b0]
    sd = dict(fig3_ratios[(workload, "SingleD")])[b0]
    assert sr >= sd - 0.05


def test_fig3_correlation_shrinks_the_gain(fig3_ratios):
    assert max(r for _, r in fig3_ratios[("correlated", "SingleR")]) < max(
        r for _, r in fig3_ratios[("independent", "SingleR")]
    )


# ---------------------------------------------------------------------------
# Figure 4: queueing dampens the primary/reissue correlation (§5.3)
# ---------------------------------------------------------------------------


def test_fig4_queueing_dampens_correlation(figure_runs):
    meta = figure_runs("fig4").result.meta
    assert meta["corr_correlated"] > 0.3
    assert meta["corr_queueing"] < meta["corr_correlated"]


# ---------------------------------------------------------------------------
# Figure 5: correlation, load-balancing and discipline sweeps (§5.4)
# ---------------------------------------------------------------------------


def test_fig5a_strong_correlation_does_not_help(figure_runs):
    a = sorted(
        (r[2], r[3])
        for r in rows(figure_runs, "fig5", "a")
        if r[1].startswith("SingleR")
    )
    assert a[-1][1] >= a[0][1] * 0.8


def test_fig5b_smarter_balancers_lower_the_baseline(figure_runs):
    base = {r[1]: r[3] for r in rows(figure_runs, "fig5", "b") if r[2] == 0.0}
    assert base["min-of-all"] <= base["random"]
    assert base["min-of-2"] <= base["random"]


@pytest.mark.parametrize(
    "panel, variants",
    [
        ("b", ("random", "min-of-2", "min-of-all")),
        ("c", ("fifo", "prioritized-fifo", "prioritized-lifo")),
    ],
    ids=["balancers", "disciplines"],
)
def test_fig5_singler_reduces_p95_for_every_variant(figure_runs, panel, variants):
    sel = rows(figure_runs, "fig5", panel)
    base = {r[1]: r[3] for r in sel if r[2] == 0.0}
    for variant in variants:
        tails = [r[3] for r in sel if r[1] == variant and r[2] > 0]
        assert min(tails) < base[variant], f"no reduction under {variant}"


# ---------------------------------------------------------------------------
# Figure 6: distribution x utilization x percentile (§5.4). The Exp(0.1)
# break-even at 50% utilization is an open ledger row and is not here.
# ---------------------------------------------------------------------------


@pytest.fixture
def fig6_best(figure_runs):
    """(distribution, utilization, percentile) -> best reduction ratio."""
    best = {}
    for dist, util, pct, _, _, red, _ in rows(figure_runs, "fig6"):
        best[(dist, util, pct)] = max(best.get((dist, util, pct), 0.0), red)
    return best


@pytest.mark.parametrize("dist", ["LogNormal(1,1)", "Exp(0.1)"])
def test_fig6_lower_utilization_larger_reduction(fig6_best, dist):
    assert fig6_best[(dist, 0.2, 0.95)] >= fig6_best[(dist, 0.5, 0.95)] * 0.85
    assert fig6_best[(dist, 0.2, 0.95)] > 1.15


def test_fig6_lognormal_breaks_even_at_half_load(fig6_best):
    assert fig6_best[("LogNormal(1,1)", 0.5, 0.95)] > 0.98


def test_fig6_both_percentiles_everywhere(fig6_best):
    assert all((d, u, 0.99) in fig6_best for (d, u, p) in fig6_best if p == 0.95)


# ---------------------------------------------------------------------------
# Figure 7: Redis and Lucene (§6)
# ---------------------------------------------------------------------------


@pytest.fixture
def fig7a(figure_runs):
    """(baseline P99 by system, best P99 by (system, series), panel-a rows)."""
    sel = rows(figure_runs, "fig7", "a")
    base = {r[1]: r[4] for r in sel if r[2] == "baseline"}
    best = {}
    for _, system, series, _, tail, _ in sel:
        if series in ("SingleR", "SingleD"):
            key = (system, series)
            best[key] = min(best.get(key, np.inf), tail)
    return base, best, sel


def test_fig7a_redis_tail_collapses(fig7a):
    base, best, _ = fig7a
    assert best[("redis", "SingleR")] < base["redis"] * 0.9


@pytest.mark.parametrize("system", ["redis", "lucene"])
def test_fig7a_singler_matches_singled(fig7a, system):
    _, best, _ = fig7a
    assert best[(system, "SingleR")] <= best[(system, "SingleD")] * 1.15


def test_fig7a_singler_wins_at_smallest_budget(fig7a):
    _, _, sel = fig7a
    small_b = min(r[3] for r in sel if r[2] == "SingleR")
    sr_small = [r[4] for r in sel if r[2] == "SingleR" and r[3] == small_b]
    sd_small = [r[4] for r in sel if r[2] == "SingleD" and r[3] == small_b]
    assert np.mean(sr_small) <= np.mean(sd_small) * 1.05


def test_fig7a_redis_gains_exceed_lucene(fig7a):
    base, best, _ = fig7a
    red_redis = base["redis"] / best[("redis", "SingleR")]
    red_lucene = base["lucene"] / best[("lucene", "SingleR")]
    assert red_redis > red_lucene


@pytest.mark.parametrize("system", ["redis", "lucene"])
def test_fig7b_baseline_grows_and_reissue_helps(figure_runs, system):
    sel = [r for r in rows(figure_runs, "fig7", "b") if r[1] == system]
    base = {r[2]: r[4] for r in sel if r[3] == 0.0}
    assert base["util=0.2"] < base["util=0.6"]
    for util in ("util=0.2", "util=0.4", "util=0.6"):
        tails = [r[4] for r in sel if r[2] == util and r[3] > 0.0]
        assert min(tails) <= base[util] * 1.05, f"{system} {util} never helped"


@pytest.mark.parametrize("system", ["redis", "lucene"])
def test_fig7c_best_budget_curve_under_baseline(figure_runs, system):
    sel = [r for r in rows(figure_runs, "fig7", "c") if r[1] == system]
    no_r = {r[3]: r[4] for r in sel if r[2] == "no-reissue"}
    best = {r[3]: r[4] for r in sel if r[2] == "best-budget"}
    assert set(no_r) == set(best)
    wins = sum(1 for u in no_r if best[u] <= no_r[u] * 1.02)
    assert wins >= len(no_r) - 1


# ---------------------------------------------------------------------------
# Figure 8: budget binary search on Redis at 20% load (§4.4)
# ---------------------------------------------------------------------------


def test_fig8_search_settles_on_a_small_helping_budget(figure_runs):
    result = figure_runs("fig8").result
    assert 0.0 < result.meta["best_budget"] <= 0.25
    assert result.rows[-1][5] < result.rows[0][2]
    # A search, not a sweep: the trial budgets are not monotone.
    budgets = [r[1] for r in result.rows]
    assert any(b2 < b1 for b1, b2 in zip(budgets[1:], budgets[2:]))


# ---------------------------------------------------------------------------
# Figure 9: service-time profiles (§6.2, §6.3)
# ---------------------------------------------------------------------------


def test_fig9_service_profiles(figure_runs):
    vals = {(r[0], r[1]): r[2] for r in rows(figure_runs, "fig9")}
    assert vals[("redis", "mean_ms")] == pytest.approx(2.37, abs=1.0)
    assert 5 <= vals[("redis", "count_above_150ms")] <= 60
    assert vals[("redis", "frac_below_10ms")] > 0.93
    assert vals[("lucene", "mean_ms")] == pytest.approx(39.73, rel=0.1)
    assert vals[("lucene", "std_ms")] == pytest.approx(21.88, rel=0.4)
    assert 0.002 < vals[("lucene", "frac_above_100ms")] < 0.05


# ---------------------------------------------------------------------------
# Ablations of the paper's design choices, on their own small runs
# ---------------------------------------------------------------------------

PCT = 0.95


def _median_tail(system, policy, seeds=(31, 33, 37)):
    return float(
        np.median(
            [system.run(policy, np.random.default_rng(s)).tail(PCT) for s in seeds]
        )
    )


def _median_rate(system, policy, seeds=(41, 43)):
    return float(
        np.median(
            [system.run(policy, np.random.default_rng(s)).reissue_rate for s in seeds]
        )
    )


def test_ablation_correlation_aware_optimizer():
    """On a strongly correlated workload the §4.2 conditional-CDF fit does
    no worse than the independence-assuming one, and predicts more
    honestly: the naive predictor ignores that slow primaries imply slow
    reissues, so it is the more optimistic one."""
    system = correlated_workload(30_000, ratio=0.9)
    rng = np.random.default_rng(5)
    base = system.run(NoReissue(), rng)
    probe = system.run(SingleR(0.0, 0.1), rng)
    rx = base.primary_response_times
    naive = compute_optimal_singler(rx, probe.reissue_pair_y, PCT, 0.1)
    aware = compute_optimal_singler_correlated(
        rx, probe.reissue_pair_x, probe.reissue_pair_y, PCT, 0.1
    )
    t_naive = _median_tail(system, naive.policy)
    t_aware = _median_tail(system, aware.policy)
    assert naive.predicted_tail <= aware.predicted_tail + 1e-9
    assert t_aware <= t_naive * 1.15
    err_naive = abs(naive.predicted_tail - t_naive)
    err_aware = abs(aware.predicted_tail - t_aware)
    assert err_aware <= err_naive * 1.5


def test_ablation_adaptive_vs_oneshot():
    """Under queueing feedback a one-shot fit overshoots the budget; the
    adaptive loop (§4.3) keeps the measured reissue rate at least as
    close to it."""
    system = queueing_workload(n_queries=8_000, utilization=0.4)
    budget = 0.15
    rng = np.random.default_rng(3)
    rx = system.run(NoReissue(), rng).primary_response_times
    oneshot = compute_optimal_singler(rx, rx, PCT, budget).policy
    opt = AdaptiveSingleROptimizer(percentile=PCT, budget=budget, learning_rate=0.3)
    adaptive = opt.optimize(system, trials=5, rng=rng).policy
    rate_oneshot = _median_rate(system, oneshot)
    rate_adaptive = _median_rate(system, adaptive)
    assert abs(rate_adaptive - budget) <= abs(rate_oneshot - budget) + 0.03


@pytest.mark.parametrize("lr", [0.1, 0.5])
def test_ablation_learning_rate(lr):
    """Both learning rates reach a policy that beats no reissue somewhere
    in the chain (single-run trial tails are too noisy under Pareto(1.1)
    to pin the final iterate at this scale)."""
    system = queueing_workload(n_queries=8_000, utilization=0.3)
    opt = AdaptiveSingleROptimizer(percentile=PCT, budget=0.2, learning_rate=lr)
    result = opt.optimize(system, trials=6, rng=np.random.default_rng(7))
    base = _median_tail(system, NoReissue(), seeds=(41,))
    assert min(t.actual_tail for t in result.trials) < base


def test_ablation_duplicate_cancellation():
    """Cancelling stale queued duplicates (Lee et al.) frees capacity at
    equal arrivals: the same queries on the same seed cost less total
    server busy time. Busy time, not utilization: without cancellation
    this configuration overloads and its makespan stretches about three
    times, so busy/makespan would compare two different time windows."""
    common = dict(
        arrivals=None,
        target_utilization=0.5,
        service_model=ServiceModel(Pareto(1.1, 2.0)),
        n_queries=12_000,
        n_servers=4,
    )
    pol = SingleR(5.0, 0.5)
    plain = simulate_cluster(ClusterConfig(**common), pol, 3)
    cancel = simulate_cluster(ClusterConfig(**common, cancel_queued=True), pol, 3)

    def busy(run):
        return run.utilization * common["n_servers"] * run.meta["makespan"]

    assert cancel.meta["n_cancelled"] > 0
    assert busy(cancel) < busy(plain)
