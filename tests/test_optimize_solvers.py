"""The repro.optimize solver layer: registry, solvers, strategies, CLI."""

import json

import numpy as np
import pytest

from oracles.singled import compute_optimal_singled
from repro.core.adaptive import AdaptiveResult, AdaptiveTrial
from repro.core.budget_search import find_optimal_budget
from repro.core.correlated import compute_optimal_singler_correlated
from repro.core.online import OnlinePolicyController
from repro.core.optimizer import (
    compute_optimal_singler,
    fit_singled_policy,
)
from repro.core.policies import NoReissue, SingleD, SingleR
from repro.distributions import Pareto
from repro.distributions.base import as_rng
from repro.fastsim import ReplicationSpec, simulate_batch
from repro.main import main
from repro.obs import metrics_scope
from repro.optimize import (
    FitRequest,
    SOLVERS,
    fit_singler_protocol,
    solve,
    solver_names,
)
from repro.optimize.solvers import _best_trial
from repro.scenarios.registry import build_system


def heavy_log(n=3000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.pareto(1.1, n) * 2.0 + 2.0


def quick_system(n_queries=1500, **kw):
    return build_system("queueing", n_queries=n_queries, utilization=0.3, **kw)


class TestRegistry:
    def test_all_solvers_registered(self):
        assert solver_names() == [
            "analytic",
            "correlated",
            "empirical",
            "online",
            "optimal-budget",
            "simulated",
            "sla-budget",
        ]

    def test_unknown_solver_is_a_named_error(self):
        with pytest.raises(KeyError, match="unknown solver 'genetic'"):
            solve(FitRequest(rx=heavy_log()), "genetic")

    def test_entries_carry_summaries(self):
        for entry in SOLVERS.entries():
            assert entry.summary


class TestFitRequest:
    def test_validation(self):
        with pytest.raises(ValueError, match="percentile"):
            FitRequest(percentile=1.0)
        with pytest.raises(ValueError, match="budget"):
            FitRequest(budget=0.0)
        with pytest.raises(ValueError, match="family"):
            FitRequest(family="triple-r")
        with pytest.raises(ValueError, match="sla_ms"):
            FitRequest(sla_ms=-1.0)
        with pytest.raises(ValueError, match="trials"):
            FitRequest(trials=0)

    def test_missing_evidence_names_the_solver(self):
        with pytest.raises(ValueError, match="'empirical'"):
            solve(FitRequest(), "empirical")
        with pytest.raises(ValueError, match="closed-form"):
            solve(FitRequest(rx=heavy_log()), "analytic")
        with pytest.raises(ValueError, match="'simulated'"):
            solve(FitRequest(rx=heavy_log()), "simulated")

    def test_with_copies(self):
        req = FitRequest(rx=heavy_log(), budget=0.1)
        assert req.with_(budget=0.2).budget == 0.2
        assert req.with_(budget=0.2).percentile == req.percentile


class TestEmpiricalSolver:
    def test_singler_matches_legacy_sweep(self):
        rx = heavy_log()
        result = solve(
            FitRequest(percentile=0.95, budget=0.1, rx=rx), "empirical"
        )
        legacy = compute_optimal_singler(rx, rx, 0.95, 0.1)
        assert result.fit == legacy
        assert result.policy == legacy.policy
        assert result.solver == "empirical"

    def test_singled_family(self):
        rx = heavy_log()
        result = solve(
            FitRequest(percentile=0.95, budget=0.1, rx=rx, family="single-d"),
            "empirical",
        )
        legacy = compute_optimal_singled(rx, rx, 0.95, 0.1)
        assert result.fit == legacy
        assert result.policy == SingleD(legacy.delay)
        # The SingleD family's delay is the Eq.-2 budget-matched delay.
        assert result.policy == fit_singled_policy(rx, 0.1)

    def test_samples_from_system_when_no_log_given(self):
        system = quick_system()
        result = solve(
            FitRequest(percentile=0.95, budget=0.1, system=system, seed=7),
            "empirical",
        )
        rx = system.run(NoReissue(), as_rng(7)).primary_response_times
        assert result.fit == compute_optimal_singler(rx, rx, 0.95, 0.1)


class TestCorrelatedSolver:
    def test_matches_legacy_from_pairs(self):
        rng = np.random.default_rng(5)
        rx = heavy_log(seed=5)
        pair_x = rng.choice(rx, 400)
        pair_y = 0.5 * pair_x + rng.pareto(1.1, 400) * 2.0 + 2.0
        result = solve(
            FitRequest(
                percentile=0.95, budget=0.1, rx=rx,
                pair_x=pair_x, pair_y=pair_y,
            ),
            "correlated",
        )
        legacy = compute_optimal_singler_correlated(
            rx, pair_x, pair_y, 0.95, 0.1
        )
        assert result.fit == legacy
        assert result.meta["n_pairs"] == 400

    def test_probes_system_when_no_pairs_given(self):
        system = build_system("correlated", n_queries=3000)
        result = solve(
            FitRequest(percentile=0.95, budget=0.1, system=system, seed=3),
            "correlated",
        )
        assert isinstance(result.policy, SingleR)
        assert result.meta["n_pairs"] > 0

    def test_singled_family_uses_budget_matched_delay(self):
        """SingleD couples d to the budget (Eq. 2); the SingleR d* was
        fitted jointly with q < 1 and would overspend at q = 1."""
        rng = np.random.default_rng(6)
        rx = heavy_log(seed=6)
        px = rng.choice(rx, 300)
        py = 0.5 * px + rng.pareto(1.1, 300) * 2.0 + 2.0
        result = solve(
            FitRequest(
                percentile=0.95, budget=0.05, rx=rx,
                pair_x=px, pair_y=py, family="single-d",
            ),
            "correlated",
        )
        assert result.policy == fit_singled_policy(rx, 0.05)
        # And the Eq.-2 delay honours the budget in expectation.
        d = result.policy.stages[0][0]
        assert float((rx >= d).mean()) <= 0.05 + 1.0 / rx.size
        # The SingleR-optimum diagnostics must not masquerade as a
        # prediction for this policy.
        assert result.fit is None
        assert "note" in result.meta


class TestAnalyticSolver:
    def test_families(self):
        primary = Pareto(1.1, 2.0)
        req = FitRequest(
            percentile=0.9, budget=0.2, primary=primary,
            options={"grid": 32},
        )
        sr = solve(req, "analytic")
        sd = solve(req.with_(family="single-d"), "analytic")
        assert isinstance(sr.policy, SingleR)
        assert isinstance(sd.policy, SingleD)
        # Optimal SingleR never loses to SingleD (§3 optimality).
        assert sr.fit.tail <= sd.fit.tail + 1e-9


class TestSimulatedSolver:
    def test_single_fit_matches_protocol_helper(self):
        system = quick_system()
        result = solve(
            FitRequest(
                percentile=0.95, budget=0.1, system=system,
                seed=42, trials=3,
            ),
            "simulated",
        )
        direct = fit_singler_protocol(
            system, 0.95, 0.1, trials=3, rng=as_rng(42)
        )
        assert result.policy == direct

    def test_singled_family(self):
        system = quick_system()
        result = solve(
            FitRequest(
                percentile=0.95, budget=0.1, system=system,
                seed=42, trials=2, family="single-d",
            ),
            "simulated",
        )
        assert isinstance(result.policy, SingleD)

    def test_grid_bit_for_bit_with_serial_fits(self):
        """A budget grid == one standalone serial fit per budget."""
        self.assert_grid_matches_serial(use_correlation=True)

    def test_grid_bit_for_bit_with_serial_fits_uncorrelated(self):
        """... and so it stays when every refit is the empirical sweep."""
        self.assert_grid_matches_serial(use_correlation=False)

    @staticmethod
    def assert_grid_matches_serial(use_correlation):
        system = quick_system()
        budgets = (0.05, 0.1, 0.25)
        result = solve(
            FitRequest(
                percentile=0.95, budget=0.1, system=system,
                seed=42, trials=3, budgets=budgets,
                options={"use_correlation": use_correlation},
            ),
            "simulated",
        )
        serial = [
            fit_singler_protocol(
                system, 0.95, b, trials=3, rng=as_rng(42),
                use_correlation=use_correlation,
            )
            for b in budgets
        ]
        assert list(result.policies) == serial
        assert result.policy == serial[1]  # nearest the declared budget

    def test_grid_rejects_stateful_seeds(self):
        system = quick_system(n_queries=1000)
        for seed in (np.random.default_rng(0), None):
            with pytest.raises(ValueError, match="stateless seed"):
                solve(
                    FitRequest(
                        percentile=0.95, budget=0.05, system=system,
                        seed=seed, trials=1, budgets=(0.05,),
                    ),
                    "simulated",
                )

    def test_grid_helper_matches_serial_on_batchless_system(self):
        system = build_system("independent", n_queries=2000)
        budgets = (0.05, 0.2)
        result = solve(
            FitRequest(
                percentile=0.95, budget=0.05, system=system,
                seed=11, trials=2, budgets=budgets,
            ),
            "simulated",
        )
        serial = [
            fit_singler_protocol(system, 0.95, b, trials=2, rng=as_rng(11))
            for b in budgets
        ]
        assert list(result.policies) == serial


class TestBestTrial:
    """The protocol keeps the best measured tail among trials within
    1.5x the budget; when none is, it keeps the best of all of them and
    counts the overspend."""

    @staticmethod
    def result(rates_and_tails):
        trials = [
            AdaptiveTrial(k, SingleR(float(k), 0.5), 0.0, tail, rate, 0.0)
            for k, (rate, tail) in enumerate(rates_and_tails)
        ]
        return AdaptiveResult(policy=trials[-1].policy, trials=trials)

    def test_all_trials_overspend(self):
        result = self.result([(0.20, 9.0), (0.16, 7.0), (0.30, 8.0)])
        with metrics_scope() as registry:
            best = _best_trial(result, 0.1)
        assert best is result.trials[1]
        assert registry.get("optimize.protocol.overspend_fallbacks").value == 1

    def test_a_trial_within_the_gate_is_not_counted(self):
        result = self.result([(0.20, 5.0), (0.15, 7.0), (0.30, 8.0)])
        with metrics_scope() as registry:
            best = _best_trial(result, 0.1)
        assert best is result.trials[1]  # 0.15 <= 1.5 x 0.1, worse tail
        assert registry.get("optimize.protocol.overspend_fallbacks") is None


class TestBatchConfig:
    def test_batch_config_route_is_bit_for_bit(self):
        system = quick_system()
        assert system.batch_config is system.config
        policies = [NoReissue(), SingleR(5.0, 0.5)]
        batch = simulate_batch(
            ReplicationSpec(system.batch_config, p, seed=9) for p in policies
        )
        serial = [system.run(p, as_rng(9)) for p in policies]
        for b, s in zip(batch, serial):
            np.testing.assert_array_equal(b.latencies, s.latencies)
            assert b.reissue_rate == s.reissue_rate


class TestOnlineSolver:
    def test_empirical_branch_matches_controller_rule(self):
        rx = heavy_log(seed=9)
        result = solve(
            FitRequest(percentile=0.95, budget=0.1, rx=rx), "online"
        )
        assert result.meta["mode"] == "empirical"
        assert result.fit == compute_optimal_singler(rx, rx, 0.95, 0.1)

    def test_correlated_branch_kicks_in_with_enough_pairs(self):
        rng = np.random.default_rng(2)
        rx = heavy_log(seed=2)
        px = rng.choice(rx, 200)
        py = 0.5 * px + rng.pareto(1.1, 200) * 2.0 + 2.0
        result = solve(
            FitRequest(
                percentile=0.95, budget=0.1, rx=rx, pair_x=px, pair_y=py
            ),
            "online",
        )
        assert result.meta["mode"] == "correlated"
        assert result.fit == compute_optimal_singler_correlated(
            rx, px, py, 0.95, 0.1
        )

    def test_online_is_singler_only(self):
        with pytest.raises(ValueError, match="SingleR family only"):
            solve(
                FitRequest(rx=heavy_log(), family="single-d"), "online"
            )

    def test_samples_from_system_when_no_window_given(self):
        """`repro optimize <scenario> --solver online` has no window:
        a no-reissue baseline run of the system stands in for it."""
        system = quick_system()
        result = solve(
            FitRequest(percentile=0.95, budget=0.1, system=system, seed=7),
            "online",
        )
        assert result.meta["mode"] == "empirical"
        rx = system.run(NoReissue(), as_rng(7)).primary_response_times
        assert result.fit == compute_optimal_singler(rx, rx, 0.95, 0.1)

    def test_controller_refits_route_through_the_solver(self):
        """The sliding-window controller's refit is the online solver."""
        ctrl = OnlinePolicyController(
            percentile=0.95, budget=0.1, refit_interval=1000, window=10_000
        )
        ctrl.observe(heavy_log(n=1200, seed=4))
        assert ctrl.n_refits == 1
        fit = ctrl.events[-1].fit
        expected = solve(
            FitRequest(
                percentile=0.95, budget=0.1,
                rx=heavy_log(n=1200, seed=4),
                pair_x=np.empty(0), pair_y=np.empty(0),
            ),
            "online",
        ).fit
        assert fit == expected


class TestBudgetStrategies:
    def test_optimal_budget_solver(self):
        system = quick_system(n_queries=1200)
        result = solve(
            FitRequest(
                percentile=0.95, budget=0.1, system=system,
                seed=42, seeds=(101,), trials=2,
                options={"max_trials": 4, "initial_step": 0.05},
            ),
            "optimal-budget",
        )
        assert result.search is not None
        assert 0.0 <= result.search.best_budget <= 1.0
        assert result.search.evaluations <= len(result.search.trials)
        if result.search.best_budget > 0:
            assert isinstance(result.policy, SingleR)
            # The result's policy is the one the winning probe fitted
            # (read from the probe memo, not re-fitted after the fact).
            assert result.policy == fit_singler_protocol(
                system, 0.95, result.search.best_budget,
                trials=2, rng=as_rng(42),
            )
        else:
            assert isinstance(result.policy, NoReissue)

    def test_sla_budget_requires_target(self):
        with pytest.raises(ValueError, match="sla_ms"):
            solve(
                FitRequest(system=quick_system(n_queries=1000), seeds=(101,)),
                "sla-budget",
            )

    def test_sla_budget_solver(self):
        system = quick_system(n_queries=1200)
        result = solve(
            FitRequest(
                percentile=0.95, budget=0.1, system=system,
                seed=42, seeds=(101,), trials=2, sla_ms=1e9,
                options={"max_trials": 3},
            ),
            "sla-budget",
        )
        # An absurdly loose SLA is met with zero redundancy.
        assert result.search.best_budget == 0.0
        assert isinstance(result.policy, NoReissue)


class TestBudgetDedupe:
    def test_repeated_candidates_hit_the_cache(self):
        calls = []

        def evaluate(budget):
            calls.append(budget)
            return 100.0 - budget  # always improves: pure expansion

        result = find_optimal_budget(evaluate, max_trials=6)
        assert result.evaluations == len(calls)
        assert len(set(calls)) == len(calls)  # never re-ran a budget

    def test_dedupe_serves_revisits_from_cache(self):
        calls = []

        def evaluate(budget):
            calls.append(round(budget, 6))
            return abs(budget - 0.02) * 1000 + 50.0

        deduped = find_optimal_budget(evaluate, max_trials=12)
        assert len(set(calls)) == len(calls)
        assert deduped.evaluations == len(calls)
        # The trial trace still records every probe (cached or not).
        assert len(deduped.trials) >= deduped.evaluations


class TestOptimizeCli:
    def test_bundled_scenario_default_solver(self, capsys):
        assert main(["optimize", "queueing-fit-singler"]) == 0
        out = capsys.readouterr().out
        assert "empirical solver" in out
        assert "policy" in out

    def test_json_output(self, capsys):
        assert main(["optimize", "queueing-fit-singler", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "queueing-fit-singler"
        assert payload["solver"] == "empirical"
        assert payload["policy"]["kind"] == "single-r"
        assert "predicted_tail" in payload

    def test_solver_override_simulated(self, capsys):
        assert main(
            ["optimize", "queueing-fit-singler", "--solver", "simulated",
             "--trials", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solver"] == "simulated"

    def test_unknown_solver_errors(self, capsys):
        assert main(
            ["optimize", "queueing-fit-singler", "--solver", "genetic"]
        ) == 2
        assert "unknown solver" in capsys.readouterr().err

    def test_analytic_needs_workload_distribution(self, capsys):
        assert main(
            ["optimize", "queueing-fit-singler", "--solver", "analytic"]
        ) == 2
        assert "closed-form" in capsys.readouterr().err

    def test_analytic_with_workload_scenario(self, tmp_path, capsys):
        sc = tmp_path / "analytic.toml"
        sc.write_text(
            'name = "analytic-fit"\n\n[system]\nkind = "independent"\n\n'
            '[workload]\n[workload.service]\nkind = "pareto"\n'
            "shape = 1.1\nmode = 2.0\n\n"
            '[policy]\nkind = "none"\n\n'
            '[objective]\npercentile = 0.9\nbudget = 0.2\n'
            'solve = "analytic"\n'
        )
        assert main(["optimize", str(sc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solver"] == "analytic"
        assert payload["policy"]["kind"] == "single-r"

    def test_scenario_solve_field_validated(self, tmp_path, capsys):
        sc = tmp_path / "bad.toml"
        sc.write_text(
            'name = "bad-solve"\n\n[system]\nkind = "queueing"\n\n'
            '[policy]\nkind = "none"\n\n'
            '[objective]\nsolve = "astrology"\n'
        )
        assert main(["scenarios", "validate", str(sc)]) == 1
        assert "astrology" in capsys.readouterr().out

    def test_missing_scenario_errors(self, capsys):
        assert main(["optimize", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
