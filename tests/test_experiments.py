"""Contract tests for the figure drivers and CLI.

The drivers' results are the session's shared quick-scale runs
(``figure_runs`` in ``conftest.py``), so this file simulates no figure
of its own; the paper's quantitative claims on the same rows are in
``test_paper_claims.py``.
"""

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    SCALES,
    get_experiment,
    run_experiment,
)
from repro.experiments.common import Scale, get_scale

TINY = Scale(
    name="tiny", n_queries=2500, eval_seeds=(1, 2), adaptive_trials=2,
    sweep_points=2,
)


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(EXPERIMENTS) == {f"fig{i}" for i in range(2, 10)}

    def test_unknown_id_raises_with_choices(self):
        with pytest.raises(KeyError, match="fig2"):
            get_experiment("fig99")

    def test_get_scale(self):
        assert get_scale("quick").name == "quick"
        assert get_scale(TINY) is TINY
        with pytest.raises(KeyError):
            get_scale("huge")
        assert set(SCALES) == {"quick", "standard", "full"}


class TestResultContract:
    """Each driver returns well-formed rows, csv, chart, and notes."""

    @pytest.fixture(params=sorted(EXPERIMENTS))
    def result(self, request, figure_runs):
        return figure_runs(request.param).result

    def test_type_and_id(self, result):
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id in EXPERIMENTS

    def test_rows_match_headers(self, result):
        assert result.rows, "driver produced no data"
        for row in result.rows:
            assert len(row) == len(result.headers)

    def test_csv_parses(self, result):
        lines = result.csv().splitlines()
        assert lines[0] == ",".join(result.headers)
        assert len(lines) == len(result.rows) + 1

    def test_render_includes_notes(self, result):
        text = result.render()
        assert result.experiment_id in text
        assert all(n in text for n in result.notes)

    def test_table_renders(self, result):
        assert result.title in result.table()


class TestFigureSpecifics:
    def test_fig9_moments_close_to_paper(self, figure_runs):
        res = figure_runs("fig9").result
        vals = {(r[0], r[1]): r[2] for r in res.rows}
        assert vals[("redis", "mean_ms")] == pytest.approx(2.37, abs=1.0)
        assert vals[("lucene", "mean_ms")] == pytest.approx(39.7, abs=4.0)
        assert vals[("lucene", "std_ms")] == pytest.approx(22, abs=8)

    def test_fig4_correlation_dampened_by_queueing(self, figure_runs):
        res = figure_runs("fig4").result
        assert res.meta["corr_queueing"] < res.meta["corr_correlated"]

    def test_fig3_rows_cover_all_workloads_and_policies(self, figure_runs):
        res = figure_runs("fig3").result
        workloads = {r[0] for r in res.rows}
        policies = {r[2] for r in res.rows}
        assert workloads == {"independent", "correlated", "queueing"}
        assert policies == {"SingleR", "SingleD"}

    def test_fig3_budget_column_respected(self, figure_runs):
        res = figure_runs("fig3").result
        for r in res.rows:
            if r[2] == "SingleR" and r[0] != "queueing":
                budget, q, outstanding = r[1], r[4], r[5]
                assert q * outstanding <= budget * 1.2 + 0.01

    def test_fig8_best_budget_positive(self, figure_runs):
        res = figure_runs("fig8").result
        assert 0.0 <= res.meta["best_budget"] <= 0.5
        trials = [r[0] for r in res.rows]
        assert trials == sorted(trials)


class TestCli:
    def test_list(self, capsys):
        from repro.main import main

        assert main(["figure", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "fig9" in out
        # Each entry carries its one-line docstring summary, not the
        # module basename.
        assert "Figure 2: load perturbation" in out
        assert "Figure 9: service-time distributions" in out

    def test_unknown_experiment(self, capsys):
        from repro.main import main

        assert main(["figure", "run", "fig99"]) == 2

    def test_writes_outputs(self, tmp_path, capsys, monkeypatch):
        from repro import cli
        from repro.main import main

        def fake_run(eid, scale="standard", seed=42, **kw):
            return run_experiment("fig9", scale=TINY, seed=1)

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        assert main(["figure", "run", "fig9", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig9.txt").exists()
        assert (tmp_path / "fig9.csv").exists()
