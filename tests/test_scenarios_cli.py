"""The unified ``repro`` CLI."""

import warnings

import pytest

from repro.main import main


class TestScenariosSubcommand:
    def test_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "queueing-tail-quick" in out
        assert "redis-tail-taming" in out
        for section in ("engines:", "systems:", "policies:", "distributions:"):
            assert section in out
        for engine in ("reference", "fastsim", "pipeline", "serving"):
            assert engine in out

    def test_validate_bundled(self, capsys):
        assert main(["scenarios", "validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().endswith("scenario(s) valid")

    def test_validate_broken_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text(
            'name = "bad"\n\n[system]\nkind = "mainframe"\n\n'
            '[policy]\nkind = "none"\n'
        )
        assert main(["scenarios", "validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL bad" in out
        assert "mainframe" in out

    def test_validate_unparseable_file(self, tmp_path, capsys):
        bad = tmp_path / "broken.toml"
        bad.write_text("name = [unclosed")
        assert main(["scenarios", "validate", str(bad)]) == 1
        assert "FAIL broken.toml" in capsys.readouterr().out


class TestRunSubcommand:
    def test_run_bundled_fastsim(self, capsys):
        rc = main(
            ["run", "queueing-tail-quick", "--engine", "fastsim",
             "--seeds", "101"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario queueing-tail-quick" in out
        assert "engine=fastsim" in out

    def test_run_json_summary(self, capsys):
        import json

        rc = main(
            ["run", "queueing-tail-quick", "--engine", "fastsim",
             "--seeds", "101", "--json"]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["scenario"] == "queueing-tail-quick"
        assert summary["median_tail_ms"] > 0

    def test_run_toml_path_serving(self, tmp_path, capsys):
        from repro.scenarios import bundled_scenario, save

        sc = bundled_scenario("queueing-tail-quick").with_scale(seeds=(3,))
        path = save(sc, tmp_path / "mine.toml")
        rc = main(
            ["run", str(path), "--engine", "serving", "--requests", "60",
             "--time-scale", "1e-6"]
        )
        assert rc == 0
        assert "engine=serving" in capsys.readouterr().out

    def test_run_unknown_scenario(self, capsys):
        assert main(["run", "does-not-exist"]) == 2
        assert "bundled" in capsys.readouterr().err

    def test_run_missing_toml_path_is_a_cli_error(self, capsys):
        assert main(["run", "/nowhere/missing.toml"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,engine",
        [
            (["--workers", "4"], "fastsim"),
            (["--cache", "/tmp/c"], "reference"),
            (["--requests", "10"], "fastsim"),
            (["--time-scale", "1e-4"], "pipeline"),
        ],
    )
    def test_engine_mismatched_flags_are_rejected(self, flags, engine, capsys):
        rc = main(
            ["run", "queueing-tail-quick", "--engine", engine, *flags]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert flags[0] in err and engine in err

    def test_run_invalid_scenario_lists_problems(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text(
            'name = "bad"\n\n[system]\nkind = "queueing"\nfanout = 3\n\n'
            '[policy]\nkind = "none"\n'
        )
        assert main(["run", str(bad)]) == 2
        assert "fanout" in capsys.readouterr().err


class TestFigureSubcommand:
    def test_figure_list(self, capsys):
        assert main(["figure", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "fig9" in out and "scales:" in out


class TestServeSubcommand:
    def test_serve_fixed_policy(self, capsys):
        rc = main(
            ["serve", "--backend", "synthetic", "--policy", "singler",
             "--delay", "40", "--prob", "0.5", "--requests", "80",
             "--time-scale", "1e-6", "--report-every", "80"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "== final ==" in out
        assert "requests completed" in out


class TestNoDeprecationWarnings:
    def test_unified_cli_does_not_warn(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main(["scenarios", "list"]) == 0
