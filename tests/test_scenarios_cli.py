"""The unified ``repro`` CLI."""

import warnings

import pytest

from repro.main import main
from repro.scenarios import Session


class TestScenariosSubcommand:
    def test_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "queueing-tail-quick" in out
        assert "redis-tail-taming" in out
        for section in ("engines:", "systems:", "policies:", "distributions:"):
            assert section in out
        assert "engines: sim  live" in out

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
            ["run", "queueing-tail-quick", "--engine", "sim",
             "--seeds", "101"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario queueing-tail-quick" in out
        assert "engine=sim" in out

    def test_run_json_summary(self, capsys):
        import json

        rc = main(
            ["run", "queueing-tail-quick", "--engine", "sim",
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
            ["run", str(path), "--engine", "live", "--requests", "60",
             "--time-scale", "1e-6"]
        )
        assert rc == 0
        assert "engine=live" in capsys.readouterr().out

    def test_run_unknown_scenario(self, capsys):
        assert main(["run", "does-not-exist"]) == 2
        assert "bundled" in capsys.readouterr().err

    def test_run_missing_toml_path_is_a_cli_error(self, capsys):
        assert main(["run", "/nowhere/missing.toml"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,engine",
        [
            (["--workers", "4"], "live"),
            (["--cache", "/tmp/c"], "live"),
            (["--requests", "10"], "sim"),
            (["--time-scale", "1e-4"], "sim"),
        ],
    )
    def test_engine_mismatched_flags_are_rejected(self, flags, engine, capsys):
        rc = main(
            ["run", "queueing-tail-quick", "--engine", engine, *flags]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {flags[0]} does not apply to the {engine!r} engine" in err

    @pytest.mark.parametrize(
        "option,engine",
        [
            ("workers", "live"),
            ("cache_dir", "live"),
            ("requests", "sim"),
            ("time_scale", "sim"),
        ],
    )
    def test_engine_mismatched_options_are_rejected_by_session(
        self, option, engine
    ):
        # The API path of the flag check: the engine refuses what it
        # does not take instead of ignoring it.
        with pytest.raises(
            TypeError, match=f"{option} does not apply to the '{engine}'"
        ):
            Session(engine, **{option: 1})

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_zero_requests_is_rejected_not_defaulted(self, command, capsys):
        rc = main(
            [command, "queueing-tail-quick", "--engine", "live",
             "--requests", "0"]
        )
        assert rc == 2
        assert "--requests must be >= 1, got 0" in capsys.readouterr().err

    def test_zero_requests_is_rejected_by_live_engine(self):
        # The API path: the live engine itself refuses a 0-query run.
        with pytest.raises(ValueError, match="requests must be >= 1, got 0"):
            Session("live", requests=0).run("queueing-tail-quick")

    @pytest.mark.parametrize(
        "engine", ["reference", "fastsim", "pipeline", "serving"]
    )
    def test_old_engine_names_are_invalid_choices(self, engine, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "queueing-tail-quick", "--engine", engine])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{engine}' (choose from 'sim', 'live')" in err

    def test_repeated_seed_exits_2(self, capsys):
        assert main(["run", "queueing-tail-quick", "--seeds", "101,101"]) == 2
        assert "seed 101 is repeated" in capsys.readouterr().err

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
    def test_serve_is_an_invalid_choice(self, capsys):
        # `repro loadgen` is the one live-traffic command.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--requests", "80"])
        assert exc.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err


class TestNoDeprecationWarnings:
    def test_unified_cli_does_not_warn(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main(["scenarios", "list"]) == 0
