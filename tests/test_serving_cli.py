"""Smoke tests for ``repro serve``."""

import pytest

from repro.main import build_parser, main
from repro.serving import cli


def test_fixed_policy_run(capsys):
    rc = main(
        [
            "serve",
            "--backend", "synthetic", "--policy", "singler",
            "--delay", "40", "--prob", "0.5",
            "--requests", "120", "--time-scale", "1e-5",
            "--report-every", "60",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "== final ==" in out
    assert "requests completed" in out
    assert "peak concurrency" in out


def test_auto_policy_run(capsys):
    rc = main(
        [
            "serve",
            "--backend", "drifting", "--policy", "auto",
            "--requests", "150", "--time-scale", "1e-5",
            "--report-every", "150",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "policy refits" in out


def test_none_policy_never_reissues(capsys):
    rc = main(
        [
            "serve",
            "--backend", "synthetic", "--policy", "none",
            "--probe-fraction", "0",
            "--requests", "80", "--time-scale", "1e-5",
            "--report-every", "80",
        ]
    )
    assert rc == 0
    assert "reissues sent                 0" in capsys.readouterr().out


def test_zero_requests_rejected(capsys):
    assert main(["serve", "--requests", "0"]) == 2


def test_zero_report_every_rejected(capsys):
    # report-every 0 would make serve_stream's chunk size 0 and spin.
    assert main(["serve", "--requests", "10", "--report-every", "0"]) == 2


def test_small_batch_size_warns_about_dead_drift_path(capsys):
    rc = main(
        [
            "serve",
            "--backend", "synthetic", "--policy", "auto",
            "--batch-size", "200",
            "--requests", "40", "--time-scale", "0",
            "--report-every", "40",
        ]
    )
    assert rc == 0
    assert "drift-triggered refits will never fire" in capsys.readouterr().err


def test_default_batch_size_enables_drift_detection():
    # DriftDetector ignores batches under min_samples (500); the CLI
    # default must not silently disable the drift path.
    from repro.core.online import DriftDetector

    default = build_parser().parse_args(["serve"]).batch_size
    assert default >= DriftDetector().min_samples
    rc = main(
        [
            "serve",
            "--backend", "synthetic", "--policy", "auto",
            "--requests", "40", "--time-scale", "0",
            "--report-every", "40",
        ]
    )
    assert rc == 0


class TestFlagNamingErrors:
    """Programmatic callers bypass argparse choices; the build helpers
    must still name the offending flag and list the valid values."""

    def parsed(self, **overrides):
        args = build_parser().parse_args(
            ["serve", "--requests", "10", "--time-scale", "0",
             "--report-every", "10"]
        )
        for key, value in overrides.items():
            setattr(args, key, value)
        return args

    def test_unknown_backend_names_flag(self, capsys):
        rc = cli.run_serve_command(self.parsed(backend="bogus"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "--backend" in err and "'bogus'" in err
        for name in cli.BACKENDS:
            assert name in err

    def test_unknown_policy_names_flag(self, capsys):
        rc = cli.run_serve_command(self.parsed(policy="bogus"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "--policy" in err and "'bogus'" in err
        for name in cli.POLICIES:
            assert name in err

    def test_build_backend_raises_named_valueerror(self):
        import numpy as np

        with pytest.raises(ValueError, match="--backend"):
            cli.build_backend(
                self.parsed(backend="nope"), np.random.default_rng(0)
            )

    def test_build_policy_raises_named_valueerror(self):
        with pytest.raises(ValueError, match="--policy"):
            cli.build_policy_and_tuner(self.parsed(policy="nope"))
