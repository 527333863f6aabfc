"""One hedged client through ``repro loadgen --shards 1``: the policy,
autotune and argument cases of the single-client live run."""

import json

from repro.main import main
from repro.serving import cli

ONE_CLIENT = [
    "loadgen", "--shards", "1", "--rps", "0", "--time-scale", "1e-5",
]

SCENARIO = """\
name = "one-client"

[system]
kind = "independent"

[workload.service]
kind = "lognormal"
mu = 3.0
sigma = 0.8

[policy]
{policy}
"""


def scenario_file(tmp_path, policy):
    path = tmp_path / "one-client.toml"
    path.write_text(SCENARIO.format(policy=policy))
    return str(path)


def test_fixed_policy_run(tmp_path, capsys):
    path = scenario_file(
        tmp_path, 'kind = "single-r"\ndelay = 40.0\nprob = 0.5'
    )
    rc = main([*ONE_CLIENT, path, "--requests", "120", "--json"])
    assert rc == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["shards"] == 1
    assert results["completed"] == 120
    assert results["reissue_rate"] > 0


def test_auto_policy_run(capsys):
    rc = main([*ONE_CLIENT, "--autotune", "--requests", "150"])
    assert rc == 0
    assert "policy refits" in capsys.readouterr().out


def test_none_policy_never_reissues(tmp_path, capsys):
    path = scenario_file(tmp_path, 'kind = "none"')
    rc = main(
        [*ONE_CLIENT, path, "--requests", "80", "--probe-fraction", "0",
         "--json"]
    )
    assert rc == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["completed"] == 80
    assert results["reissue_rate"] == 0


def test_zero_requests_rejected(capsys):
    assert main([*ONE_CLIENT, "--requests", "0"]) == 2
    assert "--requests" in capsys.readouterr().err


def test_default_batch_size_enables_drift_detection(monkeypatch, capsys):
    # DriftDetector ignores batches under min_samples (500); a smaller
    # autotune batch would silently disable the drift path.
    from repro.core.online import DriftDetector

    assert cli.AUTOTUNE_BATCHING["batch_size"] >= DriftDetector().min_samples

    built = []

    class Recorded(cli.AutoTuner):
        def __init__(self, **kwargs):
            built.append(kwargs)
            super().__init__(**kwargs)

    monkeypatch.setattr(cli, "AutoTuner", Recorded)
    assert main([*ONE_CLIENT, "--autotune", "--requests", "40"]) == 0
    assert [kw["batch_size"] for kw in built] == [
        cli.AUTOTUNE_BATCHING["batch_size"]
    ]
