"""Tests for ``repro loadgen`` and the BENCH_serving.json record schema."""

import json

import pytest

from repro.main import main
from repro.serving.loadgen import RECORD_KIND, RECORD_VERSION, validate_record

QUICK = [
    "loadgen",
    "fleet-tail-quick",
    "--requests", "80",
    "--rps", "0",
    "--time-scale", "0",
    "--seed", "3",
]


def run_quick(tmp_path, *extra):
    out = tmp_path / "BENCH_serving.json"
    rc = main([*QUICK, "--out", str(out), *extra])
    return rc, out


class TestLoadgenRuns:
    def test_smoke_writes_valid_record(self, tmp_path, capsys):
        rc, out = run_quick(tmp_path)
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "p99" in stdout
        assert f"wrote {out}" in stdout
        record = json.loads(out.read_text())
        assert validate_record(record) == []
        assert record["results"]["issued"] == 80
        assert record["results"]["shards"] == 2
        assert record["scenario"] == "fleet-tail-quick"

    def test_no_write_skips_the_record(self, tmp_path, capsys):
        rc, out = run_quick(tmp_path, "--no-write")
        assert rc == 0
        assert not out.exists()
        assert "wrote" not in capsys.readouterr().out

    def test_json_output_is_the_record(self, tmp_path, capsys):
        rc, _ = run_quick(tmp_path, "--json", "--no-write")
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == RECORD_KIND
        assert record["version"] == RECORD_VERSION
        assert validate_record(record) == []

    def test_closed_loop_run(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        rc = main(
            [
                "loadgen", "fleet-tail-quick",
                "--mode", "closed", "--users", "4",
                "--requests", "60", "--time-scale", "0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert validate_record(record) == []
        assert record["config"]["mode"] == "closed"
        assert record["config"]["users"] == 4

    def test_chaos_spike_is_reported(self, tmp_path, capsys):
        rc, _ = run_quick(
            tmp_path, "--no-write", "--chaos-spike", "10", "--chaos-prob", "1"
        )
        assert rc == 0
        assert "chaos on shard 0" in capsys.readouterr().out

    def test_autotune_reports_store_version(self, tmp_path, capsys):
        rc, _ = run_quick(tmp_path, "--no-write", "--autotune")
        assert rc == 0
        assert "policy refits" in capsys.readouterr().out

    def test_procs_smoke_writes_valid_v2_record(self, tmp_path, capsys):
        rc, out = run_quick(tmp_path, "--procs", "2")
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "worker process(es)" in stdout
        record = json.loads(out.read_text())
        assert validate_record(record) == []
        assert record["version"] == RECORD_VERSION
        assert record["results"]["transport"] == "unix"
        assert record["results"]["issued"] == 80
        assert record["config"]["procs"] == 2
        for shard in record["results"]["per_shard"]:
            assert (
                shard["issued"]
                == shard["completed"] + shard["shed"] + shard["errors"]
            )

    @pytest.mark.parametrize("transport", ["unix", "tcp"])
    def test_procs_record_is_valid_after_a_sigkilled_worker(
        self, tmp_path, capsys, monkeypatch, transport
    ):
        import threading

        from repro.serving import procfleet

        class KilledMidRun(procfleet.ProcessFleet):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                threading.Timer(0.03, self.shards[1].process.kill).start()

        monkeypatch.setattr(procfleet, "ProcessFleet", KilledMidRun)
        out = tmp_path / "BENCH_serving.json"
        rc = main(
            [
                "loadgen", "fleet-tail-quick", "--procs", "2",
                "--transport", transport, "--requests", "400",
                "--rps", "3000", "--time-scale", "1e-4", "--out", str(out),
            ]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert validate_record(record) == []
        results = record["results"]
        assert results["issued"] == 400 and results["shed"] > 0
        assert [s["alive"] for s in results["per_shard"]] == [True, False]


class TestLoadgenArgumentErrors:
    """Errors must name the offending flag, not raise a bare KeyError."""

    def err(self, capsys, *argv):
        rc = main(["loadgen", *argv])
        assert rc == 2
        return capsys.readouterr().err

    def test_unknown_selector_names_flag_and_lists_strategies(self, capsys):
        err = self.err(capsys, "--select", "zebra")
        assert "--select" in err
        assert "'zebra'" in err
        for name in ("hash", "least-loaded", "round-robin"):
            assert name in err

    def test_rps_rejected_in_closed_mode(self, capsys):
        err = self.err(capsys, "--mode", "closed", "--rps", "100")
        assert "--rps" in err and "--mode open" in err

    def test_users_rejected_in_open_mode(self, capsys):
        err = self.err(capsys, "--mode", "open", "--users", "4")
        assert "--users" in err and "--mode closed" in err

    def test_bad_shards(self, capsys):
        assert "--shards" in self.err(capsys, "--shards", "0")

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_requests_below_one(self, n, capsys):
        err = self.err(capsys, "--requests", n, "--no-write")
        assert f"--requests must be >= 1, got {n}" in err

    def test_negative_rps(self, capsys):
        assert "--rps" in self.err(capsys, "--rps", "-5")

    def test_chaos_spike_below_one(self, capsys):
        assert "--chaos-spike" in self.err(capsys, "--chaos-spike", "0.5")

    def test_chaos_prob_out_of_range(self, capsys):
        assert "--chaos-prob" in self.err(capsys, "--chaos-prob", "1.5")

    def test_unknown_scenario(self, capsys):
        err = self.err(capsys, "no-such-scenario", "--no-write")
        assert "no-such-scenario" in err

    def test_procs_below_one(self, capsys):
        assert "--procs" in self.err(capsys, "--procs", "0")

    def test_transport_requires_procs(self, capsys):
        err = self.err(capsys, "--transport", "unix")
        assert "--transport" in err and "--procs" in err

    def test_unknown_transport_lists_valid_values(self, capsys):
        err = self.err(capsys, "--procs", "2", "--transport", "osmosis")
        assert "--transport" in err
        assert "'osmosis'" in err
        assert "unix" in err and "tcp" in err

    def test_chaos_spike_rejected_with_procs(self, capsys):
        err = self.err(capsys, "--procs", "2", "--chaos-spike", "10")
        assert "--chaos-spike" in err and "--procs" in err


class TestValidateRecord:
    @pytest.fixture
    def record(self, tmp_path):
        rc, out = run_quick(tmp_path)
        assert rc == 0
        return json.loads(out.read_text())

    def test_valid_record_has_no_problems(self, record):
        assert validate_record(record) == []

    def test_wrong_kind(self, record):
        record["kind"] = "other"
        assert any("kind" in p for p in validate_record(record))

    def test_counter_identity_enforced(self, record):
        record["results"]["shed"] += 1
        problems = validate_record(record)
        assert any("issued" in p for p in problems)

    def test_quantiles_must_be_ordered(self, record):
        record["results"]["quantiles_ms"]["p50"] = 1e9
        assert any("quantile" in p.lower() for p in validate_record(record))

    def test_per_shard_length_must_match(self, record):
        record["results"]["per_shard"].append({})
        assert any("per_shard" in p for p in validate_record(record))

    def test_non_dict_rejected(self):
        assert validate_record([]) != []

    def test_in_loop_run_records_loop_transport(self, record):
        assert record["version"] == RECORD_VERSION
        assert record["results"]["transport"] == "loop"

    def test_unknown_transport_value_rejected(self, record):
        record["results"]["transport"] = "semaphore-flags"
        assert any("transport" in p for p in validate_record(record))

    def test_per_shard_identity_enforced_v2(self, record):
        record["results"]["per_shard"][0]["issued"] += 1
        problems = validate_record(record)
        assert any("per_shard[0]" in p for p in problems)

    def test_legacy_v1_record_still_validates(self, record):
        # A pre-transport record (as committed by earlier revisions):
        # no results.transport, no per-shard issued counters.
        record["version"] = 1
        del record["results"]["transport"]
        for shard in record["results"]["per_shard"]:
            del shard["issued"]
        assert validate_record(record) == []

    def test_unknown_version_rejected(self, record):
        record["version"] = 3
        assert any("version" in p for p in validate_record(record))


class TestLoadgenStore:
    def test_store_flag_appends_latencies(self, tmp_path, capsys):
        import numpy as np

        from repro.store import TraceReader, sort_trace, EmpiricalStore

        store = tmp_path / "lat.store"
        rc, _ = run_quick(tmp_path, "--no-write", "--store", str(store))
        assert rc == 0
        assert f"to {store}" in capsys.readouterr().out
        reader = TraceReader(store)
        n_first = reader.total_records
        assert 0 < n_first <= 80
        assert np.all(reader.read_segment("primary") >= 0.0)

        # A second run appends to the same store.
        rc, _ = run_quick(tmp_path, "--no-write", "--store", str(store))
        assert rc == 0
        assert TraceReader(store).total_records == 2 * n_first

        # The collected log is fit-ready once sorted.
        sort_trace(store, tmp_path / "lat.sorted.store")
        dist = EmpiricalStore(tmp_path / "lat.sorted.store")
        assert len(dist) == 2 * n_first
