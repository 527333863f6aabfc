"""Tests for the ``repro store`` CLI: pack, info, sort, head."""

import json

import numpy as np
import pytest

from repro.io.tracelog import TraceLog, read_trace, write_trace
from repro.main import main
from repro.store import EmpiricalStore, TraceReader, TraceWriter


@pytest.fixture
def csv_trace(tmp_path, rng):
    path = tmp_path / "trace.csv"
    write_trace(
        path,
        TraceLog(
            primary=rng.lognormal(2.0, 0.6, 500),
            pair_x=rng.exponential(5.0, 40),
            pair_y=rng.exponential(5.0, 40),
        ),
    )
    return path


class TestPack:
    def test_pack_round_trips_the_log(self, tmp_path, csv_trace, capsys):
        store = tmp_path / "trace.store"
        rc = main(["store", "pack", str(csv_trace), str(store)])
        assert rc == 0
        assert "packed" in capsys.readouterr().out
        log = read_trace(csv_trace)
        reader = TraceReader(store)
        np.testing.assert_array_equal(
            reader.read_segment("primary"), log.primary
        )
        pairs = reader.read_segment("pairs")
        np.testing.assert_array_equal(pairs[:, 0], log.pair_x)
        np.testing.assert_array_equal(pairs[:, 1], log.pair_y)

    def test_pack_sort_yields_fit_ready_store(self, tmp_path, csv_trace):
        store = tmp_path / "trace.store"
        rc = main(["store", "pack", str(csv_trace), str(store), "--sort"])
        assert rc == 0
        reader = TraceReader(store)
        assert reader.sorted
        # No leftover .unsorted temp from the two-step pack.
        assert not (tmp_path / "trace.store.unsorted").exists()
        EmpiricalStore(reader)  # opens without StoreNotSortedError

    @pytest.mark.parametrize("extra", [[], ["--sort"]], ids=["plain", "sort"])
    def test_pack_bad_csv_leaves_no_store(self, tmp_path, capsys, extra):
        bad = tmp_path / "bad.csv"
        bad.write_text("# repro-trace v1\nkind,x,y\nprimary,1.0,\nprimary,nan,\n")
        store = tmp_path / "out.store"
        rc = main(["store", "pack", str(bad), str(store), *extra])
        assert rc == 2
        assert "nan" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]

    def test_pack_missing_csv_is_exit_2(self, tmp_path, capsys):
        rc = main(
            ["store", "pack", str(tmp_path / "no.csv"), str(tmp_path / "x")]
        )
        assert rc == 2
        assert capsys.readouterr().err.strip()


class TestInfo:
    def test_info_json_schema(self, tmp_path, csv_trace, capsys):
        store = tmp_path / "t.store"
        main(["store", "pack", str(csv_trace), str(store), "--sort"])
        capsys.readouterr()
        rc = main(["store", "info", str(store), "--json", "--verify"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro-store"
        assert doc["version"] == 1
        assert doc["sorted"] is True
        assert doc["total_records"] == 540
        names = {seg["name"] for seg in doc["segments"]}
        assert names == {"primary", "pairs"}
        assert doc["blocks_verified"] == sum(
            seg["blocks"] for seg in doc["segments"]
        )

    def test_info_table_mentions_segments(self, tmp_path, csv_trace, capsys):
        store = tmp_path / "t.store"
        main(["store", "pack", str(csv_trace), str(store)])
        capsys.readouterr()
        rc = main(["store", "info", str(store)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "primary" in out and "pairs" in out

    def test_info_corrupt_store_is_exit_2(self, tmp_path, csv_trace, capsys):
        store = tmp_path / "t.store"
        main(["store", "pack", str(csv_trace), str(store)])
        data = bytearray(store.read_bytes())
        data[200] ^= 0xFF
        store.write_bytes(bytes(data))
        capsys.readouterr()
        rc = main(["store", "info", str(store), "--verify"])
        assert rc == 2
        assert "checksum" in capsys.readouterr().err


class TestSort:
    def test_sort_command(self, tmp_path, rng, capsys):
        src = tmp_path / "u.store"
        samples = rng.exponential(5.0, 1000)
        with TraceWriter(src, block_records=64) as w:
            w.append(samples)
        dst = tmp_path / "s.store"
        rc = main(["store", "sort", str(src), str(dst)])
        assert rc == 0
        assert "sorted" in capsys.readouterr().out
        np.testing.assert_array_equal(
            TraceReader(dst).read_segment("primary"), np.sort(samples)
        )


class TestHead:
    def test_head_prints_first_records(self, tmp_path, rng, capsys):
        store = tmp_path / "t.store"
        samples = rng.exponential(5.0, 100)
        with TraceWriter(store, block_records=16) as w:
            w.append(samples)
        rc = main(["store", "head", str(store), "-n", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert [float(x) for x in lines] == [float(v) for v in samples[:5]]


class TestOptimizeFromStore:
    def test_optimize_scenario_with_store_trace(
        self, tmp_path, rng, monkeypatch, capsys
    ):
        # The bundled large-trace-fit scenario names a relative store
        # path; build a small one and fit against it end to end.
        store = tmp_path / "traces" / "large-trace.store"
        store.parent.mkdir()
        with TraceWriter(store, block_records=256, sorted=True) as w:
            w.append(np.sort(rng.lognormal(2.0, 0.6, 5000)))
        monkeypatch.chdir(tmp_path)
        rc = main(["optimize", "large-trace-fit", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["store"] is True
        assert doc["n_samples"] == 5000
        assert doc["predicted_tail"] <= doc["baseline_tail"]
