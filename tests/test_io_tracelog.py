"""Tests for the response-time trace log format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interfaces import RunResult
from repro.io import TraceLog, read_trace, write_trace
from repro.io.tracelog import iter_trace


def make_trace(n=10, m=4, seed=0):
    rng = np.random.default_rng(seed)
    return TraceLog(
        primary=rng.exponential(5.0, n),
        pair_x=rng.exponential(5.0, m),
        pair_y=rng.exponential(5.0, m),
    )


class TestTraceLog:
    def test_counts(self):
        t = make_trace(10, 4)
        assert t.n_primary == 10 and t.n_pairs == 4

    def test_mismatched_pairs_rejected(self):
        with pytest.raises(ValueError):
            TraceLog(primary=[1.0], pair_x=[1.0, 2.0], pair_y=[1.0])

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            TraceLog(primary=[-1.0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(primary=[1.0, np.nan]),
            dict(primary=[1.0], pair_x=[-1.0], pair_y=[2.0]),
            dict(primary=[1.0], pair_x=[1.0], pair_y=[np.nan]),
            dict(primary=[1.0], pair_x=[np.nan], pair_y=[1.0]),
        ],
    )
    def test_nan_and_negative_rejected_in_every_array(self, kwargs):
        with pytest.raises(ValueError, match="non-negative"):
            TraceLog(**kwargs)

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            TraceLog(primary=np.zeros((2, 2)))

    def test_from_run(self):
        run = RunResult(
            latencies=np.array([1.0]),
            primary_response_times=np.array([1.0, 2.0]),
            reissue_pair_x=np.array([3.0]),
            reissue_pair_y=np.array([0.5]),
            reissue_rate=0.5,
        )
        t = TraceLog.from_run(run)
        assert t.n_primary == 2 and t.n_pairs == 1

    def test_reissue_log_falls_back_to_primary(self):
        t = TraceLog(primary=[1.0, 2.0])
        assert np.array_equal(t.reissue_log(), t.primary)
        t2 = make_trace()
        assert np.array_equal(t2.reissue_log(), t2.pair_y)


class TestRoundTrip:
    def test_roundtrip_exact(self, tmp_path):
        t = make_trace(50, 20)
        p = tmp_path / "trace.csv"
        write_trace(p, t)
        back = read_trace(p)
        assert np.array_equal(back.primary, t.primary)
        assert np.array_equal(back.pair_x, t.pair_x)
        assert np.array_equal(back.pair_y, t.pair_y)

    def test_no_tmp_file_left(self, tmp_path):
        p = tmp_path / "trace.csv"
        write_trace(p, make_trace())
        assert list(tmp_path.iterdir()) == [p]

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("kind,x,y\nprimary,1.0,\n")
        with pytest.raises(ValueError, match="header"):
            read_trace(p)

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# repro-trace v1\nkind,x,y\nprimary,abc,\n")
        with pytest.raises(ValueError, match="bad.csv:3"):
            read_trace(p)

    @pytest.mark.parametrize(
        "row", ["primary,nan,", "primary,-1.5,", "pair,nan,1.0", "pair,1.0,-2.0"]
    )
    def test_nan_or_negative_row_names_the_line(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text(f"# repro-trace v1\nkind,x,y\nprimary,1.0,\n{row}\n")
        with pytest.raises(ValueError, match="bad.csv:4: response time"):
            read_trace(p)
        with pytest.raises(ValueError, match="bad.csv:4: response time"):
            list(iter_trace(p, chunk=1))

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# repro-trace v1\nkind,x,y\nweird,1.0,2.0\n")
        with pytest.raises(ValueError, match="weird"):
            read_trace(p)

    def test_primary_with_y_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# repro-trace v1\nkind,x,y\nprimary,1.0,2.0\n")
        with pytest.raises(ValueError):
            read_trace(p)

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "ok.csv"
        p.write_text(
            "# repro-trace v1\nkind,x,y\n\n# a comment\nprimary,1.5,\n"
        )
        t = read_trace(p)
        assert t.n_primary == 1 and t.primary[0] == 1.5


@settings(max_examples=25, deadline=None)
@given(
    primary=st.lists(st.floats(0, 1e9), min_size=1, max_size=50),
    pairs=st.lists(
        st.tuples(st.floats(0, 1e9), st.floats(0, 1e9)), max_size=20
    ),
)
def test_property_roundtrip(tmp_path_factory, primary, pairs):
    t = TraceLog(
        primary=np.array(primary),
        pair_x=np.array([a for a, _ in pairs]),
        pair_y=np.array([b for _, b in pairs]),
    )
    p = tmp_path_factory.mktemp("traces") / "t.csv"
    write_trace(p, t)
    back = read_trace(p)
    assert np.array_equal(back.primary, t.primary)
    assert np.array_equal(back.pair_y, t.pair_y)


class TestIterTrace:
    """Chunked streaming reads: same rows, bounded memory, same errors."""

    def test_chunks_concatenate_to_read_trace(self, tmp_path):
        from repro.io.tracelog import iter_trace, write_trace

        t = make_trace(n=100, m=30)
        p = tmp_path / "t.csv"
        write_trace(p, t)
        chunks = list(iter_trace(p, chunk=7))
        assert len(chunks) > 1
        assert all(c.n_primary + c.n_pairs <= 7 for c in chunks)
        np.testing.assert_array_equal(
            np.concatenate([c.primary for c in chunks]), t.primary
        )
        np.testing.assert_array_equal(
            np.concatenate([c.pair_x for c in chunks]), t.pair_x
        )
        np.testing.assert_array_equal(
            np.concatenate([c.pair_y for c in chunks]), t.pair_y
        )

    def test_malformed_row_error_carries_line_number(self, tmp_path):
        from repro.io.tracelog import iter_trace

        p = tmp_path / "bad.csv"
        p.write_text(
            "# repro-trace v1\nkind,x,y\nprimary,1.0,\nprimary,1.0,2.0\n"
        )
        with pytest.raises(ValueError, match=rf"{p}:4: .*y empty"):
            list(iter_trace(p, chunk=2))
        with pytest.raises(ValueError, match=rf"{p}:4: .*y empty"):
            read_trace(p)

    def test_field_count_error_names_the_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# repro-trace v1\nkind,x,y\npair,1.0\n")
        with pytest.raises(ValueError, match=rf"{p}:3: expected 3 fields"):
            read_trace(p)

    def test_unknown_kind_names_the_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# repro-trace v1\nkind,x,y\nbogus,1.0,\n")
        with pytest.raises(ValueError, match=rf"{p}:3: unknown row kind"):
            read_trace(p)

    def test_header_errors_name_lines_1_and_2(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("not a header\n")
        with pytest.raises(ValueError, match=rf"{p}:1: "):
            read_trace(p)
        p.write_text("# repro-trace v1\nwrong,columns\n")
        with pytest.raises(ValueError, match=rf"{p}:2: "):
            read_trace(p)


class TestStoreBridge:
    """CSV <-> packed-binary store conversion is lossless."""

    def test_csv_store_csv_byte_identical(self, tmp_path):
        from repro.io.tracelog import store_to_trace, trace_to_store

        t = make_trace(n=200, m=60, seed=3)
        src = tmp_path / "t.csv"
        write_trace(src, t)
        store = tmp_path / "t.store"
        trace_to_store(src, store, block_records=32)
        back = tmp_path / "back.csv"
        store_to_trace(store, back)
        assert back.read_bytes() == src.read_bytes()

    def test_read_trace_transparently_opens_stores(self, tmp_path):
        from repro.io.tracelog import trace_to_store

        t = make_trace(n=50, m=10, seed=5)
        src = tmp_path / "t.csv"
        write_trace(src, t)
        store = tmp_path / "t.store"
        trace_to_store(src, store)
        back = read_trace(store)
        np.testing.assert_array_equal(back.primary, t.primary)
        np.testing.assert_array_equal(back.pair_x, t.pair_x)
        np.testing.assert_array_equal(back.pair_y, t.pair_y)

    def test_log_store_round_trip_bit_exact(self, tmp_path):
        from repro.io.tracelog import log_to_store, store_to_log

        t = make_trace(n=500, m=80, seed=9)
        store = tmp_path / "t.store"
        log_to_store(t, store, block_records=64)
        back = store_to_log(store)
        np.testing.assert_array_equal(back.primary, t.primary)
        np.testing.assert_array_equal(back.pair_x, t.pair_x)
        np.testing.assert_array_equal(back.pair_y, t.pair_y)

    def test_is_store_path_sniffs_magic(self, tmp_path):
        from repro.io.tracelog import is_store_path, log_to_store

        store = tmp_path / "t.store"
        log_to_store(make_trace(), store)
        assert is_store_path(store)
        csv = tmp_path / "t.csv"
        write_trace(csv, make_trace())
        assert not is_store_path(csv)
        assert not is_store_path(tmp_path / "missing.csv")
