"""The packed-binary store format: header, blocks, sidecar, failure modes."""

import json
import os
import struct

import numpy as np
import pytest

from repro.obs.metrics import get_metrics
from repro.store import (
    DEFAULT_BLOCK_RECORDS,
    FORMAT_VERSION,
    StoreChecksumError,
    StoreEndiannessError,
    StoreError,
    StoreFormatError,
    StoreTruncatedError,
    StoreVersionError,
    TraceReader,
    TraceWriter,
    sidecar_path,
)

# Header layout (format.py): magic 8s @0, version I @8, byte-order mark
# I @12, dtype 8s @16, block_records Q @24, total Q @32, flags I @40.
_VERSION_OFF = 8
_BOM_OFF = 12
HEADER_BYTES = 64


def write_store(path, samples, *, block_records=16, sorted=False):
    with TraceWriter(
        path, block_records=block_records, sorted=sorted
    ) as writer:
        writer.append(np.asarray(samples, dtype=np.float64))
    return path


def patch_bytes(path, offset, raw):
    data = bytearray(path.read_bytes())
    data[offset : offset + len(raw)] = raw
    path.write_bytes(bytes(data))


class TestRoundTrip:
    def test_write_read_round_trip(self, tmp_path, rng):
        samples = rng.exponential(5.0, 1000)
        path = write_store(tmp_path / "t.store", samples, block_records=64)
        with TraceReader(path) as reader:
            assert reader.total_records == 1000
            assert len(reader) == 1000
            np.testing.assert_array_equal(
                reader.read_segment("primary"), samples
            )

    def test_iter_blocks_concatenates_to_segment(self, tmp_path, rng):
        samples = rng.exponential(5.0, 1000)
        path = write_store(tmp_path / "t.store", samples, block_records=64)
        reader = TraceReader(path)
        joined = np.concatenate(list(reader.iter_blocks("primary")))
        np.testing.assert_array_equal(joined, samples)

    def test_multi_segment_widths(self, tmp_path, rng):
        path = tmp_path / "t.store"
        primary = rng.exponential(5.0, 100)
        pairs = rng.exponential(5.0, (40, 2))
        with TraceWriter(path, block_records=16) as writer:
            writer.append(primary)
            writer.begin_segment("pairs", 2)
            writer.append(pairs)
        reader = TraceReader(path)
        np.testing.assert_array_equal(reader.read_segment("primary"), primary)
        np.testing.assert_array_equal(reader.read_segment("pairs"), pairs)
        assert reader.segment("pairs").width == 2

    def test_default_block_records_is_two_mib(self):
        assert DEFAULT_BLOCK_RECORDS * 8 == 2 * 2**20

    def test_memmap_matches_read_segment(self, tmp_path, rng):
        samples = rng.exponential(5.0, 500)
        path = write_store(tmp_path / "t.store", samples, block_records=64)
        reader = TraceReader(path)
        np.testing.assert_array_equal(reader.memmap("primary"), samples)


class TestMetadataOnlyOpen:
    def test_open_loads_no_blocks(self, tmp_path, rng):
        """The acceptance-criteria property: opening a store reads header
        and sidecar only — the block-load counter stays at zero until a
        block is actually requested."""
        path = write_store(
            tmp_path / "t.store", rng.exponential(5.0, 4096), block_records=256
        )
        before = _counter_value("store.blocks_loaded")
        reader = TraceReader(path)
        assert reader.blocks_loaded == 0
        assert reader.bytes_read == 0
        # Metadata queries don't touch data blocks either.
        reader.info()
        assert reader.segment("primary").records == 4096
        assert reader.blocks_loaded == 0
        assert _counter_value("store.blocks_loaded") == before
        reader.read_block(0)
        assert reader.blocks_loaded == 1
        assert _counter_value("store.blocks_loaded") == before + 1

    def test_lru_cache_counts_hits(self, tmp_path, rng):
        path = write_store(
            tmp_path / "t.store", rng.exponential(5.0, 1024), block_records=128
        )
        reader = TraceReader(path, cache_blocks=2)
        reader.read_block(0)
        reader.read_block(0)
        assert reader.blocks_loaded == 1 and reader.cache_hits == 1
        # Evict block 0 (capacity 2), then re-read it: a fresh load.
        reader.read_block(1)
        reader.read_block(2)
        reader.read_block(0)
        assert reader.blocks_loaded == 4 and reader.cache_hits == 1


def _counter_value(name):
    metric = get_metrics().get(name)
    return metric.value if metric is not None else 0


class TestZeroRecordStore:
    def test_empty_store_reads_back_empty(self, tmp_path):
        path = tmp_path / "empty.store"
        with TraceWriter(path):
            pass
        reader = TraceReader(path)
        assert reader.total_records == 0
        assert reader.read_segment("primary").size == 0

    def test_empty_store_verifies(self, tmp_path):
        path = tmp_path / "empty.store"
        with TraceWriter(path):
            pass
        assert TraceReader(path).verify() == 0


class TestTruncation:
    def test_truncated_final_block(self, tmp_path, rng):
        path = write_store(
            tmp_path / "t.store", rng.exponential(5.0, 100), block_records=16
        )
        full = path.read_bytes()
        path.write_bytes(full[:-40])
        # Geometry validation catches the short file at open time.
        with pytest.raises(StoreTruncatedError, match="truncated"):
            TraceReader(path)

    def test_file_shorter_than_header(self, tmp_path):
        path = tmp_path / "stub.store"
        path.write_bytes(b"RPROTRC\x00tooshort")
        with pytest.raises(StoreTruncatedError, match="64-byte header"):
            TraceReader(path)

    def test_block_read_past_eof(self, tmp_path, rng):
        # Open a healthy reader first, then truncate the file behind it:
        # the short read is caught at block-read time.
        path = write_store(
            tmp_path / "t.store", rng.exponential(5.0, 100), block_records=16
        )
        reader = TraceReader(path)
        last = len(reader.segment("primary").blocks) - 1
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(StoreTruncatedError, match="truncated"):
            reader.read_block(last)


class TestChecksum:
    def test_corrupt_block_fails_crc(self, tmp_path, rng):
        path = write_store(
            tmp_path / "t.store", rng.exponential(5.0, 100), block_records=16
        )
        # Flip a byte in the middle of the data region, past the header.
        patch_bytes(path, HEADER_BYTES + 100, b"\xff")
        with pytest.raises(StoreChecksumError, match="checksum"):
            TraceReader(path).read_segment("primary")

    def test_verify_walks_every_block(self, tmp_path, rng):
        path = write_store(
            tmp_path / "t.store", rng.exponential(5.0, 100), block_records=16
        )
        n_blocks = TraceReader(path).verify()
        assert n_blocks == len(TraceReader(path).segment("primary").blocks)
        patch_bytes(path, HEADER_BYTES + 100, b"\xff")
        with pytest.raises(StoreChecksumError):
            TraceReader(path).verify()


class TestVersionSkew:
    def test_future_header_version_is_named_error(self, tmp_path, rng):
        path = write_store(tmp_path / "t.store", rng.exponential(5.0, 10))
        patch_bytes(
            path, _VERSION_OFF, struct.pack("<I", FORMAT_VERSION + 1)
        )
        with pytest.raises(StoreVersionError, match="not supported"):
            TraceReader(path)

    def test_sidecar_version_skew(self, tmp_path, rng):
        path = write_store(tmp_path / "t.store", rng.exponential(5.0, 10))
        side = sidecar_path(path)
        doc = json.loads(open(side).read())
        doc["version"] = FORMAT_VERSION + 1
        open(side, "w").write(json.dumps(doc))
        with pytest.raises(StoreVersionError, match="sidecar version"):
            TraceReader(path)


class TestEndianness:
    def test_big_endian_store_is_named_error(self, tmp_path, rng):
        path = write_store(tmp_path / "t.store", rng.exponential(5.0, 10))
        # A big-endian writer would emit the byte-order mark byte-swapped.
        patch_bytes(path, _BOM_OFF, struct.pack(">I", 0x01020304))
        with pytest.raises(StoreEndiannessError, match="big-endian"):
            TraceReader(path)

    def test_garbage_byte_order_mark(self, tmp_path, rng):
        path = write_store(tmp_path / "t.store", rng.exponential(5.0, 10))
        patch_bytes(path, _BOM_OFF, struct.pack("<I", 0xDEADBEEF))
        with pytest.raises(StoreFormatError, match="byte-order mark"):
            TraceReader(path)


class TestFormatErrors:
    def test_bad_magic(self, tmp_path, rng):
        path = write_store(tmp_path / "t.store", rng.exponential(5.0, 10))
        patch_bytes(path, 0, b"NOTASTOR")
        with pytest.raises(StoreFormatError, match="bad magic"):
            TraceReader(path)

    def test_missing_sidecar(self, tmp_path, rng):
        path = write_store(tmp_path / "t.store", rng.exponential(5.0, 10))
        os.unlink(sidecar_path(path))
        with pytest.raises(StoreFormatError, match="missing sidecar"):
            TraceReader(path)

    def test_corrupt_sidecar_json(self, tmp_path, rng):
        path = write_store(tmp_path / "t.store", rng.exponential(5.0, 10))
        open(sidecar_path(path), "w").write("{not json")
        with pytest.raises(StoreFormatError, match="corrupt sidecar"):
            TraceReader(path)

    def test_all_errors_are_value_errors(self):
        # main.py maps ValueError to exit code 2; every store failure
        # must ride that path.
        for exc in (
            StoreError,
            StoreFormatError,
            StoreVersionError,
            StoreEndiannessError,
            StoreTruncatedError,
            StoreChecksumError,
        ):
            assert issubclass(exc, ValueError)


class TestAppendMode:
    def test_append_extends_and_clears_sorted(self, tmp_path, rng):
        a = np.sort(rng.exponential(5.0, 40))
        b = rng.exponential(5.0, 25)
        path = tmp_path / "t.store"
        with TraceWriter(path, block_records=16, sorted=True) as writer:
            writer.append(a)
        assert TraceReader(path).sorted
        with TraceWriter(path, mode="a") as writer:
            writer.append(b)
        reader = TraceReader(path)
        assert not reader.sorted  # appending unsorted data drops the flag
        np.testing.assert_array_equal(
            reader.read_segment("primary"), np.concatenate([a, b])
        )

    def test_append_rebuffers_partial_final_block(self, tmp_path, rng):
        # 40 records at block size 16 leaves an 8-record tail block; the
        # append must splice into it, not stack a second partial block.
        a = rng.exponential(5.0, 40)
        path = tmp_path / "t.store"
        with TraceWriter(path, block_records=16) as writer:
            writer.append(a)
        with TraceWriter(path, mode="a") as writer:
            writer.append(np.array([1.0, 2.0]))
        reader = TraceReader(path)
        blocks = reader.segment("primary").blocks
        assert [b.records for b in blocks] == [16, 16, 10]
        assert reader.verify() == 3


class TestFailedWriter:
    def test_failed_new_store_is_removed(self, tmp_path, rng):
        path = tmp_path / "t.store"
        with pytest.raises(ValueError, match="width"):
            with TraceWriter(path, block_records=4) as writer:
                writer.append(rng.exponential(5.0, 10))
                writer.append(np.ones((2, 3)))
        assert not path.exists()
        assert not os.path.exists(sidecar_path(path))

    @pytest.mark.parametrize("first", [0, 5], ids=["direct", "after-flush"])
    def test_failed_append_restores_store(self, tmp_path, rng, first):
        # 10 records at block size 4: the append re-buffers (and cuts)
        # the 2-record tail block; with ``first`` = 5 it also flushes a
        # new block before the bad append fails.
        samples = rng.exponential(5.0, 10)
        path = write_store(tmp_path / "t.store", samples, block_records=4)
        data, side = path.read_bytes(), open(sidecar_path(path)).read()
        with pytest.raises(ValueError, match="width"):
            with TraceWriter(path, mode="a") as writer:
                writer.append(np.ones(first))
                writer.append(np.ones((2, 3)))
        assert path.read_bytes() == data
        assert open(sidecar_path(path)).read() == side
        reader = TraceReader(path)
        np.testing.assert_array_equal(reader.read_segment("primary"), samples)
        assert reader.verify() == 3


class TestObsCounters:
    def test_write_and_read_counters_advance(self, tmp_path, rng):
        wrote = _counter_value("store.blocks_written")
        read = _counter_value("store.bytes_read")
        path = write_store(
            tmp_path / "t.store", rng.exponential(5.0, 64), block_records=16
        )
        assert _counter_value("store.blocks_written") == wrote + 4
        TraceReader(path).read_segment("primary")
        assert _counter_value("store.bytes_read") > read
