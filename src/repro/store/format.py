"""Packed-binary block-split trace format (`.store` files).

The on-disk layout is a fixed 64-byte little-endian header followed by
one or more named *segments* of fixed-width float64 records, each
segment split into ~2 MB blocks::

    [header 64B][segment "primary" block 0][block 1]...[segment "pairs" ...]

A JSON *sidecar* (``<path>.meta.json``) carries everything needed to
address the file without touching the data: per-segment name/width/
record-count/byte-offset and per-block record count, min, max and
CRC-32. Opening a :class:`TraceReader` reads the header and the sidecar
only — no data block is loaded until it is asked for (the
``blocks_loaded`` counter makes that assertable).

Records are float64 little-endian. A *width* — 1 for plain latency
logs, 2 for correlated ``(x, y)`` probe pairs — fixes the record
struct, so a block of ``c`` records is exactly ``c * width * 8`` bytes.
The header's byte-order mark rejects files written on a big-endian
machine instead of silently mis-reading them.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..obs import get_metrics, get_tracer

MAGIC = b"RPROTRC\x00"
FORMAT_VERSION = 1
BYTE_ORDER_MARK = 0x01020304
DTYPE_CODE = "<f8"
HEADER_BYTES = 64
# 262144 float64 records per block == 2 MiB for width-1 segments.
DEFAULT_BLOCK_RECORDS = 262_144
FLAG_SORTED = 0x1

_HEADER_STRUCT = struct.Struct("<8sII8sQQI20s")
assert _HEADER_STRUCT.size == HEADER_BYTES

SIDECAR_SUFFIX = ".meta.json"


class StoreError(ValueError):
    """Base class for every malformed/misused store condition."""


class StoreFormatError(StoreError):
    """The file is not a repro store (bad magic, dtype, or sidecar)."""


class StoreVersionError(StoreFormatError):
    """The file's format version is not one this reader understands."""


class StoreEndiannessError(StoreFormatError):
    """The file was written with the opposite byte order."""


class StoreTruncatedError(StoreError):
    """The data file is shorter than its metadata promises."""


class StoreChecksumError(StoreError):
    """A block's bytes do not match the CRC-32 recorded at write time."""


class StoreEmptyError(StoreError):
    """A store with zero records was used where samples are required."""


class StoreNotSortedError(StoreError):
    """A sorted store was required but this file is not marked sorted."""


def sidecar_path(path: str | os.PathLike) -> str:
    return os.fspath(path) + SIDECAR_SUFFIX


@dataclass
class BlockMeta:
    records: int
    min: float
    max: float
    crc32: int

    def as_dict(self) -> dict:
        return {
            "records": self.records,
            "min": self.min,
            "max": self.max,
            "crc32": self.crc32,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BlockMeta":
        return cls(
            records=int(d["records"]),
            min=float(d["min"]),
            max=float(d["max"]),
            crc32=int(d["crc32"]),
        )


@dataclass
class SegmentMeta:
    name: str
    width: int
    records: int
    offset: int  # absolute byte offset of the segment's first block
    blocks: list[BlockMeta] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return self.records * self.width * 8

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "width": self.width,
            "records": self.records,
            "offset": self.offset,
            "blocks": [b.as_dict() for b in self.blocks],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SegmentMeta":
        return cls(
            name=str(d["name"]),
            width=int(d["width"]),
            records=int(d["records"]),
            offset=int(d["offset"]),
            blocks=[BlockMeta.from_dict(b) for b in d["blocks"]],
        )


def _pack_header(
    *, total_records: int, block_records: int, sorted_flag: bool
) -> bytes:
    flags = FLAG_SORTED if sorted_flag else 0
    return _HEADER_STRUCT.pack(
        MAGIC,
        FORMAT_VERSION,
        BYTE_ORDER_MARK,
        DTYPE_CODE.encode("ascii").ljust(8, b"\x00"),
        block_records,
        total_records,
        flags,
        b"\x00" * 20,
    )


def _unpack_header(path: str, raw: bytes) -> dict:
    if len(raw) < HEADER_BYTES:
        raise StoreTruncatedError(
            f"{path}: file is {len(raw)} bytes, shorter than the "
            f"{HEADER_BYTES}-byte header — the file is truncated or not "
            "a repro store"
        )
    magic, version, bom, dtype, block_records, total, flags, _ = (
        _HEADER_STRUCT.unpack(raw[:HEADER_BYTES])
    )
    if magic != MAGIC:
        raise StoreFormatError(
            f"{path}: bad magic {magic!r} (expected {MAGIC!r}) — not a "
            "repro store file"
        )
    if bom != BYTE_ORDER_MARK:
        swapped = struct.unpack("<I", struct.pack(">I", BYTE_ORDER_MARK))[0]
        if bom == swapped:
            raise StoreEndiannessError(
                f"{path}: byte-order mark is byte-swapped — the file was "
                "written big-endian; re-export it on a little-endian "
                "machine (this reader only supports little-endian stores)"
            )
        raise StoreFormatError(
            f"{path}: corrupt byte-order mark 0x{bom:08x}"
        )
    if version != FORMAT_VERSION:
        raise StoreVersionError(
            f"{path}: format version {version} is not supported by this "
            f"reader (supports v{FORMAT_VERSION}); upgrade repro or "
            "re-export the trace"
        )
    dtype_code = dtype.rstrip(b"\x00").decode("ascii", "replace")
    if dtype_code != DTYPE_CODE:
        raise StoreFormatError(
            f"{path}: unsupported record dtype {dtype_code!r} "
            f"(expected {DTYPE_CODE!r})"
        )
    return {
        "block_records": int(block_records),
        "total_records": int(total),
        "sorted": bool(flags & FLAG_SORTED),
    }


def _load_sidecar(path: str) -> dict:
    side = sidecar_path(path)
    try:
        with open(side, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise StoreFormatError(
            f"{path}: missing sidecar {side} — the store is unreadable "
            "without its block metadata; re-pack the trace"
        ) from None
    except json.JSONDecodeError as exc:
        raise StoreFormatError(f"{side}: corrupt sidecar JSON: {exc}") from exc
    if doc.get("format") != "repro-store":
        raise StoreFormatError(f"{side}: not a repro-store sidecar")
    return doc


class TraceReader:
    """Lazily read a packed-binary store: metadata at open, blocks on demand.

    ``blocks_loaded`` counts data blocks actually read from disk; a
    freshly opened reader reports 0, which is what makes the
    metadata-only-open property testable. A small LRU cache keeps the
    most recently read blocks; hits are counted separately.
    """

    def __init__(self, path: str | os.PathLike, *, cache_blocks: int = 8):
        self.path = os.fspath(path)
        with open(self.path, "rb") as fh:
            header = _unpack_header(self.path, fh.read(HEADER_BYTES))
            fh.seek(0, os.SEEK_END)
            self._file_bytes = fh.tell()
        self.block_records = header["block_records"]
        self.total_records = header["total_records"]
        self.sorted = header["sorted"]

        doc = _load_sidecar(self.path)
        if int(doc.get("version", -1)) != FORMAT_VERSION:
            raise StoreVersionError(
                f"{sidecar_path(self.path)}: sidecar version "
                f"{doc.get('version')} does not match reader "
                f"v{FORMAT_VERSION}"
            )
        self.segments: dict[str, SegmentMeta] = {}
        for seg_doc in doc.get("segments", []):
            seg = SegmentMeta.from_dict(seg_doc)
            self.segments[seg.name] = seg
        self._validate_geometry(doc)

        self._cache: OrderedDict[tuple[str, int], np.ndarray] = OrderedDict()
        self._cache_blocks = max(int(cache_blocks), 1)
        self.blocks_loaded = 0
        self.cache_hits = 0
        self.bytes_read = 0

    # -- geometry ------------------------------------------------------------
    def _validate_geometry(self, doc: dict) -> None:
        side = sidecar_path(self.path)
        total = 0
        expected_end = HEADER_BYTES
        for seg in self.segments.values():
            if seg.offset != expected_end:
                raise StoreFormatError(
                    f"{side}: segment {seg.name!r} offset {seg.offset} "
                    f"does not match the packed layout ({expected_end})"
                )
            if sum(b.records for b in seg.blocks) != seg.records:
                raise StoreFormatError(
                    f"{side}: segment {seg.name!r} block counts do not "
                    f"sum to its {seg.records} records"
                )
            total += seg.records
            expected_end += seg.nbytes
        if total != self.total_records:
            raise StoreFormatError(
                f"{self.path}: header promises {self.total_records} "
                f"records but the sidecar accounts for {total}"
            )
        if int(doc.get("total_records", total)) != self.total_records:
            raise StoreFormatError(
                f"{side}: sidecar total_records disagrees with the header"
            )
        if self._file_bytes < expected_end:
            missing = expected_end - self._file_bytes
            raise StoreTruncatedError(
                f"{self.path}: file is {missing} bytes short of the "
                f"{expected_end} bytes its metadata promises — the final "
                "block was truncated; re-pack or re-fetch the trace"
            )

    def segment(self, name: str = "primary") -> SegmentMeta:
        try:
            return self.segments[name]
        except KeyError:
            raise StoreFormatError(
                f"{self.path}: no segment {name!r} "
                f"(has {sorted(self.segments)})"
            ) from None

    def __len__(self) -> int:
        return self.total_records

    # -- block access --------------------------------------------------------
    def _block_span(self, seg: SegmentMeta, index: int) -> tuple[int, int]:
        if not 0 <= index < len(seg.blocks):
            raise IndexError(
                f"{self.path}: block {index} out of range for segment "
                f"{seg.name!r} ({len(seg.blocks)} blocks)"
            )
        offset = seg.offset + index * self.block_records * seg.width * 8
        nbytes = seg.blocks[index].records * seg.width * 8
        return offset, nbytes

    def read_block(self, index: int, segment: str = "primary") -> np.ndarray:
        """Read (and checksum-verify) one block as a float64 array.

        Width-1 segments return shape ``(records,)``; wider segments
        return ``(records, width)``.
        """
        seg = self.segment(segment)
        key = (segment, index)
        cached = self._cache.get(key)
        metrics = get_metrics()
        if cached is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            metrics.counter("store.cache_hits").inc()
            return cached
        offset, nbytes = self._block_span(seg, index)
        tracer = get_tracer()
        if tracer.enabled:
            ctx = tracer.span(
                "store.read",
                path=self.path,
                segment=segment,
                block=index,
                blocks=1,
                bytes=nbytes,
                cache_hits=self.cache_hits,
            )
        else:
            ctx = None
        with ctx if ctx is not None else _null_ctx():
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                raw = fh.read(nbytes)
        if len(raw) != nbytes:
            raise StoreTruncatedError(
                f"{self.path}: block {index} of segment {segment!r} is "
                f"truncated ({len(raw)} of {nbytes} bytes)"
            )
        meta = seg.blocks[index]
        crc = zlib.crc32(raw)
        if crc != meta.crc32:
            raise StoreChecksumError(
                f"{self.path}: checksum mismatch in block {index} of "
                f"segment {segment!r} (crc32 {crc:#010x} != recorded "
                f"{meta.crc32:#010x}) — the file is corrupt; re-pack it"
            )
        arr = np.frombuffer(raw, dtype=np.dtype(DTYPE_CODE))
        if seg.width > 1:
            arr = arr.reshape(meta.records, seg.width)
        arr = arr.copy()  # decouple from the raw buffer; writable
        self.blocks_loaded += 1
        self.bytes_read += nbytes
        metrics.counter("store.blocks_loaded").inc()
        metrics.counter("store.bytes_read").inc(nbytes)
        self._cache[key] = arr
        while len(self._cache) > self._cache_blocks:
            self._cache.popitem(last=False)
        return arr

    def iter_blocks(self, segment: str = "primary"):
        """Yield every block of ``segment`` in order (bounded memory)."""
        seg = self.segment(segment)
        for i in range(len(seg.blocks)):
            yield self.read_block(i, segment)

    def read_segment(self, segment: str = "primary") -> np.ndarray:
        """Materialize a whole segment in RAM (small segments only)."""
        seg = self.segment(segment)
        if seg.records == 0:
            shape = (0,) if seg.width == 1 else (0, seg.width)
            return np.empty(shape, dtype=np.float64)
        return np.concatenate(list(self.iter_blocks(segment)))

    def head(self, n: int, segment: str = "primary") -> np.ndarray:
        """The first ``n`` records — reads only the blocks it needs."""
        seg = self.segment(segment)
        n = min(int(n), seg.records)
        out, got, i = [], 0, 0
        while got < n:
            block = self.read_block(i, segment)
            out.append(block[: n - got])
            got += len(out[-1])
            i += 1
        if not out:
            shape = (0,) if seg.width == 1 else (0, seg.width)
            return np.empty(shape, dtype=np.float64)
        return np.concatenate(out)

    def memmap(self, segment: str = "primary") -> np.ndarray:
        """A read-only ``np.memmap`` view of a whole segment.

        Pages fault in on demand, so CDF queries over a sorted segment
        touch O(log n) pages. Block checksums are *not* verified on
        this path (verify via :meth:`read_block` / ``repro store info``).
        """
        seg = self.segment(segment)
        shape = (seg.records,) if seg.width == 1 else (seg.records, seg.width)
        if seg.records == 0:
            return np.empty(shape, dtype=np.float64)
        return np.memmap(
            self.path,
            dtype=np.dtype(DTYPE_CODE),
            mode="r",
            offset=seg.offset,
            shape=shape,
        )

    def info(self) -> dict:
        """JSON-able description (the ``repro store info`` document)."""
        return {
            "path": self.path,
            "format": "repro-store",
            "version": FORMAT_VERSION,
            "dtype": DTYPE_CODE,
            "block_records": self.block_records,
            "total_records": self.total_records,
            "sorted": self.sorted,
            "file_bytes": self._file_bytes,
            "segments": [
                {
                    "name": seg.name,
                    "width": seg.width,
                    "records": seg.records,
                    "blocks": len(seg.blocks),
                    "min": min(
                        (b.min for b in seg.blocks if b.records), default=None
                    ),
                    "max": max(
                        (b.max for b in seg.blocks if b.records), default=None
                    ),
                }
                for seg in self.segments.values()
            ],
        }

    def verify(self) -> int:
        """Checksum every block; returns the number verified."""
        n = 0
        for name in self.segments:
            for block in self.iter_blocks(name):
                del block
                n += 1
        return n

    def close(self) -> None:
        self._cache.clear()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class _null_ctx:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class TraceWriter:
    """Stream records into a store file block by block.

    Appends go to the *current segment* (``"primary"`` by default; start
    another with :meth:`begin_segment`). Only whole blocks are written
    as they fill, so memory stays bounded by one block. ``close()``
    flushes the final partial block and atomically writes the sidecar.

    ``mode="a"`` re-opens an existing store and appends to its *last*
    segment (the partial final block is re-buffered); appending clears
    the sorted flag since new records arrive unordered.

    Used as a context manager, a writer that exits on an exception
    leaves the disk as it found it: a new store is removed, and an
    appended store is restored to its bytes before the writer opened.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        block_records: int = DEFAULT_BLOCK_RECORDS,
        sorted: bool = False,
        mode: str = "w",
    ):
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
        if block_records < 1:
            raise ValueError("block_records must be >= 1")
        self.path = os.fspath(path)
        self.sorted = bool(sorted)
        self._segments: list[SegmentMeta] = []
        self._buffer: list[np.ndarray] = []
        self._buffered = 0  # records in _buffer
        self._appended = 0
        self._closed = False
        self._append_mode = mode == "a" and os.path.exists(self.path)
        # Append mode: (offset, bytes) of the file tail this writer cut,
        # so a failed append can put it back.
        self._cut: tuple[int, bytes] | None = None

        if self._append_mode:
            self._open_append(block_records)
        else:
            self.block_records = int(block_records)
            self._fh = open(self.path, "wb")
            self._fh.write(
                _pack_header(
                    total_records=0,
                    block_records=self.block_records,
                    sorted_flag=False,
                )
            )

    def _open_append(self, block_records: int) -> None:
        reader = TraceReader(self.path)
        self.block_records = reader.block_records
        del block_records  # the existing file's geometry wins
        self.sorted = reader.sorted
        self._segments = list(reader.segments.values())
        if not self._segments:
            raise StoreFormatError(
                f"{self.path}: cannot append to a store with no segments"
            )
        seg = self._segments[-1]
        # Re-buffer the partial final block so appends extend it.
        tail = seg.records % self.block_records
        if tail and seg.blocks:
            last = reader.read_block(len(seg.blocks) - 1, seg.name)
            assert len(last) == tail
            self._buffer = [np.asarray(last, dtype=np.float64).reshape(-1)]
            self._buffered = tail
            seg.records -= tail
            seg.blocks.pop()
        reader.close()
        self._fh = open(self.path, "r+b")
        offset = seg.offset + seg.records * seg.width * 8
        self._fh.seek(offset)
        self._cut = (offset, self._fh.read())
        self._fh.seek(offset)
        self._fh.truncate()

    # -- segments ------------------------------------------------------------
    def _begin(self, name: str, width: int) -> None:
        offset = HEADER_BYTES + sum(s.nbytes for s in self._segments)
        self._segments.append(SegmentMeta(name, width, 0, offset))

    def begin_segment(self, name: str, width: int = 1) -> None:
        """Close out the current segment and start a new one.

        On a fresh writer the first ``begin_segment`` simply names the
        first segment (nothing implicit precedes it).
        """
        self._check_open()
        if any(s.name == name for s in self._segments):
            raise ValueError(f"segment {name!r} already written")
        if width < 1:
            raise ValueError("width must be >= 1")
        if self._segments:
            self._flush(final=True)
        self._begin(name, int(width))

    @property
    def _segment(self) -> SegmentMeta:
        if not self._segments:
            self._begin("primary", 1)  # implicit default segment
        return self._segments[-1]

    # -- writing -------------------------------------------------------------
    def append(self, values) -> None:
        """Append records to the current segment.

        Width-1 segments take any 1-D array; width-``w`` segments take
        ``(n, w)`` arrays (or flat arrays whose size divides ``w``).
        """
        self._check_open()
        seg = self._segment
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 2:
            if arr.shape[1] != seg.width:
                raise ValueError(
                    f"segment {seg.name!r} has width {seg.width}, "
                    f"got rows of width {arr.shape[1]}"
                )
            arr = arr.reshape(-1)
        elif arr.ndim != 1:
            raise ValueError("append takes 1-D or (n, width) arrays")
        if arr.size % seg.width:
            raise ValueError(
                f"flat append of {arr.size} values does not divide "
                f"segment width {seg.width}"
            )
        if arr.size == 0:
            return
        self._buffer.append(arr)
        self._buffered += arr.size // seg.width
        self._appended += arr.size // seg.width
        while self._buffered >= self.block_records:
            self._flush_one_block()

    def _flush_one_block(self) -> None:
        flat = np.concatenate(self._buffer) if len(self._buffer) > 1 else (
            self._buffer[0]
        )
        seg = self._segment
        take = self.block_records * seg.width
        block, rest = flat[:take], flat[take:]
        self._buffer = [rest] if rest.size else []
        self._buffered -= self.block_records
        self._write_block(block)

    def _flush(self, *, final: bool) -> None:
        while self._buffered >= self.block_records:
            self._flush_one_block()
        if final and self._buffered:
            flat = (
                np.concatenate(self._buffer)
                if len(self._buffer) > 1
                else self._buffer[0]
            )
            self._buffer = []
            self._buffered = 0
            self._write_block(flat)

    def _write_block(self, flat: np.ndarray) -> None:
        seg = self._segment
        records = flat.size // seg.width
        raw = np.ascontiguousarray(flat, dtype=np.dtype(DTYPE_CODE)).tobytes()
        tracer = get_tracer()
        if tracer.enabled:
            ctx = tracer.span(
                "store.write",
                path=self.path,
                segment=seg.name,
                block=len(seg.blocks),
                blocks=1,
                bytes=len(raw),
                records=records,
            )
        else:
            ctx = None
        with ctx if ctx is not None else _null_ctx():
            self._fh.write(raw)
        seg.blocks.append(
            BlockMeta(
                records=records,
                min=float(flat.min()),
                max=float(flat.max()),
                crc32=zlib.crc32(raw),
            )
        )
        seg.records += records
        metrics = get_metrics()
        metrics.counter("store.blocks_written").inc()
        metrics.counter("store.bytes_written").inc(len(raw))

    def mark_sorted(self, flag: bool = True) -> None:
        """Declare the primary segment sorted (set by ``sort_trace``)."""
        self._check_open()
        self.sorted = bool(flag)

    # -- finalize ------------------------------------------------------------
    @property
    def total_records(self) -> int:
        return sum(s.records for s in self._segments) + self._buffered

    def close(self) -> None:
        if self._closed:
            return
        if self._append_mode and self._appended:
            self.sorted = False
        if not self._segments:
            self._begin("primary", 1)  # a zero-record store still has one
        self._flush(final=True)
        total = sum(s.records for s in self._segments)
        self._fh.flush()
        self._fh.seek(0)
        self._fh.write(
            _pack_header(
                total_records=total,
                block_records=self.block_records,
                sorted_flag=self.sorted,
            )
        )
        self._fh.close()
        self._closed = True
        doc = {
            "format": "repro-store",
            "version": FORMAT_VERSION,
            "dtype": DTYPE_CODE,
            "block_records": self.block_records,
            "total_records": total,
            "sorted": self.sorted,
            "segments": [s.as_dict() for s in self._segments],
        }
        side = sidecar_path(self.path)
        tmp = side + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, side)

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"{self.path}: writer already closed")

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> bool:
        if exc[0] is None:
            self.close()
        else:
            self._abort()
        return False

    def _abort(self) -> None:
        """Undo the writer's changes on disk (the header and sidecar are
        only rewritten by ``close``, so the data bytes are all that moved)."""
        if self._closed:
            return
        self._closed = True
        with self._fh:
            if self._cut is not None:
                offset, tail = self._cut
                self._fh.seek(offset)
                self._fh.write(tail)
                self._fh.truncate()
        if self._cut is None:
            for path in (self.path, sidecar_path(self.path)):
                if os.path.exists(path):
                    os.remove(path)
