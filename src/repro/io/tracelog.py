"""Reading and writing response-time trace logs.

Two interchangeable representations:

* **CSV** — a comment header identifying the schema version and three
  columns::

      # repro-trace v1
      kind,x,y
      primary,12.25,
      pair,180.62,14.75

  ``primary`` rows carry one response time in ``x``. ``pair`` rows carry
  a correlated observation: the primary response time ``x`` of a query
  whose reissue responded in ``y`` (measured from the reissue's own
  dispatch) — the input to the §4.2 conditional-CDF estimator. The
  format is deliberately trivial: it round-trips through any spreadsheet
  or awk pipeline, and :func:`read_trace` is strict about malformed rows
  (reporting the 1-based line number) so silent truncation cannot skew a
  fitted policy.

* **Packed binary** (``repro.store``) — the same log as a block-split
  ``.store`` file: a ``primary`` width-1 segment plus, when pairs exist,
  a ``pairs`` width-2 segment. :func:`trace_to_store` /
  :func:`store_to_trace` convert losslessly in either direction (floats
  are written with ``repr`` so CSV→binary→CSV is byte-identical), and
  both stream chunk-at-a-time so million-row logs convert in bounded
  memory. :func:`read_trace` transparently accepts either format.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from ..core.interfaces import RunResult
from ..store.format import (
    DEFAULT_BLOCK_RECORDS,
    HEADER_BYTES,
    MAGIC,
    TraceReader,
    TraceWriter,
)

_HEADER = "# repro-trace v1"
_COLUMNS = "kind,x,y"
DEFAULT_CHUNK_ROWS = 65_536


@dataclass
class TraceLog:
    """An in-memory response-time log.

    Attributes
    ----------
    primary:
        Response times of primary requests (the ``RX`` log of Figure 1).
    pair_x, pair_y:
        Parallel arrays of correlated (primary, reissue) response times
        for queries that dispatched a reissue. Empty when the trace was
        collected without reissues.
    """

    primary: np.ndarray
    pair_x: np.ndarray = field(default_factory=lambda: np.empty(0))
    pair_y: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        self.primary = np.asarray(self.primary, dtype=np.float64)
        self.pair_x = np.asarray(self.pair_x, dtype=np.float64)
        self.pair_y = np.asarray(self.pair_y, dtype=np.float64)
        if self.pair_x.shape != self.pair_y.shape:
            raise ValueError("pair_x and pair_y must have equal length")
        if self.primary.ndim != 1 or self.pair_x.ndim != 1:
            raise ValueError("trace arrays must be 1-D")
        for name in ("primary", "pair_x", "pair_y"):
            arr = getattr(self, name)
            # ``min`` propagates NaN, and ``nan >= 0`` is False.
            if arr.size and not float(arr.min()) >= 0.0:
                raise ValueError(
                    f"{name}: response times must be non-negative numbers"
                )

    @property
    def n_primary(self) -> int:
        return int(self.primary.size)

    @property
    def n_pairs(self) -> int:
        return int(self.pair_x.size)

    @classmethod
    def from_run(cls, run: RunResult) -> "TraceLog":
        """Capture a simulation/system run's logs as a trace."""
        return cls(
            primary=run.primary_response_times,
            pair_x=run.reissue_pair_x,
            pair_y=run.reissue_pair_y,
        )

    def reissue_log(self) -> np.ndarray:
        """The ``RY`` log: observed reissue response times, falling back to
        the primary log when no reissues were recorded (identical-service
        assumption)."""
        return self.pair_y if self.pair_y.size else self.primary


def write_trace(path, trace: TraceLog) -> None:
    """Write a trace log to ``path`` (atomic: temp file + rename)."""
    path = Path(path)
    buf = io.StringIO()
    buf.write(_HEADER + "\n")
    buf.write(_COLUMNS + "\n")
    for x in trace.primary:
        buf.write(f"primary,{float(x)!r},\n")
    for x, y in zip(trace.pair_x, trace.pair_y):
        buf.write(f"pair,{float(x)!r},{float(y)!r}\n")
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(buf.getvalue())
    tmp.replace(path)


def is_store_path(path) -> bool:
    """True when ``path`` is a packed-binary store file (by magic)."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _response_time(text: str) -> float:
    value = float(text)
    if not value >= 0.0:  # also False for NaN
        raise ValueError(
            f"response time must be a non-negative number, got {text!r}"
        )
    return value


def _parse_rows(path: Path, fh) -> Iterator[tuple[str, float, float]]:
    """Strictly parse data rows, yielding ``(kind, x, y)`` per row.

    Every malformed-row error carries the 1-based line number, on the
    whole-file and the chunked paths alike. A NaN or negative response
    time is malformed: it would pass into a fit and poison it.
    """
    line1 = fh.readline()
    if not line1 or line1.strip() != _HEADER:
        raise ValueError(f"{path}:1: missing '{_HEADER}' header")
    line2 = fh.readline()
    if not line2 or line2.strip() != _COLUMNS:
        raise ValueError(f"{path}:2: missing '{_COLUMNS}' column row")
    for lineno, line in enumerate(fh, start=3):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(
                f"{path}:{lineno}: expected 3 fields, got {len(parts)}"
            )
        kind, xs, ys = parts
        try:
            if kind == "primary":
                if ys != "":
                    raise ValueError("primary rows must leave y empty")
                yield "primary", _response_time(xs), 0.0
            elif kind == "pair":
                yield "pair", _response_time(xs), _response_time(ys)
            else:
                raise ValueError(f"unknown row kind {kind!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None


def iter_trace(path, chunk: int = DEFAULT_CHUNK_ROWS) -> Iterator[TraceLog]:
    """Stream a CSV trace as :class:`TraceLog` chunks of ≤ ``chunk`` rows.

    Memory stays bounded by one chunk no matter how large the log is;
    errors are as strict (and as line-numbered) as :func:`read_trace`.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    path = Path(path)
    primary: list[float] = []
    pair_x: list[float] = []
    pair_y: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for kind, x, y in _parse_rows(path, fh):
            if kind == "primary":
                primary.append(x)
            else:
                pair_x.append(x)
                pair_y.append(y)
            if len(primary) + len(pair_x) >= chunk:
                yield TraceLog(
                    primary=np.array(primary),
                    pair_x=np.array(pair_x),
                    pair_y=np.array(pair_y),
                )
                primary, pair_x, pair_y = [], [], []
    if primary or pair_x:
        yield TraceLog(
            primary=np.array(primary),
            pair_x=np.array(pair_x),
            pair_y=np.array(pair_y),
        )


def read_trace(path) -> TraceLog:
    """Read a trace log (CSV or packed-binary store) whole into memory.

    Raises ``ValueError`` on version mismatch or any malformed row
    (naming the 1-based line); a partially-written trace must never
    silently become a smaller trace. For logs too large for RAM, use
    :func:`iter_trace` (CSV) or open the store lazily with
    :class:`repro.store.TraceReader`.
    """
    path = Path(path)
    if is_store_path(path):
        return store_to_log(path)
    primary: list[float] = []
    pair_x: list[float] = []
    pair_y: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for kind, x, y in _parse_rows(path, fh):
            if kind == "primary":
                primary.append(x)
            else:
                pair_x.append(x)
                pair_y.append(y)
    return TraceLog(
        primary=np.array(primary),
        pair_x=np.array(pair_x),
        pair_y=np.array(pair_y),
    )


# ---------------------------------------------------------------------------
# CSV <-> packed-binary conversion (lossless, streaming)


def trace_to_store(
    csv_path,
    store_path,
    *,
    chunk: int = DEFAULT_CHUNK_ROWS,
    block_records: int = DEFAULT_BLOCK_RECORDS,
) -> TraceReader:
    """Convert a CSV trace to a packed-binary store, chunk at a time.

    Two streaming passes (primary rows, then pair rows) keep memory
    bounded while producing the store's sequential segment layout.
    Returns a reader on the result.
    """
    with TraceWriter(store_path, block_records=block_records) as writer:
        for part in iter_trace(csv_path, chunk):
            writer.append(part.primary)
        n_pairs = 0
        for part in iter_trace(csv_path, chunk):
            if part.n_pairs:
                if n_pairs == 0:
                    writer.begin_segment("pairs", 2)
                writer.append(
                    np.column_stack((part.pair_x, part.pair_y))
                )
                n_pairs += part.n_pairs
    return TraceReader(store_path)


def store_to_trace(store_path, csv_path) -> None:
    """Convert a packed-binary store back to CSV, one store block at a time.

    Floats are formatted with ``repr`` exactly like :func:`write_trace`,
    so CSV→binary→CSV round-trips byte for byte.
    """
    reader = TraceReader(store_path)
    csv_path = Path(csv_path)
    tmp = csv_path.with_suffix(csv_path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_HEADER + "\n")
        fh.write(_COLUMNS + "\n")
        if "primary" in reader.segments:
            for block in reader.iter_blocks("primary"):
                fh.writelines(f"primary,{float(x)!r},\n" for x in block)
        if "pairs" in reader.segments:
            for block in reader.iter_blocks("pairs"):
                fh.writelines(
                    f"pair,{float(x)!r},{float(y)!r}\n" for x, y in block
                )
    os.replace(tmp, csv_path)


def store_to_log(store_path) -> TraceLog:
    """Materialize a store file as an in-memory :class:`TraceLog`."""
    reader = TraceReader(store_path)
    primary = (
        reader.read_segment("primary")
        if "primary" in reader.segments
        else np.empty(0)
    )
    if "pairs" in reader.segments and reader.segment("pairs").records:
        pairs = reader.read_segment("pairs")
        pair_x, pair_y = pairs[:, 0], pairs[:, 1]
    else:
        pair_x = pair_y = np.empty(0)
    return TraceLog(primary=primary, pair_x=pair_x, pair_y=pair_y)


def log_to_store(
    trace: TraceLog,
    store_path,
    *,
    block_records: int = DEFAULT_BLOCK_RECORDS,
) -> TraceReader:
    """Write an in-memory :class:`TraceLog` as a packed-binary store."""
    with TraceWriter(store_path, block_records=block_records) as writer:
        writer.append(trace.primary)
        if trace.n_pairs:
            writer.begin_segment("pairs", 2)
            writer.append(np.column_stack((trace.pair_x, trace.pair_y)))
    return TraceReader(store_path)


# HEADER_BYTES is re-exported for tooling that sniffs store headers.
__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "HEADER_BYTES",
    "TraceLog",
    "is_store_path",
    "iter_trace",
    "log_to_store",
    "read_trace",
    "store_to_log",
    "store_to_trace",
    "trace_to_store",
    "write_trace",
]
