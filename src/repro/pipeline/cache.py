"""Content-addressed on-disk result cache.

Cell values are pickled under their content fingerprint, so the cache is
shared by anything that computes the same cell: re-running a figure hits
every cell, upgrading ``quick`` → ``standard`` re-uses the replications
whose seeds and sizes carry over, and two figures evaluating the same
(system, policy, seed) replication share one entry. Entries are written
atomically (tmp + rename) so concurrent runs can share a directory.

Large array payloads take the out-of-core path: any 1-D float64 array of
at least ``REPRO_STORE_CACHE_THRESHOLD`` elements (default 262144, i.e.
2 MiB) is spilled out of the pickle into a per-entry ``repro.store``
sidecar file — written block-by-block with CRC-32s instead of as one
giant pickle blob — and the pickle keeps only a persistent-id stub.
Loading restores the arrays bit for bit; a corrupt or missing sidecar
makes the entry a miss like any other unreadable pickle.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path

import numpy as np

_MISS = object()

#: 1-D float64 arrays with at least this many elements spill to a store
#: sidecar (2 MiB of payload at the default).
DEFAULT_STORE_THRESHOLD = 262_144

_PID_KIND = "repro-store-array"


def _store_threshold() -> int:
    raw = os.environ.get("REPRO_STORE_CACHE_THRESHOLD", "")
    try:
        return int(raw) if raw else DEFAULT_STORE_THRESHOLD
    except ValueError:
        return DEFAULT_STORE_THRESHOLD


class _SpillPickler(pickle.Pickler):
    """Pickler that diverts large float64 arrays into a store file."""

    def __init__(self, fh, store_path: Path, threshold: int):
        super().__init__(fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._store_path = store_path
        self._threshold = threshold
        self._writer = None
        self._count = 0

    def persistent_id(self, obj):
        if not (
            isinstance(obj, np.ndarray)
            and obj.ndim == 1
            and obj.dtype == np.float64
            and obj.size >= self._threshold
        ):
            return None
        from ..store import TraceWriter

        if self._writer is None:
            self._writer = TraceWriter(self._store_path)
        name = f"arr{self._count}"
        self._count += 1
        self._writer.begin_segment(name, 1)
        self._writer.append(obj)
        return (_PID_KIND, name)

    def finish(self) -> None:
        if self._writer is not None:
            self._writer.close()

    def abort(self) -> None:
        if self._writer is not None:
            try:
                self._writer._fh.close()
            except Exception:
                pass
            for leftover in (
                self._store_path,
                Path(os.fspath(self._store_path) + ".meta.json"),
            ):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass

    @property
    def spilled(self) -> bool:
        return self._writer is not None


class _SpillUnpickler(pickle.Unpickler):
    """Unpickler that restores spilled arrays from the store sidecar."""

    def __init__(self, fh, store_path: str | os.PathLike):
        super().__init__(fh)
        self._store_path = store_path
        self._reader = None

    def persistent_load(self, pid):
        kind, name = pid
        if kind != _PID_KIND:
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        if self._reader is None:
            from ..store import TraceReader

            self._reader = TraceReader(self._store_path)
        return self._reader.read_segment(name)


class ResultCache:
    """Hit/miss/write accounting lives in the executor's
    ``ExecutionReport`` (the single consumer) — this class only stores."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._root = os.fspath(self.root)

    def _entry(self, fp: str) -> str:
        """``<root>/<fp[:2]>/<fp>``: the entry's path minus its suffix,
        built as a string (``get`` is on every warm replay's path)."""
        return f"{self._root}/{fp[:2]}/{fp}"

    def _path(self, fp: str) -> Path:
        return Path(f"{self._entry(fp)}.pkl")

    def _store_path(self, fp: str) -> Path:
        return Path(f"{self._entry(fp)}.store")

    def get(self, fp: str, default=None):
        """The cached value for ``fp``; ``default`` on miss or corruption.

        Any load failure counts as a miss — a truncated pickle, a
        checksum-failing store sidecar, or an entry written by an older
        code version whose classes no longer unpickle
        (AttributeError/ImportError) — because the contract is
        "recompute when the cache can't serve", never "crash the run".
        """
        entry = self._entry(fp)
        try:
            with open(f"{entry}.pkl", "rb") as fh:
                return _SpillUnpickler(fh, f"{entry}.store").load()
        except Exception:
            return default

    def contains(self, fp: str) -> bool:
        return self._path(fp).exists()

    def put(self, fp: str, value) -> None:
        path = self._path(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        store_path = self._store_path(fp)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        store_tmp = Path(f"{tmp}.store")
        pickler = None
        try:
            with os.fdopen(fd, "wb") as fh:
                pickler = _SpillPickler(fh, store_tmp, _store_threshold())
                pickler.dump(value)
                pickler.finish()
            if pickler.spilled:
                # Sidecar metadata first, then data, then the pickle that
                # references them: a crash mid-sequence leaves an entry
                # that loads as a miss, never one that loads wrong.
                os.replace(
                    f"{store_tmp}.meta.json", f"{store_path}.meta.json"
                )
                os.replace(store_tmp, store_path)
            os.replace(tmp, path)
        except BaseException:
            if pickler is not None:
                pickler.abort()
            for leftover in (tmp, store_tmp, f"{store_tmp}.meta.json"):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
            raise
