"""Store-backed (out-of-core) sample logs for the Figure-1 fits.

A sorted :class:`repro.store.EmpiricalStore` is fitted by the same
sweep as an in-memory log (:mod:`repro.optimize.vectorized`), handed
its ``np.memmap`` directly so nothing O(N) is copied or tabulated, and
its ``release`` callback drops the pages each chunk faulted in
(``madvise(MADV_DONTNEED)``). This module resolves a request's store
logs and loads trace evidence by file format; the chunked entry points
are re-exported here for callers that import them by this path.
"""

from __future__ import annotations

import numpy as np

from .vectorized import (
    compute_optimal_singled_chunked,
    compute_optimal_singler_chunked,
)

__all__ = [
    "compute_optimal_singled_chunked",
    "compute_optimal_singler_chunked",
    "load_trace_evidence",
    "resolve_store_logs",
]


def resolve_store_logs(request):
    """``(rx_sorted, ry_sorted, release)`` for a store-backed request.

    Returns ``None`` unless ``request.rx`` is an
    :class:`repro.store.EmpiricalStore` — the signal that the chunked
    out-of-core sweep should run. ``ry`` may be another store, an
    in-memory array (sorted here, it is small by assumption), or absent
    (defaults to ``rx``).
    """
    from ..store import EmpiricalStore

    rx = request.rx
    if not isinstance(rx, EmpiricalStore):
        return None
    releases = [rx.release]
    rx_arr = rx.sorted_samples
    ry = request.ry
    if ry is None:
        ry_arr = rx_arr
    elif isinstance(ry, EmpiricalStore):
        ry_arr = ry.sorted_samples
        releases.append(ry.release)
    else:
        ry_arr = np.sort(np.asarray(ry, dtype=np.float64))

    def release():
        for drop in releases:
            drop()

    return rx_arr, ry_arr, release


def load_trace_evidence(path: str) -> dict:
    """Sample-log evidence kwargs (``rx``/``pair_x``/``pair_y``) from a
    trace file, by format.

    ``.store`` files open lazily: a sorted store becomes an
    :class:`~repro.store.EmpiricalStore` (solvers then fit out-of-core,
    chunked); an unsorted one raises the actionable
    :class:`~repro.store.StoreNotSortedError`. A ``pairs`` segment, when
    present, is materialized in RAM (the probe log is a small fraction
    of the primary log). CSV trace logs load whole via
    :func:`repro.io.tracelog.read_trace`.
    """
    from ..io.tracelog import is_store_path, read_trace
    from ..store import EmpiricalStore, TraceReader

    if is_store_path(path):
        reader = TraceReader(path)
        evidence: dict = {"rx": EmpiricalStore(reader)}
        pairs_seg = reader.segments.get("pairs")
        if pairs_seg is not None and pairs_seg.records:
            pairs = reader.read_segment("pairs")
            evidence["pair_x"] = pairs[:, 0]
            evidence["pair_y"] = pairs[:, 1]
        return evidence
    log = read_trace(path)
    evidence = {"rx": log.primary}
    if log.pair_x.size:
        evidence["pair_x"] = log.pair_x
        evidence["pair_y"] = log.pair_y
    return evidence
