"""Stable digests of experiment rows for the golden-equivalence tests.

Every figure's ``rows`` must stay bit-for-bit identical to the committed
``tests/goldens/experiment_rows_quick.json``. That file holds a content
digest per figure, plus each row's short digest and canonical values, so
that a mismatch can name the first cell that moved. The serialization below is intentionally explicit (no ``json.dumps``
float formatting surprises): every scalar is tagged with its type and
floats use ``repr(float(v))``, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np


def canonical_value(v) -> str:
    """Tagged, bit-exact string form of one row entry."""
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return f"b:{bool(v)}"
    if isinstance(v, (int, np.integer)):
        return f"i:{int(v)}"
    if isinstance(v, (float, np.floating)):
        return f"f:{float(v)!r}"
    if isinstance(v, str):
        return f"s:{v}"
    if v is None:
        return "n:"
    raise TypeError(f"unsupported row value type {type(v).__name__}: {v!r}")


def canonical_row(row: Sequence) -> list[str]:
    """The row's entries in :func:`canonical_value` form."""
    return [canonical_value(v) for v in row]


def row_digest(row: Sequence) -> str:
    """Short SHA-256 of one row: enough to find the first row that moved
    (the figure digest, not this, is what a golden pins)."""
    return hashlib.sha256("\x1f".join(canonical_row(row)).encode()).hexdigest()[:16]


def rows_digest(rows: Iterable[Sequence]) -> str:
    """SHA-256 over the canonical serialization of ``rows``."""
    h = hashlib.sha256()
    for row in rows:
        h.update("\x1f".join(canonical_row(row)).encode())
        h.update(b"\x1e")
    return h.hexdigest()
