"""Data structures: CDF cursors, range queries, sketches."""

from .ecdf import EmpiricalCdf, MonotoneCdfCursor
from .range2d import MergeSortTree
from .tdigest import TDigest

__all__ = [
    "EmpiricalCdf",
    "MonotoneCdfCursor",
    "MergeSortTree",
    "TDigest",
]
