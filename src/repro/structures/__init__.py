"""Data structures: prefix counting, CDF cursors, range queries, sketches."""

from .fenwick import FenwickTree
from .ecdf import EmpiricalCdf, MonotoneCdfCursor
from .range2d import MergeSortTree, DominanceSweep
from .tdigest import TDigest

__all__ = [
    "FenwickTree",
    "EmpiricalCdf",
    "MonotoneCdfCursor",
    "MergeSortTree",
    "DominanceSweep",
    "TDigest",
]
