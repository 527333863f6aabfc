"""Data structures: range queries, sketches."""

from .range2d import MergeSortTree
from .tdigest import TDigest

__all__ = [
    "MergeSortTree",
    "TDigest",
]
