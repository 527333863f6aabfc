"""Data structures: streaming quantile sketches."""

from .tdigest import TDigest

__all__ = [
    "TDigest",
]
