"""System substrates standing in for the paper's Redis and Lucene testbeds.

The paper's Section 6 evaluates SingleR on two real distributed systems:

* a **Redis** key-value store serving set-intersection queries over a
  synthetic corpus of 1000 sets with lognormally distributed cardinalities
  (Section 6.2), and
* a **Lucene** enterprise-search server over 33M Wikipedia articles
  (Section 6.3).

We rebuild both as executable substrates (the §6.2/§6.3 rows of
docs/paper_map.md name each one's module and tests):

* :mod:`repro.systems.setstore` — an in-memory set store whose
  ``SINTER``-style intersections are actually executed, with a calibrated
  linear cost model mapping work to service milliseconds.
* :mod:`repro.systems.redis_sim` — the set store behind the discrete-event
  cluster with Redis's round-robin-across-connections service discipline,
  reproducing the head-of-line-blocking tail of Section 6.2.
* :mod:`repro.systems.search_engine` — a synthetic inverted index with
  TF-IDF scoring whose query costs are calibrated to the paper's measured
  Lucene service-time profile.
* :mod:`repro.systems.lucene_sim` — the search engine behind the cluster
  with the single-shared-FIFO discipline Lucene uses.

Both ``*_sim`` systems implement
:class:`repro.core.interfaces.SystemUnderTest` so every optimizer in
:mod:`repro.core` plugs in unchanged.
"""

from .setstore import SetCorpusConfig, SetStore, SetIntersectionWorkload
from .redis_sim import RedisClusterSystem, RoundRobinConnectionQueue
from .search_engine import (
    InvertedIndex,
    SearchCorpusConfig,
    SearchWorkload,
)
from .lucene_sim import LuceneClusterSystem

__all__ = [
    "SetCorpusConfig",
    "SetStore",
    "SetIntersectionWorkload",
    "RedisClusterSystem",
    "RoundRobinConnectionQueue",
    "InvertedIndex",
    "SearchCorpusConfig",
    "SearchWorkload",
    "LuceneClusterSystem",
]
