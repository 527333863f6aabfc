"""Synthetic inverted-index search engine: the Lucene substrate (§6.3).

The paper's Lucene workload searches 33M Wikipedia articles with queries
from the Lucene nightly-benchmark set. Its service-time profile — mean
≈ 39.7 ms, std ≈ 21.9 ms, ≈90% of requests between 1 and 70 ms, ≈1%
above 100 ms — is governed by how much of the postings lists a query
touches: disjunctions over common terms scan long postings and land in
the tail.

We rebuild that mechanism:

* :class:`InvertedIndex` — a real index (term → sorted doc-id postings)
  with TF-IDF scoring, buildable over a synthetic Zipf corpus, for
  end-to-end example realism.
* :class:`SearchWorkload` — the engine-facing ``ServiceModel``: query cost
  is ``overhead + (scanned postings length) / rate`` where postings
  lengths follow the corpus's Zipf document frequencies and query terms
  are popularity-biased (people search common words). Defaults are
  calibrated to the paper's measured moments (the fig9 driver prints both;
  Fig. 9 row of docs/paper_map.md).

As in :mod:`repro.systems.setstore`, a reissue executes the same query on
a replica, so its service time equals the primary's; the queueing layer
supplies the randomness that reissue exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..distributions.base import RngLike, as_rng


@dataclass(frozen=True)
class SearchCorpusConfig:
    """Synthetic corpus shape and query model (defaults: calibrated §6.3).

    Attributes
    ----------
    n_docs:
        Corpus size for the document-frequency model. (The *cost model*
        scales with this; the materialized example index is built over a
        smaller slice for memory sanity.)
    vocab_size:
        Number of distinct terms.
    zipf_exponent:
        Term-popularity exponent ``s``: term rank ``i`` has occurrence
        probability ∝ ``1 / i**s``.
    doc_length:
        Mean tokens per document (used for the analytic df model).
    query_term_bias:
        Query terms are drawn ∝ ``popularity**bias`` — 0 is uniform over
        the vocabulary, 1 matches the corpus unigram distribution. Real
        query logs sit in between.
    min_terms, max_terms:
        Query length bounds; lengths are geometric-ish within the bounds.
    mean_terms:
        Mean query length target.
    """

    n_docs: int = 2_000_000
    vocab_size: int = 60_000
    zipf_exponent: float = 1.05
    doc_length: int = 300
    query_term_bias: float = 2.0
    min_terms: int = 1
    max_terms: int = 4
    mean_terms: float = 2.2

    def __post_init__(self):
        if self.n_docs < 1 or self.vocab_size < 2:
            raise ValueError("n_docs >= 1 and vocab_size >= 2 required")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be > 0")
        if not 1 <= self.min_terms <= self.max_terms:
            raise ValueError("need 1 <= min_terms <= max_terms")
        if not self.min_terms <= self.mean_terms <= self.max_terms:
            raise ValueError("mean_terms must lie within the term bounds")


def zipf_probabilities(vocab_size: int, exponent: float) -> np.ndarray:
    """Normalized Zipf occurrence probabilities for ranks 1..vocab_size."""
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    w = ranks**-exponent
    return w / w.sum()


def document_frequencies(config: SearchCorpusConfig) -> np.ndarray:
    """Expected df per term under a bag-of-words corpus model.

    A doc of length ``L`` misses term ``t`` with probability
    ``(1 - p_t)^L``, so ``df_t = n_docs * (1 - (1 - p_t)^L)``. This is the
    deterministic large-corpus limit — exactly what the cost model needs,
    with no multi-gigabyte index build.
    """
    p = zipf_probabilities(config.vocab_size, config.zipf_exponent)
    present = -np.expm1(config.doc_length * np.log1p(-np.minimum(p, 1 - 1e-12)))
    return config.n_docs * present


class InvertedIndex:
    """A real term → postings index with TF-IDF ranked retrieval.

    Small enough to materialize in tests and examples; the cluster
    simulation uses :class:`SearchWorkload`'s analytic cost model instead
    of timing Python execution (which would measure the interpreter, not
    the modeled system).
    """

    def __init__(self):
        self._postings: dict[int, list] = {}
        self._doc_len: dict[int, int] = {}
        self._frozen: dict[int, np.ndarray] | None = None
        self._tf: dict[int, np.ndarray] | None = None

    @property
    def n_docs(self) -> int:
        return len(self._doc_len)

    @property
    def vocab_size(self) -> int:
        return len(self._postings)

    def add_document(self, doc_id: int, term_ids) -> None:
        """Index one document given as a sequence of term ids."""
        if self._frozen is not None:
            raise RuntimeError("index is frozen; build a new one to add docs")
        term_ids = np.asarray(term_ids, dtype=np.int64)
        if doc_id in self._doc_len:
            raise ValueError(f"duplicate doc_id {doc_id}")
        self._doc_len[doc_id] = int(term_ids.size)
        terms, counts = np.unique(term_ids, return_counts=True)
        for t, c in zip(terms.tolist(), counts.tolist()):
            self._postings.setdefault(t, []).append((doc_id, c))

    def freeze(self) -> None:
        """Convert postings to sorted arrays (call once after building)."""
        if self._frozen is not None:
            return
        frozen, tf = {}, {}
        for t, plist in self._postings.items():
            plist.sort()
            frozen[t] = np.array([d for d, _ in plist], dtype=np.int64)
            tf[t] = np.array([c for _, c in plist], dtype=np.float64)
        self._frozen, self._tf = frozen, tf

    def postings(self, term_id: int) -> np.ndarray:
        """Sorted doc ids containing ``term_id`` (empty if absent)."""
        self.freeze()
        return self._frozen.get(term_id, np.empty(0, dtype=np.int64))

    def df(self, term_id: int) -> int:
        return int(self.postings(term_id).size)

    def scanned_postings(self, term_ids) -> int:
        """Total postings entries a disjunctive query scans (the cost)."""
        return int(sum(self.df(int(t)) for t in term_ids))

    def search(self, term_ids, k: int = 10) -> list[tuple[int, float]]:
        """TF-IDF ranked disjunctive retrieval: top-``k`` (doc_id, score).

        score(d) = Σ_t tf(t, d) * idf(t), idf(t) = ln(1 + N / df(t)),
        normalized by document length.
        """
        self.freeze()
        n = max(self.n_docs, 1)
        scores: dict[int, float] = {}
        for t in term_ids:
            t = int(t)
            docs = self._frozen.get(t)
            if docs is None or docs.size == 0:
                continue
            idf = float(np.log1p(n / docs.size))
            tfs = self._tf[t]
            for d, c in zip(docs.tolist(), tfs.tolist()):
                scores[d] = scores.get(d, 0.0) + c * idf / self._doc_len[d]
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    @classmethod
    def build_synthetic(
        cls,
        n_docs: int = 2_000,
        config: SearchCorpusConfig | None = None,
        rng: RngLike = None,
    ) -> "InvertedIndex":
        """Materialize a small Zipf corpus (examples/tests).

        Document lengths are Poisson around ``config.doc_length`` and term
        draws follow the corpus Zipf distribution, so measured dfs track
        :func:`document_frequencies` scaled to ``n_docs``.
        """
        config = config or SearchCorpusConfig()
        rng = as_rng(rng)
        p = zipf_probabilities(config.vocab_size, config.zipf_exponent)
        index = cls()
        lengths = np.maximum(rng.poisson(config.doc_length, size=n_docs), 1)
        for doc_id, length in enumerate(lengths):
            terms = rng.choice(config.vocab_size, size=int(length), p=p)
            index.add_document(doc_id, terms)
        index.freeze()
        return index


class SearchWorkload:
    """Engine-facing service model for the search cluster.

    Query cost (ms) = ``overhead_ms + scanned_work / work_per_ms`` where a
    term of document frequency ``df`` contributes ``df ** scan_exponent``
    units of work. The sublinear exponent (default 0.5) models Lucene's
    top-k evaluation with skip lists and early termination: doubling a
    stopword's postings list does not double query time. With the default
    corpus this yields the paper's measured profile — mean ≈ 39.7 ms, std
    ≈ 22 ms, ≈ 88% of queries in 1-70 ms, ≈ 1% above 100 ms (fig9).
    """

    def __init__(
        self,
        config: SearchCorpusConfig | None = None,
        overhead_ms: float = 2.0,
        scan_exponent: float = 0.5,
        work_per_ms: float | None = None,
        target_mean_ms: float = 39.73,
        hard_query_fraction: float = 0.006,
        hard_query_factor: float = 3.5,
        exec_noise_sigma: float = 0.3,
    ):
        self.config = config or SearchCorpusConfig()
        if overhead_ms < 0:
            raise ValueError("overhead_ms must be >= 0")
        if not 0.0 < scan_exponent <= 1.0:
            raise ValueError("scan_exponent must be in (0, 1]")
        if target_mean_ms <= overhead_ms:
            raise ValueError("target_mean_ms must exceed overhead_ms")
        self.overhead_ms = float(overhead_ms)
        self.scan_exponent = float(scan_exponent)
        self._df = document_frequencies(self.config)
        self._work = self._df**self.scan_exponent
        self._term_p = self._query_term_probabilities()
        self._length_p = self._length_probabilities()
        if work_per_ms is None:
            # Calibrate the scan rate so the *expected* query cost hits the
            # paper's measured mean service time (closed form: expected
            # work = E[#terms] * E_biased[work per term]).
            e_terms = float(
                np.dot(
                    np.arange(self.config.min_terms, self.config.max_terms + 1),
                    self._length_p,
                )
            )
            e_work = self._expected_term_work()
            work_per_ms = e_terms * e_work / (target_mean_ms - overhead_ms)
        if work_per_ms <= 0:
            raise ValueError("work_per_ms must be > 0")
        self.work_per_ms = float(work_per_ms)
        if not 0.0 <= hard_query_fraction < 1.0:
            raise ValueError("hard_query_fraction must be in [0, 1)")
        if hard_query_factor < 1.0:
            raise ValueError("hard_query_factor must be >= 1")
        self.hard_query_fraction = float(hard_query_fraction)
        self.hard_query_factor = float(hard_query_factor)
        if exec_noise_sigma < 0:
            raise ValueError("exec_noise_sigma must be >= 0")
        self.exec_noise_sigma = float(exec_noise_sigma)
        self._frozen_costs: np.ndarray | None = None
        self._last_det: np.ndarray | None = None

    def _expected_term_work(self) -> float:
        """``E_biased[work per term]``, correctly rounded.

        ``math.fsum`` rather than ``np.dot``: BLAS ``ddot`` accumulates
        the 50 000-term vocabulary in a build-dependent order, and the
        last-bit difference in ``work_per_ms`` moves every Lucene golden.
        """
        return math.fsum((self._term_p * self._work).tolist())

    def _query_term_probabilities(self) -> np.ndarray:
        base = zipf_probabilities(
            self.config.vocab_size, self.config.zipf_exponent
        )
        w = base**self.config.query_term_bias
        return w / w.sum()

    def _length_probabilities(self) -> np.ndarray:
        """Truncated-geometric query lengths with the configured mean."""
        lo, hi = self.config.min_terms, self.config.max_terms
        ks = np.arange(lo, hi + 1, dtype=np.float64)
        if lo == hi:
            return np.ones(1)
        # Solve for the geometric decay hitting the target mean by bisection.
        target = self.config.mean_terms

        def mean_for(r: float) -> float:
            w = r ** (ks - lo)
            w /= w.sum()
            return float(np.dot(ks, w))

        lo_r, hi_r = 1e-6, 1.0 - 1e-9
        for _ in range(80):
            mid = 0.5 * (lo_r + hi_r)
            if mean_for(mid) < target:
                lo_r = mid
            else:
                hi_r = mid
        w = ((lo_r + hi_r) / 2.0) ** (ks - lo)
        return w / w.sum()

    # -- trace freezing ---------------------------------------------------------
    def freeze_trace(self, n: int, rng: RngLike = None) -> np.ndarray:
        """Fix the query trace (the paper replays a fixed benchmark pool).

        Subsequent ``sample_primary`` calls replay these costs, tiling if
        asked for more queries than the trace holds.
        """
        self._frozen_costs = None
        self._frozen_costs = self.sample_det(n, as_rng(rng))
        return self._frozen_costs

    def thaw_trace(self) -> None:
        """Return to drawing a fresh trace on every ``sample_primary``."""
        self._frozen_costs = None

    # -- ServiceModel protocol -------------------------------------------------
    def sample_queries(
        self, n: int, rng: RngLike = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(lengths, flat_terms)``: per-query term counts and a flat
        array of the drawn term ids (popularity-biased)."""
        rng = as_rng(rng)
        lengths = rng.choice(
            np.arange(self.config.min_terms, self.config.max_terms + 1),
            size=n,
            p=self._length_p,
        )
        flat = rng.choice(
            self.config.vocab_size, size=int(lengths.sum()), p=self._term_p
        )
        return lengths, flat

    def cost_ms(self, lengths: np.ndarray, flat_terms: np.ndarray) -> np.ndarray:
        """Vectorized cost of queries given as (lengths, flat term ids)."""
        scanned = np.add.reduceat(
            self._work[flat_terms],
            np.concatenate([[0], np.cumsum(lengths)[:-1]]),
        )
        return self.overhead_ms + scanned / self.work_per_ms

    def _noise(self, n: int, rng) -> np.ndarray:
        """Per-execution machine-noise factors (unit-mean lognormal).

        The measured service time of the same query differs across replicas
        and executions — JIT state, page cache, GC pauses, co-located
        background tasks. This is the randomness request reissue exploits
        on a search tier, and it is redrawn independently for a reissued
        execution (``sample_reissue_for``).
        """
        if self.exec_noise_sigma == 0.0:
            return np.ones(n)
        s = self.exec_noise_sigma
        return rng.lognormal(-0.5 * s * s, s, size=n)

    def sample_det(self, n: int, rng: RngLike = None) -> np.ndarray:
        """Deterministic per-query cost (no execution noise)."""
        if self._frozen_costs is not None:
            reps = -(-n // self._frozen_costs.size)  # ceil division
            return np.tile(self._frozen_costs, reps)[:n].copy()
        rng = as_rng(rng)
        lengths, flat = self.sample_queries(n, rng)
        cost = self.cost_ms(lengths, flat)
        if self.hard_query_fraction > 0.0:
            # Benchmark pools contain a sliver of rewrite-heavy queries
            # (fuzzy / phrase / wildcard) costing a small multiple of a
            # plain disjunction; they are the seeds of the deep pileups
            # behind the paper's 433 ms baseline P99.
            hard = rng.random(n) < self.hard_query_fraction
            cost[hard] *= self.hard_query_factor
        return cost

    def sample_primary(self, n: int, rng: RngLike = None) -> np.ndarray:
        rng = as_rng(rng)
        det = self.sample_det(n, rng)
        self._last_det = det
        return det * self._noise(n, rng)

    def sample_reissue_for(self, query_id: int, rng: RngLike = None) -> float:
        """Service time of re-executing query ``query_id`` on a replica:
        same deterministic work, fresh machine noise."""
        if self._last_det is None:
            raise RuntimeError("sample_primary must be called first")
        rng = as_rng(rng)
        det = float(self._last_det[query_id])
        return det * float(self._noise(1, rng)[0])

    def sample_reissue(self, x, rng: RngLike = None) -> np.ndarray:
        """Vectorized fallback without query identity: treat the observed
        service time as the deterministic cost and redraw the noise. (The
        cluster engine prefers :meth:`sample_reissue_for`.)"""
        x = np.asarray(x, dtype=np.float64)
        return x * self._noise(x.size, as_rng(rng))

    def mean_service(self) -> float:
        """Mean query cost: frozen-trace mean, else closed form."""
        if self._frozen_costs is not None:
            return float(self._frozen_costs.mean())
        e_terms = float(
            np.dot(
                np.arange(self.config.min_terms, self.config.max_terms + 1),
                self._length_p,
            )
        )
        e_work = self._expected_term_work()
        return self.overhead_ms + e_terms * e_work / self.work_per_ms
