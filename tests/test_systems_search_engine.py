"""Tests for the Lucene substrate (inverted index + search workload, §6.3)."""

import math

import numpy as np
import pytest

from repro.systems.search_engine import (
    InvertedIndex,
    SearchCorpusConfig,
    SearchWorkload,
    document_frequencies,
    zipf_probabilities,
)


class TestZipfModel:
    def test_probabilities_normalized_and_decreasing(self):
        p = zipf_probabilities(1000, 1.05)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(np.diff(p) <= 0)

    def test_document_frequencies_bounded(self):
        cfg = SearchCorpusConfig()
        df = document_frequencies(cfg)
        assert df.shape == (cfg.vocab_size,)
        assert df.max() <= cfg.n_docs
        assert df.min() > 0

    def test_stopword_df_near_corpus_size(self):
        cfg = SearchCorpusConfig()
        df = document_frequencies(cfg)
        assert df[0] > 0.9 * cfg.n_docs  # rank-1 term is everywhere


class TestInvertedIndex:
    @pytest.fixture(scope="class")
    def index(self):
        return InvertedIndex.build_synthetic(
            n_docs=300, rng=np.random.default_rng(0)
        )

    def test_build_indexes_all_docs(self, index):
        assert index.n_docs == 300
        assert index.vocab_size > 100

    def test_postings_sorted_unique(self, index):
        # rank-0 term appears in nearly every doc
        p = index.postings(0)
        assert p.size > 250
        assert np.all(np.diff(p) > 0)

    def test_missing_term_empty(self, index):
        assert index.postings(10**9).size == 0
        assert index.df(10**9) == 0

    def test_scanned_postings_additive(self, index):
        assert index.scanned_postings([0, 1]) == index.df(0) + index.df(1)

    def test_search_returns_ranked_results(self, index):
        hits = index.search([5, 17], k=10)
        assert 0 < len(hits) <= 10
        scores = [s for _, s in hits]
        assert scores == sorted(scores, reverse=True)

    def test_search_rare_term_ranks_containing_doc_first(self):
        idx = InvertedIndex()
        idx.add_document(0, [1, 1, 1, 99])
        idx.add_document(1, [1, 2, 3, 4])
        idx.freeze()
        hits = idx.search([99], k=2)
        assert hits[0][0] == 0 and len(hits) == 1

    def test_duplicate_doc_rejected(self):
        idx = InvertedIndex()
        idx.add_document(0, [1])
        with pytest.raises(ValueError):
            idx.add_document(0, [2])

    def test_frozen_index_rejects_adds(self):
        idx = InvertedIndex()
        idx.add_document(0, [1])
        idx.freeze()
        with pytest.raises(RuntimeError):
            idx.add_document(1, [2])

    def test_measured_df_tracks_analytic_model(self, index):
        # Measured document frequency of the top term should be close to
        # the analytic large-corpus model scaled to n_docs.
        cfg = SearchCorpusConfig()
        analytic = document_frequencies(cfg) / cfg.n_docs
        measured = index.df(0) / index.n_docs
        assert measured == pytest.approx(float(analytic[0]), abs=0.1)


class TestSearchWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        return SearchWorkload()

    def test_calibrated_mean(self, workload):
        assert workload.mean_service() == pytest.approx(39.73, rel=1e-6)
        sample = workload.sample_primary(30_000, np.random.default_rng(0))
        assert sample.mean() == pytest.approx(39.73, rel=0.1)

    def test_work_per_ms_is_the_correctly_rounded_calibration(self, workload):
        # BLAS ddot accumulates the 50 000-term vocabulary in a
        # build-dependent order; the fsum value is the one the committed
        # fig7/fig9 goldens were captured with.
        e_terms = float(
            np.dot(
                np.arange(workload.config.min_terms, workload.config.max_terms + 1),
                workload._length_p,
            )
        )
        e_work = math.fsum((workload._term_p * workload._work).tolist())
        assert workload.work_per_ms == e_terms * e_work / (39.73 - workload.overhead_ms)
        assert workload.work_per_ms == float.fromhex("0x1.46cff6622af39p+6")

    def test_paper_profile_shape(self, workload):
        s = workload.sample_primary(40_000, np.random.default_rng(1))
        assert s.std() == pytest.approx(21.88, rel=0.35)
        assert ((s >= 1) & (s <= 70)).mean() > 0.8  # "~90% between 1-70ms"
        assert 0.002 < (s > 100).mean() < 0.05  # "~1% above 100ms"

    def test_query_lengths_within_bounds(self, workload):
        lengths, flat = workload.sample_queries(5000, np.random.default_rng(2))
        assert lengths.min() >= workload.config.min_terms
        assert lengths.max() <= workload.config.max_terms
        assert flat.size == lengths.sum()
        assert lengths.mean() == pytest.approx(workload.config.mean_terms, abs=0.1)

    def test_cost_vectorization_matches_manual(self, workload):
        lengths = np.array([2, 1])
        flat = np.array([0, 1, 2])
        cost = workload.cost_ms(lengths, flat)
        w = workload._work
        manual0 = workload.overhead_ms + (w[0] + w[1]) / workload.work_per_ms
        manual1 = workload.overhead_ms + w[2] / workload.work_per_ms
        assert cost[0] == pytest.approx(manual0)
        assert cost[1] == pytest.approx(manual1)

    def test_reissue_redraws_noise(self):
        w = SearchWorkload(exec_noise_sigma=0.5)
        det = w.sample_det(100, np.random.default_rng(0))
        w._last_det = det
        ys = [w.sample_reissue_for(3, np.random.default_rng(i)) for i in range(30)]
        assert np.std(ys) > 0  # noise varies
        assert np.mean(ys) == pytest.approx(det[3], rel=0.3)  # unit-mean noise

    def test_reissue_for_requires_primary_first(self):
        w = SearchWorkload()
        w._last_det = None
        with pytest.raises(RuntimeError):
            w.sample_reissue_for(0)

    def test_zero_noise_reissue_deterministic(self):
        w = SearchWorkload(exec_noise_sigma=0.0)
        w.sample_primary(10, np.random.default_rng(0))
        y1 = w.sample_reissue_for(2, np.random.default_rng(1))
        y2 = w.sample_reissue_for(2, np.random.default_rng(99))
        assert y1 == y2

    def test_freeze_trace_fixes_deterministic_costs(self):
        w = SearchWorkload()
        frozen = w.freeze_trace(200, np.random.default_rng(0))
        a = w.sample_primary(200, np.random.default_rng(1))
        b = w.sample_primary(200, np.random.default_rng(1))
        assert np.array_equal(a, b)
        # noise applies on top of the frozen deterministic costs
        c = w.sample_primary(200, np.random.default_rng(2))
        assert not np.array_equal(a, c)
        assert np.array_equal(w.sample_det(200), frozen)

    def test_hard_queries_rare_but_present(self):
        w = SearchWorkload(exec_noise_sigma=0.0)
        s = w.sample_det(100_000, np.random.default_rng(3))
        base_max = SearchWorkload(
            hard_query_fraction=0.0, exec_noise_sigma=0.0
        ).sample_det(100_000, np.random.default_rng(3)).max()
        assert s.max() > base_max * 1.5  # hard multiplier visible in tail

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchWorkload(scan_exponent=0.0)
        with pytest.raises(ValueError):
            SearchWorkload(target_mean_ms=1.0, overhead_ms=2.0)
        with pytest.raises(ValueError):
            SearchWorkload(hard_query_fraction=1.5)
        with pytest.raises(ValueError):
            SearchWorkload(exec_noise_sigma=-0.1)
        with pytest.raises(ValueError):
            SearchCorpusConfig(min_terms=3, max_terms=2)
