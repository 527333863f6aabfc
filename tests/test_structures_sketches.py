"""Streaming quantile sketches: the t-digest."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures import TDigest


class TestTDigest:
    def test_single_value(self):
        d = TDigest()
        d.add(42.0)
        assert d.quantile(0.5) == 42.0

    def test_quantile_clamped_to_observed_range(self):
        # Regression (found by hypothesis): incremental centroid means
        # can cancel catastrophically and interpolate to exactly 0.0 for
        # all-negative data; quantiles must stay within [min, max].
        data = [-5.0, -2.4833964907801273e-16, -8.563584500489659e-272]
        d = TDigest(50)
        d.add_batch(np.asarray(data))
        for p in (0.25, 0.5, 0.75):
            assert min(data) <= d.quantile(p) <= max(data)

    def test_extremes_exact(self, rng):
        data = rng.normal(0, 1, 10000)
        d = TDigest(100)
        d.add_batch(data)
        assert d.quantile(0.0) == pytest.approx(float(data.min()))
        assert d.quantile(1.0) == pytest.approx(float(data.max()))

    @pytest.mark.parametrize("p", [0.5, 0.95, 0.99])
    def test_accuracy_lognormal(self, p, rng):
        data = rng.lognormal(1.0, 1.0, 50000)
        d = TDigest(200)
        d.add_batch(data)
        true = float(np.quantile(data, p))
        assert d.quantile(p) == pytest.approx(true, rel=0.05)

    def test_merge_equals_union(self, rng):
        a_data = rng.exponential(1.0, 20000)
        b_data = rng.exponential(5.0, 20000)
        a, b = TDigest(200), TDigest(200)
        a.add_batch(a_data)
        b.add_batch(b_data)
        merged = a.merge(b)
        union = np.concatenate([a_data, b_data])
        for p in (0.5, 0.9, 0.99):
            assert merged.quantile(p) == pytest.approx(
                float(np.quantile(union, p)), rel=0.08
            )

    def test_count(self, rng):
        d = TDigest()
        d.add_batch(rng.uniform(0, 1, 500))
        assert d.count == 500

    def test_compression_bounds_memory(self, rng):
        d = TDigest(50)
        d.add_batch(rng.uniform(0, 1, 100000))
        d._flush()
        assert d._means.size < 200

    def test_validation(self):
        with pytest.raises(ValueError):
            TDigest(5)
        d = TDigest()
        with pytest.raises(ValueError):
            d.quantile(0.5)
        with pytest.raises(ValueError):
            d.add(1.0, w=0.0)
        d.add(1.0)
        with pytest.raises(ValueError):
            d.quantile(1.5)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_median_within_range(self, data):
        d = TDigest(50)
        d.add_batch(np.asarray(data))
        m = d.quantile(0.5)
        assert min(data) <= m <= max(data)
