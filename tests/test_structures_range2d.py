"""2-D range counting structures vs brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.range2d import MergeSortTree

pts = st.lists(
    st.tuples(
        st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)
    ),
    min_size=1,
    max_size=100,
)


class TestMergeSortTree:
    def test_small_exact(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        ys = np.array([4.0, 3.0, 2.0, 1.0])
        t = MergeSortTree(xs, ys)
        # x > 2, y < 2.5  ->  points (3,2) and (4,1).
        assert t.count_dominance(2.0, 2.5) == 2
        assert t.count_dominance(4.0, 100.0) == 0
        assert t.count_x_above(0.0) == 4

    def test_duplicates(self):
        xs = np.array([5.0, 5.0, 5.0])
        ys = np.array([1.0, 2.0, 3.0])
        t = MergeSortTree(xs, ys)
        assert t.count_dominance(4.9, 2.5) == 2
        assert t.count_dominance(5.0, 2.5) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MergeSortTree([], [])
        with pytest.raises(ValueError):
            MergeSortTree([1.0], [1.0, 2.0])

    @given(pts, st.floats(-1, 101), st.floats(-1, 101))
    @settings(max_examples=80, deadline=None)
    def test_dominance_matches_bruteforce(self, points, xq, yq):
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        t = MergeSortTree(xs, ys)
        expected = int(np.sum((xs > xq) & (ys < yq)))
        assert t.count_dominance(xq, yq) == expected
