"""Edge cases for the thinnest-covered leaves: utilization calibration
(`arrival_rate_for_utilization` in `simulation/arrivals.py`) and the
ASCII chart renderers (`viz/ascii_chart.py`) — empty samples,
single-point series, and non-finite values.
"""

import numpy as np
import pytest

from repro.simulation.arrivals import arrival_rate_for_utilization
from repro.viz.ascii_chart import histogram_chart, line_chart, scatter_chart


class TestArrivalRateForUtilization:
    def test_closed_form(self):
        # rho = lambda * E[S] / n  =>  lambda = rho * n / E[S]
        assert arrival_rate_for_utilization(0.3, 10, 2.0) == pytest.approx(1.5)

    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_utilization(self, rho):
        with pytest.raises(ValueError, match="utilization"):
            arrival_rate_for_utilization(rho, 10, 2.0)

    def test_rejects_bad_servers_and_service(self):
        with pytest.raises(ValueError, match="n_servers"):
            arrival_rate_for_utilization(0.3, 0, 2.0)
        with pytest.raises(ValueError, match="mean_service"):
            arrival_rate_for_utilization(0.3, 10, 0.0)
        with pytest.raises(ValueError, match="mean_service"):
            arrival_rate_for_utilization(0.3, 10, float("nan"))  # nan > 0 is False


class TestLineChartEdges:
    def test_empty_series_mapping_rejected(self):
        with pytest.raises(ValueError, match="at least one series"):
            line_chart({})

    def test_single_point_series_renders(self):
        # A one-point series has zero x- and y-span; the renderer must
        # not divide by zero.
        out = line_chart({"s": ([1.0], [2.0])})
        assert "y: 2 .. 2" in out
        assert "x: 1 .. 1" in out
        assert "*" in out

    def test_nan_points_skipped(self):
        out = line_chart(
            {"s": ([0.0, 1.0, 2.0], [1.0, float("nan"), 3.0])}
        )
        # Finite points still define the axes.
        assert "y: 1 .. 3" in out

    def test_all_nan_rejected(self):
        with pytest.raises(ValueError, match="no finite data"):
            line_chart({"s": ([0.0, 1.0], [float("nan")] * 2)})

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            line_chart({"s": ([0.0], [0.0])}, width=4, height=2)

    def test_scatter_empty_rejected(self):
        with pytest.raises(ValueError, match="no finite data"):
            scatter_chart([], [])


class TestHistogramEdges:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            histogram_chart([], 1.0)

    def test_bad_bin_width_rejected(self):
        with pytest.raises(ValueError, match="bin_width"):
            histogram_chart([1.0], 0.0)

    def test_single_value_renders_one_occupied_bin(self):
        out = histogram_chart([0.5], 1.0, log_counts=False)
        assert "| 1" in out

    def test_nonfinite_values_skipped(self):
        # A stray NaN/inf must not poison the bin edges (matches the
        # line renderer's skip-non-finite behavior).
        with_noise = histogram_chart([1.0, float("nan"), float("inf"), 2.0], 1.0)
        clean = histogram_chart([1.0, 2.0], 1.0)
        assert with_noise == clean

    def test_all_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            histogram_chart([float("nan"), float("inf")], 1.0)

    def test_clipping_marks_last_bin(self):
        out = histogram_chart(
            np.arange(100.0), bin_width=1.0, max_bins=5
        )
        # Overflow mass is folded into the final bin, flagged with '+'.
        assert "+|" in out
