"""Tests for the §5.1 linear-correlated pair model, Y = r*x + Z.

The model is drawn by :class:`repro.simulation.workloads.ServiceModel`:
``sample_primary`` gives the primary service time x and ``sample_reissue``
the reissue copy's Y from an independent Z of the same base distribution.
"""

import numpy as np
import pytest

from repro.distributions import Exponential, Pareto
from repro.simulation.workloads import ServiceModel


def sample_pairs(model: ServiceModel, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    x = model.sample_primary(n, rng)
    return x, model.sample_reissue(x, rng)


class TestLinearCorrelatedPair:
    def test_paper_model_shape(self, rng):
        x, y = sample_pairs(ServiceModel(Pareto(1.1, 2.0), correlation=0.5), 5000, rng)
        # Y = 0.5 x + Z with Z >= mode, so y >= 0.5 x + 2 always.
        assert np.all(y >= 0.5 * x + 2.0 - 1e-12)

    def test_zero_ratio_independent(self, rng):
        x, y = sample_pairs(ServiceModel(Exponential(1.0), correlation=0.0), 50000, rng)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.02

    def test_correlation_increases_with_ratio(self, rng):
        cors = []
        for r in (0.0, 0.5, 1.0):
            x, y = sample_pairs(ServiceModel(Exponential(1.0), correlation=r), 30000, rng)
            cors.append(np.corrcoef(x, y)[0, 1])
        assert cors[0] < cors[1] < cors[2]

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            ServiceModel(Exponential(1.0), correlation=-0.1)
