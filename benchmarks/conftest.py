"""Shared fixtures for the paper-shape suite.

Each ``bench_figN.py`` regenerates the corresponding paper figure at the
reduced ``BENCH_SCALE`` inside a pytest-benchmark measurement, prints
the figure's rows (so ``pytest benchmarks/ -s`` shows the reproduced
data), and asserts the paper's qualitative shape; design-choice
ablations live in ``bench_ablation.py``. Performance is measured by the
benchmark under ``bench/``, not here. The helpers live in
``_bench_utils.py``, not here — importing from ``conftest`` collides
with ``tests/conftest.py`` in mixed pytest invocations.
"""

import pytest

from _bench_utils import BENCH_SCALE


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE
