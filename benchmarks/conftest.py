"""Shared fixtures for the paper claims still open.

The paper's claims are asserted in tier-1 (``tests/test_paper_claims.py``).
A claim that does not yet hold there keeps its ``bench_figN.py`` here:
it regenerates the figure at the reduced ``BENCH_SCALE`` inside a
pytest-benchmark measurement, prints the figure's rows (so
``pytest benchmarks/ -s`` shows the reproduced data), and asserts the
paper's shape. ``docs/paper_claims.md`` lists them. Performance is
measured by the benchmark under ``bench/``, not here. The helpers live
in ``_bench_utils.py``, not here — importing from ``conftest`` collides
with ``tests/conftest.py`` in mixed pytest invocations.
"""

import pytest

from _bench_utils import BENCH_SCALE


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE
