"""Shared fixtures for the test suite."""

import functools
import signal
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro import _clib
from repro.experiments import ExperimentResult, run_experiment


@pytest.fixture(autouse=True)
def restore_sigpipe():
    """``repro.main.main`` restores the default SIGPIPE action (for shell
    pipelines). Called in-process by a test, that would outlive it and
    let a later test's write to a dead worker's socket kill pytest."""
    if not hasattr(signal, "SIGPIPE"):
        yield
        return
    before = signal.getsignal(signal.SIGPIPE)
    yield
    signal.signal(signal.SIGPIPE, before)


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """A process whose compiler lookup finds nothing and which has not
    loaded the C library yet (restored after the test)."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_clib, "_library", None)
    monkeypatch.setattr(_clib, "_unavailable", None)
    monkeypatch.setattr(_clib, "find_compiler", lambda: None)


@pytest.fixture
def failing_compiler(no_compiler, monkeypatch, tmp_path):
    """As ``no_compiler``, but the lookup finds a compiler that exits 1
    and appends a line to ``cc.calls`` each time it runs."""
    cc = tmp_path / "bin" / "cc"
    cc.parent.mkdir()
    cc.write_text(
        "#!/bin/sh\necho call >> \"$0.calls\"\n"
        "echo 'cc: fatal error: broken' >&2\nexit 1\n"
    )
    cc.chmod(0o755)
    monkeypatch.setattr(_clib, "find_compiler", lambda: str(cc))
    return cc


@pytest.fixture
def rng():
    """A deterministic generator; tests share the seed for reproducibility."""
    return np.random.default_rng(12345)


@pytest.fixture
def rng_factory():
    """Factory for independent deterministic generators."""

    def make(seed: int = 0):
        return np.random.default_rng(seed)

    return make


class FigureRun(NamedTuple):
    """One figure's serial quick-scale run and the result cache it filled."""

    result: ExperimentResult
    cache_dir: Path


@pytest.fixture(scope="session")
def figure_runs(tmp_path_factory):
    """``figure_runs(eid)``: the figure's serial run at ``quick`` scale,
    seed 42, simulated on first use and shared by the whole session.

    This is the only figure simulation in the suite: the golden digests,
    the result contract and the paper's claims all read these rows.
    """

    @functools.cache
    def run(eid: str) -> FigureRun:
        cache = tmp_path_factory.mktemp(f"cache_{eid}")
        result = run_experiment(eid, scale="quick", seed=42, cache_dir=cache)
        return FigureRun(result, cache)

    return run
