"""Shared fixtures for the test suite."""

import signal

import numpy as np
import pytest


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
def rng():
    """A deterministic generator; tests share the seed for reproducibility."""
    return np.random.default_rng(12345)


@pytest.fixture
def rng_factory():
    """Factory for independent deterministic generators."""

    def make(seed: int = 0):
        return np.random.default_rng(seed)

    return make
