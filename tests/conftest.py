"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.core.config import TDAMConfig


@pytest.fixture
def rng():
    """A seeded generator; tests get reproducible randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def config():
    """The paper's default 2-bit / 32-stage design point."""
    return TDAMConfig()


@pytest.fixture
def small_config():
    """A short chain for device-accurate (slow) array tests."""
    return TDAMConfig(n_stages=8)
