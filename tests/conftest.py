"""Fixtures shared by the tests; plain helpers live in testkit.py."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
