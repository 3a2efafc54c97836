import numpy as np
import pytest

from pdom import registry


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def msd_c4():
    return registry.msd(4.0)


@pytest.fixture(scope="session")
def msd_c8():
    return registry.msd(8.0)


def random_hyperbolic(rng, n, lam, margin=0.05, scale=1.0):
    """Random A whose spectrum stays clear of Re = -lam; returns (A, p)."""
    while True:
        A = scale * rng.standard_normal((n, n))
        shifted = np.linalg.eigvals(A).real + lam
        if np.min(np.abs(shifted)) > margin:
            return A, int(np.sum(shifted > 0))
