import numpy as np
import pytest

from pdom import LtiSystem, registry


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def msd_c4():
    return registry.msd(4.0)


@pytest.fixture(scope="session")
def msd_c8():
    return registry.msd(8.0)


def lti_model(A):
    """The channel-free model of the state matrix A, with no inputs and no outputs."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return LtiSystem(A=A, B=np.zeros((n, 0)), C=np.zeros((0, n)))


def spiral_system():
    """A 4x4 A with an unstable spiral pair (0.1 +- 2i) and stable modes -3, -4, in skewed coordinates."""
    A = np.zeros((4, 4))
    A[:2, :2] = [[0.1, 2.0], [-2.0, 0.1]]
    A[2:, 2:] = np.diag([-3.0, -4.0])
    mix = np.array(
        [
            [1.0, 0.2, -0.1, 0.3],
            [0.0, 1.0, 0.4, -0.2],
            [0.1, 0.0, 1.0, 0.1],
            [-0.3, 0.2, 0.0, 1.0],
        ]
    )
    return mix @ A @ np.linalg.inv(mix)


def random_hyperbolic(rng, n, lam, margin=0.05, scale=1.0):
    """Random A whose spectrum stays clear of Re = -lam; returns (A, p)."""
    while True:
        A = scale * rng.standard_normal((n, n))
        shifted = np.linalg.eigvals(A).real + lam
        if np.min(np.abs(shifted)) > margin:
            return A, int(np.sum(shifted > 0))
