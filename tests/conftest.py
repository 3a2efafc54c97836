import sys

import numpy as np
import pytest

from pdom import LtiSystem, registry
from pdom import matrixcore as mc


# a well-posed model whose Newton Hessian is singular on the search's second step (rate 5e4, p = 0)
SINGULAR_HESSIAN_MODEL = {
    "A": [[-51968.66566891053, 65408.43145298164, -55113.22714311038],
          [-52258.85427890903, -50321.62704876259, -112498.13030353705],
          [56797.117127461635, 122661.77552153388, -87504.91675612409]],
    "B": [[-0.35467765129457984], [0.28873641320113763], [-0.8892890685057938]],
    "C": [[-1975.0280458328346, 2799.7822223603175, -6092.660749219793]],
}

# two passive one-state parts that each pass with P = 1, p = 0 at rate 0 within LMI_TOL (worst lmax 8.09e-7), under
# a coupling lmax of 0, whose loop fails (lmax 1.5e-6): premises that pass within the tolerance need not compose
TOLERANCE_LOOP = ({"A": [[2.5e-7]], "B": [[1 + 5e-7]], "C": [[1.0]]},
                  {"A": [[2.5e-7]], "B": [[-1 + 5e-7]], "C": [[-1.0]]})

# models whose passivity search at (rate, p = 1) overflows: the particular solution's divide, the Newton
# system's Gram matrix, and the ball term 4 / rho^2; each ends as a numerical failure, never as a proof
OVERFLOWING_SEARCHES = {
    "particular solution": ({"A": [[0, 1e300], [-1e300, -8e300]], "B": [[0], [1e-300]], "C": [[0, 1e160]]}, 1.2679),
    "Gram matrix": ({"A": [[0, 1e-300], [-1e-300, -8e-300]], "B": [[0], [1]], "C": [[0, 1e-300]]}, 1e300),
    "ball term": ({"A": [[0, 1e-300], [-1e-300, -8e-300]], "B": [[0], [1e160]], "C": [[0, 1e300]]}, 0.0),
}
# finite models whose dominance construction at rate 0, p = 1 overflows: in the block decoupling, or in the storage
OVERFLOWING_CONSTRUCTIONS = {
    "decoupling": {"A": [[2e-7, 1e302], [0, -2e-7]], "B": [[0], [1]], "C": [[0, 1]]},
    "storage": {"A": [[1, 1e308], [0, -1]], "B": [[0], [1]], "C": [[0, 1]]},
}


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def failing_linalg(monkeypatch):
    """``fail(name, module)`` makes the first ``np.linalg.<name>`` call made from ``module`` raise ``LinAlgError``, as a
    LAPACK non-convergence does; a routine the module hands to ``matrixcore._on_cores`` counts as called from it, and
    every other caller, matrixcore's included, is left alone. ``fail`` returns the list of raised calls."""
    def fail(name, module):
        raised, original = [], getattr(np.linalg, name)

        def spy(*args, **kwargs):
            frame = sys._getframe(1)
            if frame.f_code is mc._on_cores.__code__:
                frame = frame.f_back
            if not raised and frame.f_globals["__name__"] == module:
                raised.append(np.shape(args[0]))
                raise np.linalg.LinAlgError(f"{name} did not converge")
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
        return raised
    return fail


@pytest.fixture
def failing_step_eigensolve(failing_linalg):
    """The storage search's first step-length eigensolve (``np.linalg.eigvalsh`` called from ``pdom.lmi``) raises."""
    return failing_linalg("eigvalsh", "pdom.lmi")


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
