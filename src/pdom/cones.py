"""Quadratic cones and strict positivity probes.

An indefinite storage P with inertia (p, 0, n-p) induces the cone
``K = {x : x^T P x <= 0}``. For a dominant system the flow maps the cone
boundary strictly into the interior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrixcore as mc
from .errors import DimensionError, NumericalError
from .model import LureSystem, state_matrix
from .policy import PROBE_MARGIN

__all__ = [
    "QuadraticCone",
    "ConeProbeVerdict",
    "boundary_samples",
    "positivity_probe",
]


@dataclass(frozen=True)
class QuadraticCone:
    """Cone of vectors with nonpositive quadratic form under an indefinite P.

    P's eigendecomposition, taken once for the inertia check, is kept for
    :func:`boundary_samples`.
    """

    P: np.ndarray
    p: int
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "P", mc.as_symmetric(self.P))  # an array of its own
        self.P.setflags(write=False)
        n = self.P.shape[0]
        if not 0 < self.p < n:
            raise DimensionError("a quadratic cone needs 0 < p < n")
        eigenvalues, eigenvectors = np.linalg.eigh(self.P)  # P as checked: no second check
        inertia = mc.Inertia.of_spectrum(eigenvalues)
        if not inertia.matches(self.p):
            raise DimensionError(
                f"storage inertia {inertia.as_tuple()} does not match (p,0,n-p) for p={self.p}"
            )
        object.__setattr__(self, "eigenvalues", mc.read_only_copy(eigenvalues))
        object.__setattr__(self, "eigenvectors", mc.read_only_copy(eigenvectors))


def _quadratic_forms(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``x^T P x`` for each row x of X."""
    return np.einsum("ij,ij->i", X @ P, X)


def boundary_samples(cone: QuadraticCone, count: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic boundary sampling given the caller's generator.

    Mixes random unit vectors from the negative and positive eigenspaces of P
    (the cone's own eigendecomposition, so P is not solved again) with equal
    quadratic weight, which lands exactly on ``x^T P x = 0``.
    """
    neg = cone.eigenvectors[:, cone.eigenvalues < 0]
    pos = cone.eigenvectors[:, cone.eigenvalues > 0]
    # row i holds sample i's negative-eigenspace, then positive-eigenspace coefficients
    k = neg.shape[1]
    coeffs = rng.standard_normal((count, k + pos.shape[1]))
    U = _unit(coeffs[:, :k]) @ neg.T
    V = _unit(coeffs[:, k:]) @ pos.T
    qn = -_quadratic_forms(U, cone.P)
    qp = _quadratic_forms(V, cone.P)
    return _unit(np.sqrt(qp)[:, None] * U + np.sqrt(qn)[:, None] * V)


def _unit(X: np.ndarray) -> np.ndarray:
    """Each row scaled to unit length."""
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    if not norms.all():
        raise NumericalError("degenerate sample direction")
    return X / norms


@dataclass(frozen=True)
class ConeProbeVerdict:
    passed: bool
    samples: int
    times: tuple[float, ...]
    worst_value: float  # max over probes of x(t)^T P x(t) / |x(t)|^2


def positivity_probe(
    sys: LureSystem,
    cone: QuadraticCone,
    times,
    samples: int,
    rng: np.random.Generator,
) -> ConeProbeVerdict:
    """Statistical strict-positivity check: boundary vectors must flow interior.

    For each sampled boundary vector x and each t, requires
    ``(e^{At} x)^T P (e^{At} x) < -PROBE_MARGIN * |e^{At} x|^2``.
    """
    times = tuple(float(t) for t in times)
    if not times or samples < 1:
        raise ValueError("a positivity probe needs at least one time and one sample")
    if not np.isfinite(times).all() or min(times) <= 0:
        raise ValueError("probe times must be finite and positive")
    A = state_matrix(sys)
    X = boundary_samples(cone, samples, rng)
    worst = -np.inf
    for t in times:
        flow = mc.expm(A, t)
        Y = X @ flow.T
        values = _quadratic_forms(Y, cone.P)
        norms = np.einsum("ij,ij->i", Y, Y)
        worst = max(worst, float(np.max(values / norms)))
    return ConeProbeVerdict(
        passed=worst < -PROBE_MARGIN,
        samples=samples,
        times=times,
        worst_value=worst,
    )
