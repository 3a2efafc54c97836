"""Quadratic cones, strict positivity probes and projective contraction.

An indefinite storage P with inertia (p, 0, n-p) induces the cone
``K = {x : x^T P x <= 0}``. For a dominant system the flow maps the cone
boundary strictly into the interior; the projective measure pair (P_u, P_s)
quantifies the contraction of the transient/dominant alignment ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrixcore as mc
from .errors import DimensionError, NumericalError
from .lti import ModalSplit, residual
from .model import state_matrix
from .policy import LMI_TOL, PROBE_MARGIN, ZTOL_REL

__all__ = [
    "QuadraticCone",
    "ProjectiveMeasure",
    "ConeProbeVerdict",
    "RatioTrace",
    "boundary_samples",
    "positivity_probe",
    "projective_measure_from_split",
    "ratio_trace",
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
        P = mc.as_symmetric(self.P)
        object.__setattr__(self, "P", P)
        n = P.shape[0]
        if not 0 < self.p < n:
            raise DimensionError("a quadratic cone needs 0 < p < n")
        eigenvalues, eigenvectors = mc.sym_eigen(P)
        inertia = mc.Inertia.of_spectrum(eigenvalues)
        if not inertia.matches(self.p):
            raise DimensionError(
                f"storage inertia {inertia.as_tuple()} does not match (p,0,n-p) for p={self.p}"
            )
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float).ravel()
        return float(x @ self.P @ x)


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

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "samples": self.samples,
            "times": list(self.times),
            "worst_value": self.worst_value,
        }


def positivity_probe(
    sys,
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


@dataclass(frozen=True)
class ProjectiveMeasure:
    """PSD pair (P_u, P_s) of ranks (p, n-p) with a certified contraction margin.

    Satisfies ``A^T P_u + P_u A >= (-2*rate + eps_hat) P_u`` and
    ``A^T P_s + P_s A <= (-2*rate - eps_hat) P_s`` for the reported
    ``eps_hat > 0``, so the ratio S(x)/U(x) of the two quadratic seminorms
    decays at least like ``exp(-2 eps_hat t)`` along trajectories.
    """

    P_u: np.ndarray
    P_s: np.ndarray
    rank_u: int
    rank_s: int
    eps_hat: float
    rate: float


def projective_measure_from_split(split: ModalSplit) -> ProjectiveMeasure:
    """Build the projective measure pair from the modal projectors and certify it.

    The candidates are the Gram matrices of the two spectral projectors. The
    construction is existence-backed but not universal: for strongly
    non-normal blocks the one-sided inequalities can fail, in which case the
    violated side is reported as an error.
    """
    if split.a_matrix is None:
        raise ValueError("modal split does not carry its system matrix")
    A = split.a_matrix
    n = A.shape[0]
    if not 0 < split.p < n:
        raise ValueError("projective measure needs a nontrivial split (0 < p < n)")
    P_u = split.projector_dominant.T @ split.projector_dominant
    P_s = split.projector_transient.T @ split.projector_transient
    P_u = 0.5 * (P_u + P_u.T)
    P_s = 0.5 * (P_s + P_s.T)

    eps_u = _one_sided_margin(A, P_u, split.shift, lower=True)
    eps_s = _one_sided_margin(A, P_s, split.shift, lower=False)
    if eps_u <= 0:
        raise NumericalError(
            f"dominant-side inequality failed (margin {eps_u:.3e}); "
            "projector-based measure is not valid for this system"
        )
    if eps_s <= 0:
        raise NumericalError(
            f"transient-side inequality failed (margin {eps_s:.3e}); "
            "projector-based measure is not valid for this system"
        )
    eps_hat = min(eps_u, eps_s)
    rank_u = mc.inertia_of(P_u).positive
    rank_s = mc.inertia_of(P_s).positive
    if rank_u != split.p or rank_s != n - split.p:
        raise NumericalError("projective measure ranks do not match the split")
    return ProjectiveMeasure(P_u=P_u, P_s=P_s, rank_u=rank_u, rank_s=rank_s, eps_hat=eps_hat, rate=split.shift)


def _one_sided_margin(A, P, lam, lower: bool) -> float:
    """Largest eps with Delta >= eps*P (lower) or -Delta >= eps*P (upper) on range(P).

    Delta = A^T P + P A + 2 lam P shares its range with P by construction,
    so the generalized eigenproblem restricted to range(P) decides the full
    matrix inequality.
    """
    Delta = residual(A, P, lam)
    if not lower:
        Delta = -Delta
    eigenvalues, eigenvectors = mc.sym_eigen(P)
    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    mask = eigenvalues > ZTOL_REL * scale
    basis = eigenvectors[:, mask]
    # residual of Delta outside range(P) must vanish for the restriction to decide
    off_range = Delta - basis @ (basis.T @ Delta @ basis) @ basis.T
    if np.linalg.norm(off_range, "fro") > 1e3 * LMI_TOL * max(1.0, np.linalg.norm(Delta, "fro")):
        raise NumericalError("inequality residual leaks outside the measure's range")
    M1 = basis.T @ Delta @ basis
    M2 = basis.T @ P @ basis
    import scipy.linalg as sla  # deferred, as in matrixcore

    values = sla.eigh(0.5 * (M1 + M1.T), 0.5 * (M2 + M2.T), eigvals_only=True)
    return float(values[0])


@dataclass(frozen=True)
class RatioTrace:
    """Pointwise S(x(t))/U(x(t)) series with its exponential-envelope verdict."""

    times: np.ndarray
    u_values: np.ndarray
    s_values: np.ndarray
    ratio: np.ndarray
    envelope_ok: bool
    truncated: bool


def ratio_trace(measure: ProjectiveMeasure, trajectory) -> RatioTrace:
    """Evaluate the alignment ratio along a trajectory and check its envelope.

    Truncates (with a flag) if U(x(t)) falls below the zero band; requires
    U(x(0)) > 0 to start.
    """
    states = trajectory.states
    times = trajectory.times
    U = _quadratic_forms(states, measure.P_u)
    S = _quadratic_forms(states, measure.P_s)
    floor = ZTOL_REL * max(1.0, float(np.linalg.norm(measure.P_u, 2)))
    scaled_floor = floor * np.maximum(1.0, np.einsum("ij,ij->i", states, states))
    if U[0] <= scaled_floor[0]:
        raise ValueError("trajectory starts with no dominant component (U(x(0)) ~ 0)")
    valid = U > scaled_floor
    truncated = not bool(np.all(valid))
    last = int(np.argmin(valid)) if truncated else len(U)
    times, U, S = times[:last], U[:last], S[:last]
    ratio = S / U
    envelope = ratio[0] * np.exp(-2.0 * measure.eps_hat * (times - times[0]))
    slack = 1e-6 * max(1.0, float(ratio[0]))
    envelope_ok = bool(np.all(ratio <= envelope * (1.0 + 1e-6) + slack))
    return RatioTrace(
        times=times,
        u_values=U,
        s_values=S,
        ratio=ratio,
        envelope_ok=envelope_ok,
        truncated=truncated,
    )
