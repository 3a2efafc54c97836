"""Quadratic cones, strict positivity probes and projective contraction.

An indefinite storage P with inertia (p, 0, n-p) induces the cone
``K = {x : x^T P x <= 0}``. For a dominant system the flow maps the cone
boundary strictly into the interior. The projective measure pair (P_u, P_s)
splits the certificate's storage as ``P = P_s - P_u``, built from the same
block storages, and quantifies the contraction of the transient/dominant
alignment ratio S(x)/U(x).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrixcore as mc
from .errors import DimensionError, NumericalError
from .lti import _block_storages
from .model import LureSystem, state_matrix
from .policy import ENVELOPE_TOL, PROBE_MARGIN, ZTOL_REL

__all__ = [
    "QuadraticCone",
    "ProjectiveMeasure",
    "ConeProbeVerdict",
    "RatioTrace",
    "boundary_samples",
    "positivity_probe",
    "projective_measure",
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
        object.__setattr__(self, "P", mc.as_symmetric(self.P))  # an array of its own
        self.P.setflags(write=False)
        n = self.P.shape[0]
        if not 0 < self.p < n:
            raise DimensionError("a quadratic cone needs 0 < p < n")
        eigenvalues, eigenvectors = mc.sym_eigen(self.P)
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


@dataclass(frozen=True)
class ProjectiveMeasure:
    """PSD pair (P_u, P_s) of ranks (p, n-p) whose difference is the certificate's storage.

    ``P_s - P_u`` is the storage P that :func:`pdom.lti.construct_certificate`
    builds for the same (rate, p). The pair satisfies
    ``A^T P_u + P_u A >= (-2*rate + eps_hat) P_u`` and
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


def projective_measure(sys: LureSystem, lam: float, p: int) -> ProjectiveMeasure:
    """The projective measure of the p-dominance certificate at rate ``lam``, from its block storages.

    With ``A = W blockdiag(T1, T2) W^{-1}`` and the block storages Xu, Xs of
    :func:`pdom.lti._block_storages`, ``P_u = V_u^T Xu V_u`` and
    ``P_s = V_s^T Xs V_s``, V_u and V_s being the first p and the last n - p
    rows of W^{-1}. Each one-sided inequality is a congruence of the block
    inequality ``M^T X + X M >= eps X`` in modal coordinates, with
    ``M = T1 + lam I`` for Xu and ``M = -(T2 + lam I)`` for Xs, so ``eps_hat``
    is the smaller of the two blocks' margins (:func:`_block_margin`).
    Refused as :func:`pdom.lti.construct_certificate` refuses (a Lur'e model,
    a bad claim, a p off the split), a trivial split (``ValueError``) and a
    margin that is not positive (``NumericalError``).
    """
    A, _, Winv, T1, T2, Xu, Xs = _block_storages(sys, lam, p)
    n = A.shape[0]
    if not 0 < p < n:
        raise ValueError("projective measure needs a nontrivial split (0 < p < n)")
    eps_hat = min(_block_margin(T1 + lam * np.eye(p), Xu), _block_margin(-(T2 + lam * np.eye(n - p)), Xs))
    if eps_hat <= 0:
        raise NumericalError(f"projective measure has no contraction margin ({eps_hat:.3e})")
    P_u = Winv[:p].T @ Xu @ Winv[:p]
    P_s = Winv[p:].T @ Xs @ Winv[p:]
    return ProjectiveMeasure(P_u=0.5 * (P_u + P_u.T), P_s=0.5 * (P_s + P_s.T), rank_u=p, rank_s=n - p,
                             eps_hat=eps_hat, rate=lam)


def _block_margin(M: np.ndarray, X: np.ndarray) -> float:
    """Least eigenvalue of the formed block residual ``M^T X + X M`` relative to the positive definite X."""
    import scipy.linalg as sla  # deferred, as in matrixcore

    R = M.T @ X + X @ M
    try:
        return float(sla.eigh(0.5 * (R + R.T), X, eigvals_only=True)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"block storage is not positive definite: {exc}") from exc


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

    Truncates (with a flag) if U(x(t)) falls below the zero band
    ``ZTOL_REL ||P_u||_2 |x(t)|^2``; requires U(x(0)) above it to start.
    """
    states = trajectory.states
    times = trajectory.times
    U = _quadratic_forms(states, measure.P_u)
    S = _quadratic_forms(states, measure.P_s)
    # the band scales with |x|^2 as U does, so the trace, like S/U, is the same at every scale of x
    scaled_floor = ZTOL_REL * float(np.linalg.norm(measure.P_u, 2)) * np.einsum("ij,ij->i", states, states)
    if U[0] <= scaled_floor[0]:
        raise ValueError("trajectory starts with no dominant component (U(x(0)) ~ 0)")
    valid = U > scaled_floor
    truncated = not bool(np.all(valid))
    last = int(np.argmin(valid)) if truncated else len(U)
    times, U, S = times[:last], U[:last], S[:last]
    ratio = S / U
    envelope = ratio[0] * np.exp(-2.0 * measure.eps_hat * (times - times[0]))
    slack = ENVELOPE_TOL * max(1.0, float(ratio[0]))
    envelope_ok = bool(np.all(ratio <= envelope * (1.0 + ENVELOPE_TOL) + slack))
    return RatioTrace(
        times=times,
        u_values=U,
        s_values=S,
        ratio=ratio,
        envelope_ok=envelope_ok,
        truncated=truncated,
    )
