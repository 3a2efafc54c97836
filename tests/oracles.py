"""Test oracles: properties that a passing certificate implies, checked along sampled states.

A passing dominance certificate establishes p-dominance; nothing here is a
verifier. The projective measure splits the certificate's storage into two
semidefinite forms whose ratio must contract along every trajectory, and
:func:`ratio_trace` checks that contraction on one trajectory. :func:`jacobian`
is the state Jacobian at one point, which must lie in the hull of the vertex
family. The measure factors A as the certificate does, through
:func:`pdom.lti._block_storages`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from pdom.cones import _quadratic_forms
from pdom.errors import DimensionError, NumericalError
from pdom.lti import _block_storages
from pdom.model import LureSystem, as_model, hull_points
from pdom.policy import ZTOL_REL

ENVELOPE_TOL = 1e-6  # ratio-trace envelope slack: relative, and absolute times max(1, ratio(0))


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


def jacobian(sys: LureSystem, x) -> np.ndarray:
    """State Jacobian A + sum_i g_i sigma_i'(h_i^T x) h_i^T.

    On the measure-zero set where a channel argument hits a kink the left
    derivative is used; the vertex checks depend only on the slope bounds,
    so this choice never affects a verdict.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != as_model(sys).n:
        raise DimensionError("state dimension mismatch")
    return hull_points(sys, [[float(ch.sigma.derivative(float(ch.h @ x))) for ch in sys.channels]])[0]
