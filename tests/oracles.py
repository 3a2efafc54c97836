"""Test oracles: properties that a passing certificate implies, checked along sampled states.

A passing dominance certificate establishes p-dominance; nothing here is a
verifier. The projective measure splits the certificate's storage into two
semidefinite forms whose ratio must contract along every trajectory, and
:func:`ratio_trace` checks that contraction on one trajectory. :func:`jacobian`
is the state Jacobian at one point, which must lie in the hull of the vertex
family, built from :func:`derivative`, the left derivative of a nonlinearity.
:func:`block_split` factors A with the LAPACK calls that
:func:`pdom.lti.construct_certificate` makes, so the measure reads the same
split bit for bit; its ``W^{-1}`` is an LU solve, a reference independent of
the construction, which inverts nothing, for the measure and for the storage test. :func:`supply_value`
and :func:`failing_corners` compute, for the tests, a supply's value at one
point and a verdict's failing corners.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dtrsyl

from pdom import matrixcore as mc
from pdom.errors import DimensionError, NumericalError
from pdom.model import LureSystem, Nonlinearity, as_model, hull_points, state_matrix
from pdom.policy import ZTOL_REL

ENVELOPE_TOL = 1e-6  # ratio-trace envelope slack: relative, and absolute times max(1, ratio(0))


def _trsyl(A, B, C, **options) -> np.ndarray:
    """``op(A) X + isgn X B = C`` on real Schur forms, unscaled, as the construction solves it."""
    X, scale, info = dtrsyl(A, B, C, **options)
    assert info >= 0, f"trsyl argument {-info} is invalid"
    return X / scale


def block_split(A, lam: float, p: int):
    """``(W, W^{-1}, T1, T2)`` with ``A = W blockdiag(T1, T2) W^{-1}``, as the certificate construction splits A.

    A's unsorted real Schur form (:func:`pdom.matrixcore._real_schur`), reordered by
    :func:`pdom.matrixcore.schur_split` to ``A = Q T Q^T``, leads with the eigenvalues of ``A + lam I``
    right of the axis, which must number p (a ``ValueError`` if not); for 0 < p < n one ``trsyl``,
    ``T1 Y - Y T2 = -T12``, decouples the blocks, and ``W = Q [[I, Y], [0, I]]``.
    """
    T, Z, spectrum = mc._real_schur(np.asarray(A, dtype=float))
    Q, T = mc.schur_split(T, Z, lam)
    k = int(np.sum(spectrum.real + lam > 0))
    if k != p:
        raise ValueError(f"A + {lam:.6g} I has {k} unstable eigenvalues, expected {p}")
    n = T.shape[0]
    W = Q
    if 0 < p < n:
        V = np.eye(n)
        V[:p, p:] = _trsyl(T[:p, :p], T[p:, p:], -T[:p, p:], isgn=-1)
        W = Q @ V
    return W, np.linalg.solve(W, np.eye(n)), T[:p, :p], T[p:, p:]


def supply_value(supply, y, u) -> float:
    """A supply's quadratic form ``y^T Q y + 2 y^T L u + u^T R u`` at one (y, u)."""
    y = np.asarray(y, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    return float(y @ supply.Q @ y + 2.0 * y @ supply.L @ u + u @ supply.R @ u)


def failing_corners(verdict) -> tuple[tuple[float, ...], ...]:
    """The corners of a verdict's failing vertices, in family order."""
    corners = itertools.product(*verdict.bounds)
    return tuple(corner for corner, passed in zip(corners, verdict.vertex_passed.tolist()) if not passed)


def _quadratic_forms(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``x^T P x`` for each row x of X."""
    return np.einsum("ij,ij->i", X @ P, X)


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

    With ``A = W blockdiag(T1, T2) W^{-1}`` (:func:`block_split`), the block
    storages Xu and Xs solve ``M^T X + X M = I`` for ``M = T1 + lam I`` and
    ``M = -(T2 + lam I)``, as the certificate construction solves them, and
    ``P_u = V_u^T Xu V_u``, ``P_s = V_s^T Xs V_s``, V_u and V_s being the first
    p and the last n - p rows of W^{-1}. Each one-sided inequality is a
    congruence of the block inequality ``M^T X + X M >= eps X`` in modal
    coordinates, so ``eps_hat`` is the smaller of the two blocks' margins
    (:func:`_block_margin`). Refused: a Lur'e model, a p off the split or a
    trivial split (``ValueError``), and a margin that is not positive
    (``NumericalError``).
    """
    A = state_matrix(sys)
    n = A.shape[0]
    if not 0 < p < n:
        raise ValueError("projective measure needs a nontrivial split (0 < p < n)")
    _, Winv, T1, T2 = block_split(A, lam, p)
    Mu, Ms = T1 + lam * np.eye(p), T2 + lam * np.eye(n - p)
    Xu = _trsyl(Mu, Mu, np.eye(p), trana="T")
    Xs = _trsyl(Ms, Ms, -np.eye(n - p), trana="T")
    Xu, Xs = 0.5 * (Xu + Xu.T), 0.5 * (Xs + Xs.T)
    eps_hat = min(_block_margin(Mu, Xu), _block_margin(-Ms, Xs))
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


def derivative(sigma: Nonlinearity, s):
    """The left derivative of ``sigma`` at s, in closed form: a float for a scalar s, else an array."""
    s = np.asarray(s, dtype=float)
    if sigma.kind == "cubic_saturated":
        # left derivative at the kinks: -3 at s = 2, -1/3 at s = -2
        inner = np.abs(s) < 2.0
        at_pos_kink = s == 2.0
        out = np.where(inner | at_pos_kink, 1.0 - s * s, -1.0 / 3.0)
        return out if out.shape else float(out)
    if sigma.kind == "scaled":
        return sigma.params["factor"] * derivative(sigma.params["base"], s)
    return _table_slope(sigma, s)


def _table_slope(sigma: Nonlinearity, s):
    knots, slopes = sigma.params["knots"], sigma.params["slopes"]
    # left derivative: the segment ending at s decides at interior knots
    idx = np.clip(np.searchsorted(knots, s, side="left") - 1, 0, len(slopes) - 1)
    return slopes[idx]


def jacobian(sys: LureSystem, x) -> np.ndarray:
    """State Jacobian A + sum_i g_i sigma_i'(h_i^T x) h_i^T.

    On the measure-zero set where a channel argument hits a kink the left
    derivative is used; the vertex checks depend only on the slope bounds,
    so this choice never affects a verdict.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != as_model(sys).n:
        raise DimensionError("state dimension mismatch")
    return hull_points(sys, [[float(derivative(ch.sigma, float(ch.h @ x))) for ch in sys.channels]])[0]
