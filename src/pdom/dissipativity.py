"""Quadratic supply rates and open-system dominance (dissipation) tests.

A system is p-dissipative with rate ``lam`` for the supply
``s(y, u) = y^T Q y + 2 y^T L u + u^T R u`` when the composite block matrix
of :func:`pdom.lti.dissipation_blocks` (re-exported here) is negative
semidefinite for some storage P with inertia (p, 0, n-p); a Lur'e model
needs it at every vertex of its slope family, and a linear one at its one
vertex A. Named supplies cover passivity and finite-gain bounds;
:func:`min_gain` gives the least gain bound a fixed storage certifies, in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from .errors import DimensionError, LmiInfeasibleError, UnsupportedConfigurationError
from .lti import (
    DifferentialVerdict,
    DominanceCertificate,
    LtiSystem,
    _check_claim,
    _family_verdict,
    _residual,
    dissipation_blocks,
)
from .model import _json_number, _json_object, _ValueEquality, state_matrix
from .policy import SEARCH_MARGIN

__all__ = [
    "SupplyRate",
    "DissipativityCertificate",
    "supply_passivity",
    "supply_gain",
    "small_gain_pair",
    "dissipation_blocks",
    "verify_dissipativity",
    "min_gain",
    "find_passivity_storage",
]


@dataclass(frozen=True, eq=False)
class SupplyRate(_ValueEquality):
    """Quadratic form on (y, u): Q on outputs, R on inputs, L cross term."""

    Q: np.ndarray
    L: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = mc.as_symmetric(self.Q)
        R = mc.as_symmetric(self.R)
        L = mc.as_matrix(self.L)
        if L.shape != (Q.shape[0], R.shape[0]):
            raise DimensionError(
                f"cross term must be {Q.shape[0]}x{R.shape[0]}, got {L.shape}"
            )
        for attr, value in (("Q", Q), ("L", L), ("R", R)):
            object.__setattr__(self, attr, mc.read_only_copy(value))

    @property
    def r(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.R.shape[0]

    def scaled(self, tau: float) -> "SupplyRate":
        """Positive rescaling; dissipativity is preserved with storage tau*P.

        A tau that is not finite and positive is refused, and so is one that overflows an entry.
        """
        tau = float(tau)
        if not (tau > 0 and np.isfinite(tau)):
            raise ValueError(f"supply scaling must be finite and positive, got {tau!r}")
        with np.errstate(over="ignore"):
            Q, L, R = tau * self.Q, tau * self.L, tau * self.R
        if not (np.isfinite(Q).all() and np.isfinite(L).all() and np.isfinite(R).all()):
            raise ValueError(f"supply scaling by {tau!r} overflows")
        return SupplyRate(Q=Q, L=L, R=R)

    def to_dict(self) -> dict:
        return {"Q": self.Q.tolist(), "L": self.L.tolist(), "R": self.R.tolist()}

    @staticmethod
    def from_dict(data: dict, r: int | None = None, m: int | None = None) -> "SupplyRate":
        """Decode either explicit {Q, L, R} or the named shorthand forms.

        Shorthands: {"kind": "passivity"} and {"kind": "gain", "gamma": g};
        both need the channel dimensions (r, m) from context.
        """
        data = _json_object(data, "a supply")
        if "kind" in data:
            kind = data["kind"]
            if r is None or m is None:
                raise DimensionError("named supply shorthand needs channel dimensions")
            if kind == "passivity":
                return supply_passivity(r)
            if kind == "gain":
                return supply_gain(_json_number(data, "gamma"), r, m)
            raise ValueError(f"unknown supply kind {kind!r}")
        return SupplyRate(
            Q=np.asarray(data["Q"], dtype=float),
            L=np.asarray(data["L"], dtype=float),
            R=np.asarray(data["R"], dtype=float),
        )


@dataclass(frozen=True, eq=False)
class DissipativityCertificate(DominanceCertificate):
    """A dominance certificate plus the supply it claims p-dissipativity for.

    The storage, rate, margin and p, their claim check and their encoding are
    the parent's; ``==`` still compares exact types, so a dissipativity
    certificate never equals a dominance certificate.
    """

    supply: SupplyRate

    def to_dict(self) -> dict:
        return {**super().to_dict(), "supply": self.supply.to_dict()}

    @classmethod
    def from_dict(cls, data: dict, r: int | None = None, m: int | None = None) -> "DissipativityCertificate":
        """Decode the claim and its supply; (r, m) size a named supply shorthand."""
        data = _json_object(data, "a certificate")
        return super().from_dict(data, supply=SupplyRate.from_dict(data["supply"], r=r, m=m))


def supply_passivity(r: int) -> SupplyRate:
    """Passivity supply s(y, u) = 2 y^T u on a square channel."""
    if r < 1:
        raise DimensionError("passivity supply needs at least one channel")
    return SupplyRate(Q=np.zeros((r, r)), L=np.eye(r), R=np.zeros((r, r)))


def supply_gain(gamma: float, r: int, m: int) -> SupplyRate:
    """Finite-gain supply s(y, u) = gamma^2 |u|^2 - |y|^2.

    A negative or NaN gamma is refused, and so is one whose square overflows.
    """
    gamma = float(gamma)  # a Python float: its square overflows to inf without a warning
    if not (gamma >= 0 and np.isfinite(gamma * gamma)):
        raise ValueError(f"gain bound must be nonnegative with a finite square, got {gamma!r}")
    return SupplyRate(Q=-np.eye(r), L=np.zeros((r, m)), R=gamma * gamma * np.eye(m))


def small_gain_pair(gamma1: float, gamma2: float) -> tuple[SupplyRate, SupplyRate]:
    """Gain supplies for a single-channel feedback pair, balanced so coupling decides gamma1*gamma2 <= 1.

    Dissipativity is invariant under positive supply scaling (with the storage
    scaled alike), so the second supply is rescaled by gamma1/gamma2. With
    unit scalings the raw coupling test would instead require each gain to be
    at most one on its own.
    """
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValueError("gain bounds must be positive for the balanced pair")
    s1 = supply_gain(gamma1, 1, 1)
    s2 = supply_gain(gamma2, 1, 1).scaled(gamma1 / gamma2)
    return s1, s2


def verify_dissipativity(sys: LtiSystem, cert: DissipativityCertificate) -> DifferentialVerdict:
    """Check a dissipativity certificate on every vertex: block definiteness plus storage inertia."""
    return _family_verdict(sys, cert.P, cert.rate, cert.p, cert.epsilon, cert.supply)


def min_gain(sys: LtiSystem, P, lam: float) -> float:
    """Least gain bound gamma that the FIXED storage (P, lam) certifies, in closed form.

    With ``M = A^T P + P A + 2 lam P + C^T C`` and ``W = P B + C^T D``, the
    gain supply's block is ``[[M, W], [W^T, D^T D - gamma^2 I]]``. When
    ``M < 0`` it is ``<= 0`` exactly when gamma^2 is at least the top
    eigenvalue of the Schur complement ``D^T D + W^T (-M)^{-1} W``. Raises
    ``ValueError`` for a rate that is not finite and nonnegative, when M is
    not negative definite (no gain works) or when P has an eigenvalue in the
    zero band (the verifiers refuse all three).
    """
    A = state_matrix(sys)
    _check_claim(lam, 0, sys.n)
    P = mc.as_symmetric(P)  # P's one check: its spectrum and M are taken from it as checked
    if P.shape != A.shape:
        raise DimensionError("A and P must share dimensions")
    if mc.Inertia.of_spectrum(np.linalg.eigvalsh(P)).zero:
        raise ValueError("storage has eigenvalues inside the zero band")
    M = _residual(A, P, lam) + sys.C.T @ sys.C
    W = P @ sys.B + sys.C.T @ sys.D
    mu, V = mc.sym_eigen(M)
    if mu[-1] >= 0:
        raise ValueError(f"A^T P + P A + 2 lam P + C^T C is not negative definite (lmax = {mu[-1]:.3e})")
    Z = (V.T @ W) / np.sqrt(-mu)[:, None]  # Z^T Z = W^T (-M)^{-1} W
    schur = mc.sym_eigvals(sys.D.T @ sys.D + Z.T @ Z)
    return float(np.sqrt(max(schur[-1], 0.0)))


def find_passivity_storage(sys: LtiSystem, lam: float, p: int) -> DissipativityCertificate:
    """Search for a storage with P B = C^T making the system p-passive at rate lam.

    The equality is enforced exactly by the feasibility engine's
    parameterization; the dominance residual is pushed strictly negative.
    The returned certificate is re-verified before being handed back. A rate
    that is not finite and nonnegative, or a p outside [0, n], is a
    ``ValueError``.
    """
    return _find_passivity_storage(sys, lam, p)[0]


def _find_passivity_storage(sys: LtiSystem, lam: float, p: int) -> tuple[DissipativityCertificate, DifferentialVerdict]:
    """:func:`find_passivity_storage`, with the passing verdict that re-verified the certificate."""
    from . import lmi  # deferred: keep module import costs flat

    A = state_matrix(sys)
    _check_claim(lam, p, sys.n)
    if not sys.is_strictly_proper:
        raise UnsupportedConfigurationError("storage search requires D = 0")
    if sys.r != sys.m:
        raise DimensionError("passivity needs a square channel (r = m)")

    eps_search = SEARCH_MARGIN * max(1.0, float(np.linalg.norm(A, 2)))
    problem = lmi.LmiProblem(
        dim=sys.n,
        blocks=[lambda P: _residual(A, P, lam)],  # the engine checks what its blocks return
        equalities=[lmi.LinearEquality(lambda P: P @ sys.B, sys.C.T)],
        inertia_target=(p, 0, sys.n - p),
        epsilon=eps_search,
    )
    P = lmi.solve(problem)
    cert = DissipativityCertificate(
        P=P, rate=lam, epsilon=eps_search / 2.0, p=p, supply=supply_passivity(sys.r)
    )
    verdict = verify_dissipativity(sys, cert)
    if not verdict.passed:
        raise LmiInfeasibleError(
            lmi.LmiReport(
                iterations=0,
                violation=verdict.worst_lmax,
                equality_residual=float(np.linalg.norm(P @ sys.B - sys.C.T)),
                inertia=verdict.inertia.as_tuple(),
                message="engine output failed re-verification",
            )
        )
    return cert, verdict
