"""Negative-feedback interconnection and closed-loop certificate algebra.

Two open systems in the standard loop ``u1 = -y2 + v1``, ``u2 = y1 + v2``
compose into a single system on the stacked state. Supply rates compose into
an explicit closed-loop supply on (y, v); when the pure-output part of that
supply is negative semidefinite (the coupling condition), block-diagonal
storages certify dominance of the loop with degree p1 + p2.

The loop file (``sys1``, ``sys2``, ``supply1``, ``supply2``, ``lambda`` and
optional ``cert1``, ``cert2``) is decoded by ``pdom interconnect`` itself;
this module works on the decoded systems, supplies and certificates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from .dissipativity import DissipativityCertificate, SupplyRate, verify_dissipativity
from .errors import (
    CouplingError,
    DimensionError,
    RateMismatchError,
    UnsupportedConfigurationError,
)
from .lti import DominanceCertificate, check_dominance
from .model import Channel, LureSystem
from .policy import LMI_TOL

__all__ = [
    "CouplingVerdict",
    "feedback_compose",
    "static_feedback",
    "compose_supply",
    "coupling_condition",
    "closed_loop_certificate",
]


def _check_channels(sys1, sys2) -> None:
    if sys1.m != sys2.r or sys2.m != sys1.r:
        raise DimensionError(
            f"incompatible loop channels: (m1, r1) = ({sys1.m}, {sys1.r}), "
            f"(m2, r2) = ({sys2.m}, {sys2.r})"
        )


def feedback_compose(sys1: LureSystem, sys2: LureSystem) -> LureSystem:
    """Closed loop of two strictly proper systems, state (x1, x2), input (v1, v2).

    Channels are lifted to the stacked state by zero-padding their g and h
    vectors, so a loop of Lur'e systems is a Lur'e system.
    """
    if not (sys1.is_strictly_proper and sys2.is_strictly_proper):
        raise UnsupportedConfigurationError("feedback composition requires D1 = D2 = 0")
    _check_channels(sys1, sys2)
    n1, n2 = sys1.n, sys2.n
    A = np.block(
        [
            [sys1.A, -sys1.B @ sys2.C],
            [sys2.B @ sys1.C, sys2.A],
        ]
    )
    B = np.block(
        [
            [sys1.B, np.zeros((n1, sys2.m))],
            [np.zeros((n2, sys1.m)), sys2.B],
        ]
    )
    C = np.block(
        [
            [sys1.C, np.zeros((sys1.r, n2))],
            [np.zeros((sys2.r, n1)), sys2.C],
        ]
    )

    def lift(ch: Channel, before: int, after: int) -> Channel:
        pad = lambda v: np.concatenate([np.zeros(before), v, np.zeros(after)])
        return Channel(g=pad(ch.g), h=pad(ch.h), sigma=ch.sigma, alpha=ch.alpha, beta=ch.beta)

    channels = tuple(lift(ch, 0, n2) for ch in sys1.channels) + tuple(lift(ch, n1, 0) for ch in sys2.channels)
    name = f"feedback({sys1.name or 'sys1'}, {sys2.name or 'sys2'})"
    return LureSystem(A=A, B=B, C=C, channels=channels, name=name)


def static_feedback(sys: LureSystem, k: float) -> LureSystem:
    """Static output feedback u = -k y + v, kept as a dedicated path.

    Modeling the gain as a second system would need an empty state; closing
    the loop directly as ``A - k B C`` avoids those edge cases.
    """
    if not sys.is_strictly_proper:
        raise UnsupportedConfigurationError("static feedback requires D = 0")
    if sys.r != sys.m:
        raise DimensionError("static output feedback needs a square channel")
    return dataclasses.replace(sys, A=sys.A - k * sys.B @ sys.C, name=f"{sys.name or 'sys'}<-gain({k:g})")


def compose_supply(s1: SupplyRate, s2: SupplyRate) -> SupplyRate:
    """Closed-loop supply on ((y1, y2), (v1, v2)) induced by the loop equations."""
    if s1.m != s2.r or s2.m != s1.r:
        raise DimensionError("supply channel dimensions are not loop-compatible")
    Q = np.block(
        [
            [s1.Q + s2.R, -s1.L + s2.L.T],
            [-s1.L.T + s2.L, s2.Q + s1.R],
        ]
    )
    L = np.block(
        [
            [s1.L, s2.R],
            [-s1.R, s2.L],
        ]
    )
    R = np.block(
        [
            [s1.R, np.zeros((s1.m, s2.m))],
            [np.zeros((s2.m, s1.m)), s2.R],
        ]
    )
    return SupplyRate(Q=0.5 * (Q + Q.T), L=L, R=R)


@dataclass(frozen=True)
class CouplingVerdict:
    passed: bool
    lmax: float
    matrix: np.ndarray

    def to_dict(self) -> dict:
        return {"passed": self.passed, "lmax": self.lmax}


def coupling_condition(s1: SupplyRate, s2: SupplyRate) -> CouplingVerdict:
    """Dominance-coupling test: the pure-output part of the composed supply is <= 0."""
    coupled = compose_supply(s1, s2)
    lmax = float(mc.sym_eigvals(coupled.Q)[-1])
    return CouplingVerdict(passed=lmax <= LMI_TOL, lmax=lmax, matrix=coupled.Q)


def closed_loop_certificate(
    sys1,
    c1: DissipativityCertificate,
    sys2,
    c2: DissipativityCertificate,
) -> DominanceCertificate:
    """Block-diagonal dominance certificate for the loop, verified before return.

    Requires a uniform rate, a passing coupling condition and both open-loop
    certificates verified with their claimed p; the storage
    blockdiag(P1, P2) then claims p1 + p2, and the loop's vertex family (one
    vertex when no subsystem has channels) must pass the dominance LMI.
    """
    if abs(c1.rate - c2.rate) > 1e-12:
        raise RateMismatchError(f"rates differ: {c1.rate} vs {c2.rate} (uniform rate required)")
    coupling = coupling_condition(c1.supply, c2.supply)
    if not coupling.passed:
        raise CouplingError(f"coupling condition fails (lmax = {coupling.lmax:.3e})")
    for sys, cert in ((sys1, c1), (sys2, c2)):
        if not verify_dissipativity(sys, cert).passed:
            raise CouplingError("an open-loop certificate failed verification")

    loop = feedback_compose(sys1, sys2)
    n1, n2 = c1.P.shape[0], c2.P.shape[0]
    P = np.zeros((n1 + n2, n1 + n2))
    P[:n1, :n1] = c1.P
    P[n1:, n1:] = c2.P
    verdict = check_dominance(loop, DominanceCertificate(P=P, rate=c1.rate, epsilon=0.0, p=c1.p + c2.p))
    if not verdict.passed:
        raise CouplingError(f"closed-loop dominance check failed: {verdict.status}")
    epsilon = max(0.0, -verdict.worst_lmax) / 2.0
    return DominanceCertificate(P=P, rate=c1.rate, epsilon=epsilon, p=verdict.p)
