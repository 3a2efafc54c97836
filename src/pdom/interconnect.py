"""Networks of open systems: one composition routine and its supply algebra.

Parts joined by the static coupling ``u = M y + v`` form one system on the
stacked state, :func:`network`; their supplies give the network's supply on
(y, v), :func:`network_supply`. When the pure-output part of that supply,
``[I; M]^T S [I; M]`` for the block-diagonal supply S, is negative
semidefinite (the coupling condition), the block-diagonal storage of
p_i-dissipative parts certifies dominance of the whole with degree sum p_i
(Moylan & Hill, IEEE TAC 23(2), 1978). The two-system negative-feedback loop
``u1 = -y2 + v1``, ``u2 = y1 + v2`` is the case ``M = [[0, -I], [I, 0]]``.

The loop file (``sys1``, ``sys2``, ``supply1``, ``supply2``, ``lambda`` and
optional ``cert1``, ``cert2``) is decoded by ``pdom interconnect`` itself;
this module works on the decoded systems, supplies and certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from .dissipativity import DissipativityCertificate, SupplyRate, verify_dissipativity
from .errors import CouplingError, DimensionError, UnsupportedConfigurationError
from .lti import DominanceCertificate, _family_verdict
from .model import Channel, LureSystem, as_model
from .policy import LMI_TOL

__all__ = [
    "CouplingVerdict",
    "network",
    "network_supply",
    "coupling_condition",
    "closed_loop_certificate",
]


def _offsets(sizes) -> np.ndarray:
    return np.cumsum([0, *sizes])


def _block_diagonal(blocks) -> np.ndarray:
    rows, cols = _offsets([b.shape[0] for b in blocks]), _offsets([b.shape[1] for b in blocks])
    out = np.zeros((rows[-1], cols[-1]))
    for i, block in enumerate(blocks):
        out[rows[i]:rows[i + 1], cols[i]:cols[i + 1]] = block
    return out


def network(parts, M) -> LureSystem:
    """The parts joined by ``u = M y + v``, with states, inputs and outputs stacked in part order.

    Every part must be strictly proper (D = 0). Part i's block row of A is
    ``A_i`` plus ``(B_i @ M_ij) @ C_j`` for each nonzero block ``M_ij`` of M,
    the ``(m_i, r_j)`` block that feeds part j's output to part i's input.
    Channels are lifted to the stacked state by zero-padding their g and h
    vectors, so a network of Lur'e systems is a Lur'e system.
    """
    parts = tuple(map(as_model, parts))
    if not parts:
        raise DimensionError("a network needs at least one part")
    if not all(part.is_strictly_proper for part in parts):
        raise UnsupportedConfigurationError("network composition requires every part to have D = 0")
    n, m, r = (_offsets([getattr(part, dim) for part in parts]) for dim in ("n", "m", "r"))
    M = mc.as_matrix(M, shape=(m[-1], r[-1]))
    A = _block_diagonal([part.A for part in parts])
    for i, part in enumerate(parts):
        for j, other in enumerate(parts):
            M_ij = M[m[i]:m[i + 1], r[j]:r[j + 1]]
            if M_ij.any():
                with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves A non-finite: the model refuses
                    term = (part.B @ M_ij) @ other.C
                    # an off-diagonal block is the term itself, signed zeros included, not 0 + term
                    A[n[i]:n[i + 1], n[j]:n[j + 1]] = part.A + term if i == j else term

    def lift(ch: Channel, i: int) -> Channel:
        g, h = np.zeros(n[-1]), np.zeros(n[-1])
        g[n[i]:n[i + 1]], h[n[i]:n[i + 1]] = ch.g, ch.h
        return Channel(g=g, h=h, sigma=ch.sigma, alpha=ch.alpha, beta=ch.beta)

    return LureSystem(
        A=A,
        B=_block_diagonal([part.B for part in parts]),
        C=_block_diagonal([part.C for part in parts]),
        channels=tuple(lift(ch, i) for i, part in enumerate(parts) for ch in part.channels),
        name=f"network({', '.join(part.name or f'part{i + 1}' for i, part in enumerate(parts))})",
    )


def network_supply(supplies, M) -> SupplyRate:
    """The network's supply on (y, v): ``sum_i s_i(y_i, u_i)`` under ``u = M y + v``.

    Over the block-diagonal Q, L and R of the parts' supplies it is
    ``(Q + LM + (LM)^T + M^T R M, L + M^T R, R)``.
    """
    Q, L, R = (_block_diagonal([getattr(s, name) for s in supplies]) for name in ("Q", "L", "R"))
    M = mc.as_matrix(M, shape=(R.shape[0], Q.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow stays non-finite, and SupplyRate refuses it
        LM = L @ M
        return SupplyRate(Q=Q + LM + LM.T + M.T @ R @ M, L=L + M.T @ R, R=R)


def _loop_coupling(first, second) -> np.ndarray:
    """M of the loop ``u1 = -y2 + v1``, ``u2 = y1 + v2`` between two systems or two supplies."""
    if first.m != second.r or second.m != first.r:
        raise DimensionError(
            f"incompatible loop channels: (m1, r1) = ({first.m}, {first.r}), "
            f"(m2, r2) = ({second.m}, {second.r})"
        )
    M = np.zeros((first.m + second.m, first.r + second.r))
    M[: first.m, first.r :] = -np.eye(first.m)
    M[first.m :, : first.r] = np.eye(second.m)
    return M


@dataclass(frozen=True)
class CouplingVerdict:
    passed: bool
    lmax: float

    def to_dict(self) -> dict:
        return {"passed": self.passed, "lmax": self.lmax}


def coupling_condition(s1: SupplyRate, s2: SupplyRate) -> CouplingVerdict:
    """Dominance-coupling test of the two-system loop: the pure-output part of its supply is <= 0."""
    lmax = float(mc.sym_eigvals(network_supply((s1, s2), _loop_coupling(s1, s2)).Q)[-1])
    return CouplingVerdict(passed=lmax <= LMI_TOL, lmax=lmax)


def closed_loop_certificate(
    sys1: LureSystem,
    c1: DissipativityCertificate,
    sys2: LureSystem,
    c2: DissipativityCertificate,
) -> DominanceCertificate:
    """Block-diagonal dominance certificate for the loop, verified before return.

    Requires a uniform rate, a passing coupling condition and both open-loop
    certificates verified with their claimed p; the storage
    blockdiag(P1, P2) then claims p1 + p2, and the loop's vertex family (one
    vertex when no subsystem has channels) must pass the dominance LMI.
    """
    if c1.rate != c2.rate:
        raise ValueError(f"rates differ: {c1.rate} vs {c2.rate} (uniform rate required)")
    coupling = coupling_condition(c1.supply, c2.supply)
    if not coupling.passed:
        raise CouplingError(f"coupling condition fails (lmax = {coupling.lmax:.3e})")
    for sys, cert in ((sys1, c1), (sys2, c2)):
        if not verify_dissipativity(sys, cert).passed:
            raise CouplingError("an open-loop certificate failed verification")

    P = _block_diagonal((c1.P, c2.P))  # each block passed as_symmetric in its certificate, and p1 + p2 <= n1 + n2
    verdict = _family_verdict(network((sys1, sys2), _loop_coupling(sys1, sys2)), P, c1.rate, c1.p + c2.p, 0.0)
    if not verdict.passed:
        raise CouplingError(f"closed-loop dominance check failed: {verdict.status}")
    epsilon = max(0.0, -verdict.worst_lmax) / 2.0
    return DominanceCertificate(P=P, rate=c1.rate, epsilon=epsilon, p=verdict.p)
