"""Differential dominance of Lur'e systems via vertex relaxation.

The model (:class:`LureSystem`, its channels and nonlinearities) lives in
:mod:`pdom.model` and is re-exported here. Every state Jacobian
``A + sum_i g_i sigma_i'(h_i^T x) h_i^T`` lies in the convex hull of the
finite family obtained by pinning each slope to its bounds, so a uniform
storage that passes the dominance (or dissipation) LMI on every vertex
certifies the differential property over the whole state space. Only
constant storages are handled. The 2^k vertices of a k-channel model are
held as one ``(2^k, n, n)`` array and checked with one stacked eigensolve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from .dissipativity import SupplyRate, dissipation_blocks
from .errors import DimensionError
from .lti import DominanceVerdict, _check_finite, _split_counts, _verify_blocks, residual
from .model import Channel, LureSystem, Nonlinearity, _ValueEquality, cubic_saturated, scaled, tabulated

__all__ = [
    "Nonlinearity",
    "cubic_saturated",
    "scaled",
    "tabulated",
    "Channel",
    "LureSystem",
    "VertexFamily",
    "VertexVerdict",
    "DifferentialVerdict",
    "hull_points",
    "jacobian",
    "vertex_family",
    "check_diff_dominance",
    "check_diff_dissipativity",
    "vertex_verdicts",
]


@dataclass(frozen=True, eq=False)
class VertexFamily(_ValueEquality):
    """Slope-corner matrices whose convex hull contains every state Jacobian.

    ``matrices`` is a ``(2^k, n, n)`` array whose ``i``-th matrix has the slopes
    ``corners[i]``, in ``itertools.product`` order over the channels.
    """

    matrices: np.ndarray
    corners: tuple[tuple[float, ...], ...]

    def __len__(self) -> int:
        return len(self.matrices)

    def to_dict(self) -> dict:
        return {"matrices": self.matrices.tolist(), "corners": [list(c) for c in self.corners]}


def hull_points(sys: LureSystem, slopes) -> np.ndarray:
    """``A + sum_i s_i g_i h_i^T`` for each row s of the ``(N, k)`` slopes, as an ``(N, n, n)`` stack.

    The channel terms are added one channel at a time, in channel order.
    """
    slopes = np.asarray(slopes, dtype=float)
    J = np.repeat(sys.A[None], slopes.shape[0], axis=0)
    for i, ch in enumerate(sys.channels):
        J += slopes[:, i, None, None] * np.outer(ch.g, ch.h)
    return J


def jacobian(sys: LureSystem, x) -> np.ndarray:
    """State Jacobian A + sum_i g_i sigma_i'(h_i^T x) h_i^T.

    On the measure-zero set where a channel argument hits a kink (listed by
    ``sigma.kinks``) the left derivative is used; the vertex checks depend
    only on the slope bounds, so this choice never affects a verdict.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != sys.n:
        raise DimensionError("state dimension mismatch")
    return hull_points(sys, [[float(ch.sigma.derivative(float(ch.h @ x))) for ch in sys.channels]])[0]


def vertex_family(sys: LureSystem) -> VertexFamily:
    """All sign-corner substitutions of the channel slopes into the Jacobian."""
    for ch in sys.channels:
        if not (np.isfinite(ch.alpha) and np.isfinite(ch.beta)):
            raise ValueError("vertex relaxation needs finite slope bounds")
    ranges = [(float(ch.alpha), float(ch.beta)) for ch in sys.channels]
    corners = tuple(itertools.product(*ranges))
    return VertexFamily(matrices=hull_points(sys, corners), corners=corners)


@dataclass(frozen=True)
class VertexVerdict:
    corner: tuple[float, ...]
    verdict: DominanceVerdict
    split_ok: bool  # does this vertex have exactly p unstable eigenvalues at the rate


@dataclass(frozen=True, eq=False)
class DifferentialVerdict(_ValueEquality):
    """Uniform vertex check outcome, with per-vertex witnesses."""

    passed: bool
    p: int
    rate: float
    vertices: tuple[VertexVerdict, ...]
    worst_lmax: float

    @property
    def failing_corners(self) -> tuple[tuple[float, ...], ...]:
        return tuple(v.corner for v in self.vertices if not v.verdict.passed)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "p": self.p,
            "rate": self.rate,
            "worst_lmax": self.worst_lmax,
            "vertices": [
                {
                    "corner": list(v.corner),
                    "passed": v.verdict.passed,
                    "lmax": v.verdict.lmax_residual,
                    "split_ok": v.split_ok,
                }
                for v in self.vertices
            ],
        }


def vertex_verdicts(
    sys: LureSystem,
    P,
    lam: float,
    p: int | None = None,
    supply: SupplyRate | None = None,
    epsilon: float = 0.0,
) -> tuple[VertexFamily, list[DominanceVerdict]]:
    """Kernel verdicts of the storage P, claiming p, on every vertex of sys.

    Without a supply each vertex gets the dominance residual and must clear
    the margin ``epsilon``; with one it gets the dissipation block, which
    carries ``epsilon`` itself. A channel-free model has the one vertex A.
    When ``p`` is omitted it is read from P's inertia, and a storage with an
    eigenvalue in the zero band is refused as an ill-posed claim.
    """
    P = mc.as_symmetric(P)
    inertia = mc.inertia_of(P)
    if p is None:
        if inertia.zero != 0:
            raise ValueError("storage has eigenvalues inside the zero band; claim is ill-posed")
        p = inertia.negative
    family = vertex_family(sys)
    if supply is None:
        return family, _verify_blocks(residual(family.matrices, P, lam), inertia, p, epsilon)
    blocks = dissipation_blocks(family.matrices, sys, P, lam, supply, epsilon)
    return family, _verify_blocks(blocks, inertia, p, 0.0)


def _differential_verdict(sys, P, lam, p, supply, epsilon) -> DifferentialVerdict:
    _check_finite(lam, epsilon)
    family, verdicts = vertex_verdicts(sys, P, lam, p, supply, epsilon)
    if p is None:
        p = verdicts[0].inertia.negative
    _, unstable, conclusive = _split_counts(family.matrices, lam)
    split_ok = (conclusive & (unstable == p)).tolist()
    return DifferentialVerdict(
        passed=all(v.passed for v in verdicts),
        p=p,
        rate=lam,
        vertices=tuple(map(VertexVerdict, family.corners, verdicts, split_ok)),
        worst_lmax=max(v.lmax_residual for v in verdicts),
    )


def check_diff_dominance(
    sys: LureSystem,
    P,
    lam: float,
    *,
    p: int | None = None,
    epsilon: float = 0.0,
) -> DifferentialVerdict:
    """Differential p-dominance via the vertex relaxation.

    Passes when every vertex matrix satisfies the dominance LMI with the
    shared (P, lam) and margin ``epsilon``, and P has inertia (p, 0, n-p);
    an omitted p is read from P. Each vertex also reports whether it has
    exactly p unstable eigenvalues at this rate, which is what forces the
    storage inertia to (p, 0, n-p).
    """
    return _differential_verdict(sys, P, lam, p, None, epsilon)


def check_diff_dissipativity(
    sys: LureSystem,
    P,
    lam: float,
    supply: SupplyRate,
    epsilon: float = 0.0,
    *,
    p: int | None = None,
) -> DifferentialVerdict:
    """Differential p-dissipativity via per-vertex composite blocks.

    Builds the (n+m) block of the open-system test with each vertex matrix
    substituted for A and requires all of them to be negative semidefinite,
    with P of inertia (p, 0, n-p); an omitted p is read from P.
    """
    return _differential_verdict(sys, P, lam, p, supply, epsilon)
