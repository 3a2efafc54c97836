"""Differential dominance of Lur'e systems via vertex relaxation.

The model (:class:`LureSystem`, its channels and nonlinearities) and
:func:`vertex_family`, which returns a model's corner matrices as one
``(2^k, n, n)`` array, live in :mod:`pdom.model`
and are re-exported here. Every state Jacobian
``A + sum_i g_i sigma_i'(h_i^T x) h_i^T`` lies in the convex hull of the
finite family obtained by pinning each slope to its bounds, so a uniform
storage that passes the dominance (or dissipation) LMI on every vertex
certifies the differential property over the whole state space. Only
constant storages are handled. The 2^k vertices of a k-channel model are
checked with one stacked eigensolve.

The certificate checks :func:`pdom.lti.check_dominance` and
:func:`pdom.dissipativity.verify_dissipativity` run the same vertex check;
the two here take a bare storage, read p from its inertia and claim no margin.
"""

from __future__ import annotations

from . import matrixcore as mc
from .dissipativity import SupplyRate
from .lti import DifferentialVerdict, _check_claim, _family_verdict
from .model import (
    Channel,
    LureSystem,
    Nonlinearity,
    cubic_saturated,
    hull_points,
    scaled,
    tabulated,
    vertex_family,
)

__all__ = [
    "Nonlinearity",
    "cubic_saturated",
    "scaled",
    "tabulated",
    "Channel",
    "LureSystem",
    "DifferentialVerdict",
    "hull_points",
    "vertex_family",
    "check_diff_dominance",
    "check_diff_dissipativity",
]


def check_diff_dominance(sys: LureSystem, P, lam: float) -> DifferentialVerdict:
    """Differential p-dominance via the vertex relaxation, p read from P's inertia.

    Passes when every vertex matrix satisfies the dominance LMI with the
    shared (P, lam) at margin 0; a stated p or margin is a certificate's
    (:func:`pdom.lti.check_dominance`).
    """
    P = mc.as_symmetric(P)
    _check_claim(lam, 0, 0)  # the rate alone: p is read from P
    return _family_verdict(sys, P, lam, None, 0.0)


def check_diff_dissipativity(sys: LureSystem, P, lam: float, supply: SupplyRate) -> DifferentialVerdict:
    """Differential p-dissipativity via per-vertex composite blocks, p read from P's inertia.

    Builds the (n+m) block of the open-system test with each vertex matrix
    substituted for A and requires all of them to be negative semidefinite
    at margin 0; a stated p or margin is a certificate's
    (:func:`pdom.dissipativity.verify_dissipativity`).
    """
    P = mc.as_symmetric(P)
    _check_claim(lam, 0, 0)
    return _family_verdict(sys, P, lam, None, 0.0, supply)
