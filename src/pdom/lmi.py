"""Small-scale LMI feasibility engine for storage search.

Feasibility problems are affine in a symmetric unknown P: residual blocks F_j
that must satisfy ``lmax(F_j(P)) <= -epsilon``, optional linear equalities
(such as P B = C^T) and an inertia target. Equalities are eliminated exactly
by parameterizing ``P = P_part + smat(N c)`` over their null space. A primal
log-det barrier method (Boyd, El Ghaoui, Feron & Balakrishnan, 1994, ch. 2;
Vandenberghe & Boyd, SIAM Review, 1996) then takes Newton steps from c = 0 on
``min t s.t. F_j(c) + epsilon I <= t I`` inside the ball ``|c| <= R``, with
``R = 10 max(1, |P_part|_F)`` so that P stays bounded. It stops at the first
iterate that meets every block with margin epsilon, or when the Lagrange dual
bound (``t - m/mu`` at a central point, m the summed block dimensions plus
one) is positive, which proves that no storage in the ball meets the margin.
The start has unit slack on the worst block, and mu starts where the first
centre's gap m/mu is 1 % of the larger of that slack and the start's
violation ``max_j lmax(F_j(P_part)) + epsilon``: a first centre as wide as
the distance t has to fall is discarded once mu grows, and one scaled to the
violation keeps a badly scaled start from a long damped phase. A Newton system
that is singular or overflowed, a step-length eigensolve that fails, and a slack
or ball slack that loses positivity to rounding each end the search, and the final
check decides; a particular solution that overflows is a ``NumericalError``.

Blocks and equality maps take a ``(..., n, n)`` stack of P and return the
stack of their values. The engine calls each block once on ``P_part`` and
once on the stack of all null-space directions ``P_part + smat(N^T)``, and
each equality map once on the stacked basis of symmetric matrices, so the
number of calls does not grow with n. One SVD gives ``P_part`` (lstsq's
minimum-norm solution) and N, N = I when there is no equality; an empty
null space runs the same Newton loop on t alone. Every P the equalities
then accept within ``EQ_TOL`` lies within a radius of ``P_part`` that the
smallest singular value sets, and a failure proves that no storage exists
only when it holds over that whole ball (:func:`_fails_within`). Block values
are checked once; a Newton step is one eigensolve per block, the congruence
and Gram matrix of its generators, and one LU factorization, also serving a
growth of mu.

Success is verifier-gated: callers check every solution with the relevant
module verifier, so the engine can never leak an unverified certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import matrixcore as mc
from .errors import LmiInfeasibleError, NumericalError
from .policy import EQ_TOL, LMI_TOL, ZTOL_REL

__all__ = [
    "LinearEquality",
    "LmiProblem",
    "LmiReport",
    "solve",
    "smat",
]

_SQRT2 = np.sqrt(2.0)
_RADIUS = 10.0  # search ball radius in units of max(1, |P_part|_F)
_MU_GROWTH = 100.0  # barrier weight factor at each centred point
_CENTRED = 0.5  # Newton decrement below which an iterate counts as central
_MAX_STEPS = 500  # guard against numerical stalls; the gap stop comes first


@lru_cache(maxsize=None)
def _svec_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only svec index: the upper triangle's weights (1 or sqrt 2), row by row, and each entry's place."""
    rows, cols = np.triu_indices(n)
    position = np.empty((n, n), dtype=np.intp)
    position[rows, cols] = position[cols, rows] = np.arange(rows.size)
    index = np.where(rows == cols, 1.0, _SQRT2), position
    for array in index:
        array.setflags(write=False)
    return index


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """The symmetric matrix of an orthonormal half-vectorization (the upper triangle row by row, off-diagonal
    entries times sqrt 2, so the Frobenius inner product is a dot product); a stack of vectors (last axis)
    gives a stack of matrices."""
    weight, position = _svec_index(n)
    return (np.asarray(v, dtype=float) / weight)[..., position]


@dataclass(frozen=True)
class LinearEquality:
    """Linear constraint map(P) = rhs, with map linear in P and applied to each P of a stack."""

    map: Callable[[np.ndarray], np.ndarray]
    rhs: np.ndarray


@dataclass(frozen=True)
class LmiProblem:
    """Feasibility data: residual blocks, equalities, inertia target, margin.

    Each block maps a ``(..., n, n)`` stack of symmetric P to the stack of its
    ``(..., k, k)`` values, and each equality map likewise maps a stack of P to
    a stack of values; ``solve`` evaluates them on stacks, so a block written
    for one matrix (``P.T``, ``P[0]``) is not enough. ``epsilon`` must be
    finite and positive.
    """

    dim: int
    blocks: list[Callable[[np.ndarray], np.ndarray]]
    equalities: list[LinearEquality] = field(default_factory=list)
    inertia_target: tuple[int, int, int] | None = None
    epsilon: float = 1e-8

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("an LMI problem needs at least one residual block")
        if not 0 < self.epsilon < np.inf:  # also refuses nan
            raise ValueError("epsilon must be finite and positive for termination detection")


@dataclass(frozen=True)
class LmiReport:
    """Outcome of a search that returned no storage; ``iterations`` counts Newton steps.

    ``gap_bound`` is a lower bound on ``max_j lmax(F_j) + epsilon`` over the
    search ball, and ``free`` the dimension d of the equalities' solution set
    (None when they have no solution). ``pinned`` is true when d = 0 and every
    P the equalities accept within ``EQ_TOL`` fails, as the one they leave
    does; with d = 0 the search's bound speaks of that one P alone, so it is
    kept only when ``pinned``. The report proves infeasibility
    (:attr:`proves_infeasible`) only when the bound is positive, when the
    equalities have no solution, so that no iterate was evaluated and
    ``violation`` is infinite, or when it is ``pinned``.
    """

    iterations: int
    violation: float
    equality_residual: float
    inertia: tuple[int, int, int] | None = None
    message: str = ""
    gap_bound: float | None = None
    free: int | None = None
    pinned: bool = False

    @property
    def proves_infeasible(self) -> bool:
        return self.violation == np.inf or self.pinned or (self.gap_bound is not None and self.gap_bound > 0)

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            # inf when no iterate was evaluated; strict JSON has no infinity
            "violation": self.violation if np.isfinite(self.violation) else None,
            "equality_residual": self.equality_residual,
            "inertia": self.inertia,
            "gap_bound": self.gap_bound,
            "free": self.free,
            "pinned": self.pinned,
            "message": self.message,
        }

    def __str__(self) -> str:
        bound = "" if self.gap_bound is None else f", gap bound {self.gap_bound:.3e}"
        return (
            f"LMI search not found after {self.iterations} iterations "
            f"(violation {self.violation:.3e}, equality residual "
            f"{self.equality_residual:.3e}{bound}{', ' + self.message if self.message else ''})"
        )


def solve(problem: LmiProblem) -> np.ndarray:
    """Find P satisfying every block with margin epsilon, or raise with a report.

    On success the returned P meets every residual block with
    ``lmax <= -epsilon + LMI_TOL``, satisfies all equalities to ``EQ_TOL``
    and matches the inertia target exactly.
    """
    n = problem.dim
    dsym = n * (n + 1) // 2

    # eliminate equality constraints: P = P_part + smat(N c); with none, G has no rows and the SVD gives N = I
    basis = smat(np.eye(dsym), n)
    G = np.vstack([np.zeros((0, dsym))] + [np.asarray(eq.map(basis), dtype=float).reshape(dsym, -1).T
                                            for eq in problem.equalities])
    g = np.concatenate([np.zeros(0)] + [np.asarray(eq.rhs, dtype=float).ravel() for eq in problem.equalities])
    U, sv, Vt = np.linalg.svd(G)
    rank = int(np.sum(sv > max(G.shape) * np.finfo(float).eps * (sv[0] if sv.size else 1.0)))
    with np.errstate(all="ignore"):  # an overflowed solution is refused below, with no warning
        part = Vt[:rank].T @ ((U[:, :rank].T @ g) / sv[:rank])
        eq_residual = float(np.linalg.norm(G @ part - g, np.inf))
    if not (np.isfinite(part).all() and np.isfinite(eq_residual)):
        raise NumericalError("the equalities' particular solution is not finite")
    if eq_residual > EQ_TOL * max(1.0, float(np.linalg.norm(g, np.inf))):
        raise LmiInfeasibleError(
            LmiReport(
                iterations=0,
                violation=np.inf,
                equality_residual=eq_residual,
                message="equality constraints are unsatisfiable",
            )
        )
    N = Vt[rank:].T  # dsym x d; d = 0 leaves the Newton loop t alone
    P_part = smat(part, n)
    d = N.shape[1]
    # with d = 0, |G (p - part)|_2 <= sqrt(rows) (EQ_TOL + eq_residual) for every P the equalities accept: it lies
    # within `pin` of P_part in Frobenius norm (infinite, with no warning, past the float range)
    with np.errstate(over="ignore"):
        pin = float(np.sqrt(g.size) * (EQ_TOL + eq_residual) / sv[-1]) if d == 0 else None

    # S_j(x) = (t - epsilon) I - F_j(c) is affine in x = (c, t): for each block
    # its value at x = 0 and its d + 1 generators, the last one for t
    directions = P_part + smat(N.T, n)
    slacks = []
    for blk in problem.blocks:
        with np.errstate(all="ignore"):
            base = np.asarray(blk(P_part), dtype=float)
            F = np.asarray(blk(directions), dtype=float) - base
            gens = np.concatenate([-0.5 * (F + F.transpose(0, 2, 1)), np.eye(len(base))[None]])
            S0 = -problem.epsilon * np.eye(len(base)) - 0.5 * (base + base.T)
        if not (np.isfinite(S0).all() and np.isfinite(gens).all()):
            raise NumericalError("an LMI block is not finite on the search's affine data")
        slacks.append((S0, gens))
    with np.errstate(over="ignore"):  # a P_part past about 1e154 gets an infinite radius, with no warning
        radius = _RADIUS * max(1.0, float(np.linalg.norm(P_part)))
    block_dims = sum(S0.shape[0] for S0, _ in slacks)

    # start at c = 0 with unit slack on the worst block; the first centre's gap
    # (block_dims + 1) / mu is 1 % of that slack or of the start's violation,
    # whichever is larger
    violation = -min(float(mc.sym_eigen(S0)[0][0]) for S0, _ in slacks)
    x = np.zeros(d + 1)
    x[-1] = 1.0 + violation
    # a violation past about 2^53 absorbs the unit slack: the start has none, and the first step ends the search
    stall = ("barrier search ended without a storage" if x[-1] - violation > 0
             else f"the start's unit slack rounded away against its violation {violation:.3e}")
    mu = _MU_GROWTH * (block_dims + 1) / max(1.0, violation)
    bound = None
    # the step's large arrays, allocated once: a fresh one each step costs its page faults
    work = [(np.empty(gens.shape), np.empty(gens.shape)) for _, gens in slacks]
    hess = np.empty((d + 1, d + 1))
    # one errstate for the whole loop, not one per step: a Newton system that overflows ends it below as a stall
    with np.errstate(all="ignore"):
        for iterations in range(1, _MAX_STEPS + 1):
            c, t = x[:-1], x[-1]
            spectra = [mc.sym_eigen(S0 + (x @ gens.reshape(d + 1, -1)).reshape(S0.shape)) for S0, gens in slacks]
            lowest = min(s[0] for s, _ in spectra)
            rho = radius * radius - c @ c
            # t - lowest is max_j lmax(F_j(c)) + epsilon; a slack, or the ball's
            # slack rho, that is not positive has lost definiteness to rounding
            if t - lowest < 0 or lowest <= 0 or rho <= 0:
                break
            grad = np.zeros(d + 1)
            hess[...] = 0.0
            for (s, U), (_, gens), (GL, D) in zip(spectra, slacks, work):
                # congruence by S^{-1/2}, into D: gradient -tr, Hessian the Gram matrix
                L = U / np.sqrt(s)
                flat = np.matmul(L.T, np.matmul(gens, L, out=GL), out=D).reshape(d + 1, -1)
                grad -= flat[:, :: s.size + 1].sum(axis=1)
                hess += flat @ flat.T
            grad[:-1] += 2.0 * c / rho
            hess[:-1, :-1] += (4.0 / rho**2) * np.outer(c, c)
            hess.flat[: d * (d + 1) : d + 2] += 2.0 / rho
            grad[-1] += mu
            if not (np.isfinite(hess).all() and np.isfinite(grad).all()):
                break  # an overflowed Newton system is a numerical stall, as a singular one is
            # one factorization for the step at mu and for the change of step per unit of mu
            rhs = np.zeros((d + 1, 2))
            rhs[:, 0], rhs[-1, 1] = -grad, -1.0
            try:
                step, per_mu = np.linalg.solve(hess, rhs).T
            except np.linalg.LinAlgError:
                break  # a singular Hessian is a numerical stall, as a slack that loses definiteness is
            decrement = float(np.sqrt(max(-grad @ step, 0.0)))
            if decrement < _CENTRED:
                if (block_dims + 1) / mu < LMI_TOL:
                    break  # the gap is inside the acceptance slack: _finalize decides
                grad[-1] += (_MU_GROWTH - 1.0) * mu
                step = step + (_MU_GROWTH - 1.0) * mu * per_mu
                mu *= _MU_GROWTH
                decrement = float(np.sqrt(max(-grad @ step, 0.0)))
            try:  # along the step each slack moves as S^{1/2} (I + a D_j) S^{1/2}
                sigma = np.concatenate([np.linalg.eigvalsh((step @ D.reshape(d + 1, -1)).reshape(D[0].shape))
                                        for _, D in work])
            except np.linalg.LinAlgError:
                break  # an eigensolve that does not converge is a numerical stall, as a singular Hessian is
            dc = step[:-1]
            if sigma.max() <= 1.0:
                # Z_j = S_j^{-1/2} (I - D_j) S_j^{-1/2} / mu is dual feasible, and
                # z_k = sum_j <Z_j, dF_j/dc_k> follows from the Newton equations
                z = -(2.0 * (c + dc) + (4.0 / rho) * c * (c @ dc)) / (rho * mu)
                bound = t - c @ z - (block_dims - sigma.sum()) / mu - radius * float(np.linalg.norm(z))
                if bound > 0:
                    break
            # backtrack on mu t - sum log det S_j - log(R^2 - |c|^2) along the step
            a, c_dc, dc_dc, sigma_min = 1.0, c @ dc, dc @ dc, sigma.min()
            for _ in range(60):
                ball = 1.0 - (2.0 * a * c_dc + a * a * dc_dc) / rho
                if ball > 0 and a * sigma_min > -1.0:
                    if mu * a * step[-1] - np.log1p(a * sigma).sum() - np.log(ball) <= -0.25 * a * decrement**2:
                        break
                a *= 0.5
            x = x + a * step

    P = P_part + smat(N @ x[:-1], n)
    P = 0.5 * (P + P.T)
    return _finalize(problem, P, iterations, bound, d, stall, pin)


def _finalize(problem: LmiProblem, P: np.ndarray, iterations: int, bound: float | None, free: int,
              stall: str, pin: float | None) -> np.ndarray:
    """P, if it meets every block, equality and the inertia target; otherwise the one failure report, with ``stall``
    its message when nothing proves the failure. ``pin`` (d = 0 only) holds every P the equalities accept."""
    tops = [float(mc.sym_eigvals(np.asarray(blk(P), dtype=float))[-1]) + problem.epsilon for blk in problem.blocks]
    worst = max(tops)
    actual_eq = _equality_residual(problem, P)
    inertia = mc.inertia_of(P).as_tuple()
    target = None if problem.inertia_target is None else tuple(problem.inertia_target)
    meets = worst <= LMI_TOL and actual_eq <= EQ_TOL  # NaN fails
    wrong_inertia = target is not None and inertia != target
    if meets and not wrong_inertia:
        return P
    pinned = pin is not None and _fails_within(problem, P, tops, pin, wrong_inertia)
    if pin is not None and not pinned:
        bound = None  # it bounds P alone, and a P the equalities accept nearby may pass
    if not meets:
        message = ("no storage in the search ball meets the margin" if bound is not None and bound > 0
                   else "every P the equalities accept fails, as the one they leave does" if pinned else stall)
    else:
        message, bound = f"blocks satisfied but inertia {inertia} != target {target}", None
    raise LmiInfeasibleError(LmiReport(iterations=iterations, violation=worst, equality_residual=actual_eq,
                                       inertia=inertia, message=message, gap_bound=bound, free=free, pinned=pinned))


def _fails_within(problem: LmiProblem, P: np.ndarray, tops: list[float], pin: float, wrong_inertia: bool) -> bool:
    """Whether every symmetric P' within ``pin`` of P (Frobenius norm) fails: some block by more than LMI_TOL, or,
    when P's inertia misses the target, the inertia.

    ``tops`` are P's ``lmax(F_j) + epsilon``. Block j is affine, so over the ball it moves by at most the Frobenius
    norm of its changes along ``pin`` times the orthonormal svec basis. Each eigenvalue of P moves by at most ``pin``
    and the inertia's zero band by ``ZTOL_REL pin``, so none farther than ``pin (1 + ZTOL_REL)`` from the band's edge
    changes class.
    """
    n = problem.dim
    with np.errstate(all="ignore"):  # an overflowed reach or margin fails the comparisons, with no warning
        steps = P + pin * smat(np.eye(n * (n + 1) // 2), n)
        reach = [np.linalg.norm(np.asarray(blk(steps), dtype=float) - np.asarray(blk(P), dtype=float))
                 for blk in problem.blocks]
        if max(top - r for top, r in zip(tops, reach)) > LMI_TOL:
            return True
    if not wrong_inertia:
        return False
    spectrum = mc.sym_eigvals(P)
    ztol = ZTOL_REL * max(1.0, float(np.abs(spectrum).max()))  # Inertia.of_spectrum's zero band
    return float(np.abs(np.abs(spectrum) - ztol).min()) > pin * (1.0 + ZTOL_REL)


def _equality_residual(problem: LmiProblem, P: np.ndarray) -> float:
    worst = 0.0
    for eq in problem.equalities:
        value = np.asarray(eq.map(P), dtype=float)
        worst = max(worst, float(np.max(np.abs(value - np.asarray(eq.rhs, dtype=float)))))
    return worst
