"""Dominance machinery and the verification kernel shared by every verifier.

A system is p-dominant with rate ``lam >= 0`` when some symmetric storage P
with inertia (p, 0, n-p) makes ``A^T P + P A + 2 lam P`` negative definite;
a Lur'e model needs it at every vertex of its slope family, and a linear one
is the family of the one vertex A. Every verifier returns the family verdict
built here, on the residual stack alone or with the supply terms of
:func:`dissipation_blocks` around it. This module also runs the equivalent eigenvalue-splitting test,
whose verdict keeps the one unsorted Schur form of A it read, and forms each certificate on it, reordered.
``LtiSystem`` is the channel-free use of the one model, :class:`LureSystem`.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import matrixcore as mc
from .errors import DimensionError, NumericalError
from .model import LureSystem as LtiSystem, _json_object, _ValueEquality, as_model, state_matrix, vertex_family
from .policy import LMI_TOL, RECON_TOL, SPLIT_TOL

__all__ = [
    "LtiSystem",
    "DominanceCertificate",
    "VertexVerdict",
    "DifferentialVerdict",
    "SplitVerdict",
    "residual",
    "dissipation_blocks",
    "check_dominance",
    "eigen_split_test",
    "construct_certificate",
]


@dataclass(frozen=True, eq=False)
class DominanceCertificate(_ValueEquality):
    """Storage matrix P plus rate and margin witnessing p-dominance.

    P is held to :func:`pdom.matrixcore.as_symmetric` and the claim to :func:`_check_claim` on
    construction, a p of None included: a certificate states its p, and the checks take them as
    given. A subclass adds fields (the dissipativity certificate adds its supply) and inherits this.
    """

    P: np.ndarray
    rate: float
    epsilon: float
    p: int

    def __post_init__(self):
        object.__setattr__(self, "P", mc.as_symmetric(self.P))  # an array of its own
        self.P.setflags(write=False)
        _check_claim(self.rate, self.p, self.P.shape[0], self.epsilon)
        for attr, cast in (("rate", float), ("epsilon", float), ("p", int)):
            object.__setattr__(self, attr, cast(getattr(self, attr)))

    def to_dict(self) -> dict:
        return {"P": self.P.tolist(), "lambda": self.rate, "epsilon": self.epsilon, "p": self.p}

    @classmethod
    def from_dict(cls, data: dict, **fields) -> "DominanceCertificate":
        """Decode the claim; ``fields`` are a subclass's own, already decoded."""
        data = _json_object(data, "a certificate")
        return cls(P=np.asarray(data["P"], dtype=float), rate=data["lambda"], epsilon=data.get("epsilon", 0.0),
                   p=data["p"], **fields)


@dataclass(frozen=True)
class VertexVerdict:
    """One vertex's outcome."""

    corner: tuple[float, ...]  # () for the one vertex of a channel-free model
    passed: bool
    status: str  # "pass" | "inertia_mismatch" | "residual_violation"
    lmax: float
    split_ok: bool | None  # exactly p unstable eigenvalues at the rate; None without channels


@dataclass(frozen=True, eq=False)
class DifferentialVerdict:
    """The verdict of every verifier: a storage checked on each vertex of a model's family.

    The per-vertex outcomes are kept as columns, one row per vertex in family
    order: ``vertex_passed``, ``lmax`` (each block's top eigenvalue) and
    ``split_ok`` (None without channels), read-only arrays of their own. The
    corners, in that order, are ``itertools.product(*bounds)`` over each
    channel's ``(alpha, beta)`` as floats (:func:`pdom.model.vertex_family`).
    ``vertices``, one :class:`VertexVerdict` record per row, is built when
    first read, and ``==`` compares the claim (``passed``, ``p``, ``rate``,
    ``inertia``), the bounds and the columns.
    ``status`` is "pass", or the status every failing vertex shares. On a
    residual failure the verdict keeps the block of the failing vertex with
    the largest ``lmax`` (``witness_corner``), outside ``==``; ``witness``,
    its top eigenvector, is solved when read, as ``to_dict`` reads it.
    """

    passed: bool
    p: int
    rate: float
    inertia: mc.Inertia  # the storage's, shared by every vertex
    bounds: tuple[tuple[float, float], ...]
    vertex_passed: np.ndarray
    lmax: np.ndarray
    split_ok: np.ndarray | None
    witness_block: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def status(self) -> str:
        if self.passed:
            return "pass"
        # a storage without the claimed inertia fails every vertex on it; otherwise only the residual fails
        return "residual_violation" if self.inertia.matches(self.p) else "inertia_mismatch"

    @property
    def worst_lmax(self) -> float:
        return float(self.lmax[self.lmax.argmax()])

    @property
    def witness(self) -> np.ndarray | None:
        """The unit v with ``v^T B v = lmax(B)``, B the witness vertex's block; None unless a residual failure."""
        return None if self.witness_block is None else mc.sym_eigen(self.witness_block)[1][:, -1]

    @property
    def witness_corner(self) -> tuple[float, ...] | None:
        """The corner of the failing vertex with the largest ``lmax`` (the first such); None unless a residual failure.

        With the claimed inertia every failing vertex tops every passing one, so it is the first argmax of ``lmax``.
        """
        # vertex i takes channel c's beta when bit k - 1 - c of i is set: i's k binary digits, in channel order
        return None if self.witness_block is None else tuple(
            bound[int(bit)] for bit, bound in zip(f"{self.lmax.argmax():0{len(self.bounds)}b}", self.bounds))

    def _rows(self):
        """Each vertex's (corner, passed, status, lmax, split_ok) as plain Python values, in family order."""
        status = self.status
        splits = [None] * len(self.lmax) if self.split_ok is None else self.split_ok.tolist()
        corners = itertools.product(*self.bounds)  # one float object per bound (-0.0 stays -0.0); () without channels
        for corner, ok, top, split in zip(corners, self.vertex_passed.tolist(), self.lmax.tolist(), splits):
            yield corner, ok, "pass" if ok else status, top, split

    @functools.cached_property
    def vertices(self) -> tuple[VertexVerdict, ...]:
        return tuple(VertexVerdict(*row) for row in self._rows())

    def __eq__(self, other):
        # the claim, the bounds and the three columns (a None split_ok equals only None); the summaries derive from them
        return (type(other) is type(self)
                and (self.passed, self.p, self.rate, self.inertia) == (other.passed, other.p, other.rate, other.inertia)
                and all(np.array_equal(getattr(self, column), getattr(other, column))
                        for column in ("bounds", "vertex_passed", "lmax", "split_ok")))

    __hash__ = None

    def to_dict(self) -> dict:
        vertices = [
            {"corner": list(corner), "passed": ok, "status": status, "lmax": top,
             "witness_eigenvalue": top if status == "residual_violation" else None, "split_ok": split}
            for corner, ok, status, top, split in self._rows()
        ]
        witness, corner = self.witness, self.witness_corner
        return {"passed": self.passed, "status": self.status, "p": self.p, "rate": self.rate,
                "inertia": self.inertia.as_tuple(), "worst_lmax": self.worst_lmax, "vertices": vertices,
                "witness": None if witness is None else witness.tolist(),
                "witness_corner": None if corner is None else list(corner)}


@dataclass(frozen=True)
class SplitVerdict:
    """Outcome of the eigenvalue-splitting test at a given rate."""

    status: str  # "pass" | "fail" | "inconclusive"
    margin: float
    unstable_count: int
    requested_p: int
    # A's unsorted real Schur form (T, Z) the spectrum was read off, which the construction reorders; not reported
    schur: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {"status": self.status, "margin": self.margin, "unstable_count": self.unstable_count,
                "requested_p": self.requested_p}


def residual(A, P, lam: float) -> np.ndarray:
    """Dominance LMI residual ``A^T P + P A + 2 lam P`` (symmetric).

    A ``(k, n, n)`` stack A gives the stack of residuals; its entries are
    checked with the blocks (:func:`pdom.matrixcore.sym_eigvals`). P may be a
    ``(..., n, n)`` stack that broadcasts against A; each of its matrices
    passes :func:`pdom.matrixcore.as_symmetric`'s finite and symmetry checks.
    """
    A = np.asarray(A, dtype=float) if np.ndim(A) == 3 else mc.as_matrix(A)
    P = mc.as_symmetric(P)
    if A.shape[-2:] != P.shape[-2:]:
        raise DimensionError("A and P must share dimensions")
    return _residual(A, P, lam)


def _residual(A: np.ndarray, P: np.ndarray, lam: float) -> np.ndarray:
    """:func:`residual`'s arithmetic, on A and P that its checks would pass."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow stays non-finite: the block check refuses it
        R = A.swapaxes(-1, -2) @ P + P @ A + 2.0 * lam * P
        return 0.5 * (R + R.swapaxes(-1, -2))


def dissipation_blocks(R, sys, P, supply, epsilon: float = 0.0) -> np.ndarray:
    """The supply terms around each residual of a ``(k, n, n)`` stack R, as composite (n+m) blocks.

    With R a residual ``J^T P + P J + 2 lam P`` (:func:`residual`) and the
    supply's forms Q, L and S = ``supply.R``:
    top-left: R - C^T Q C + eps I;
    off-diagonal: P B - C^T L - C^T Q D;
    bottom-right: -D^T Q D - L^T D - D^T L - S.

    Returns the ``(k, n+m, n+m)`` stack; the parts that do not involve R are
    formed once.
    """
    P = mc.as_symmetric(P)
    if P.shape[0] != sys.n:
        raise DimensionError("storage dimension does not match the system")
    if supply.r != sys.r or supply.m != sys.m:
        raise DimensionError("supply channel dimensions do not match the system")
    return _dissipation_blocks(R, sys, P, supply, epsilon)


def _dissipation_blocks(R, sys, P: np.ndarray, supply, epsilon: float) -> np.ndarray:
    """:func:`dissipation_blocks`' arithmetic, on a P that its checks would pass."""
    B, C, D = sys.B, sys.C, sys.D
    Q, L = supply.Q, supply.L
    n = sys.n
    blocks = np.empty((len(R), n + sys.m, n + sys.m))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow stays non-finite: the block check refuses it
        off_diag = P @ B - C.T @ L - C.T @ Q @ D
        blocks[:, :n, :n] = R - C.T @ Q @ C + epsilon * np.eye(n)
        blocks[:, :n, n:] = off_diag
        blocks[:, n:, :n] = off_diag.T
        blocks[:, n:, n:] = -(D.T @ Q @ D) - L.T @ D - D.T @ L - supply.R
        return 0.5 * (blocks + blocks.swapaxes(-1, -2))


_FLOAT_MAX = float(np.finfo(float).max)


def _check_claim(lam: float, p: int, n: int, epsilon: float = 0.0) -> None:
    """The one claim rule: a finite, nonnegative rate and margin, and an integer p in [0, n].

    None and a bool are neither integers nor numbers.
    """
    for name, value in (("rate", lam), ("epsilon", epsilon)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not (abs(value) <= _FLOAT_MAX if isinstance(value, int) else np.isfinite(value)):  # ints may pass floats
            raise ValueError(f"{name} must be finite, got {value}")
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        raise ValueError(f"claimed dominant dimension must be an integer, got {p!r}")
    if not 0 <= p <= n:
        raise ValueError(f"claimed dominant dimension {p} outside [0, {n}]")


def _vertex_splits(matrices, lam: float, p: int, inertia: mc.Inertia, negative: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Whether each vertex J has exactly p unstable eigenvalues at the rate, read off its residual.

    ``inertia`` is P's inertia, and ``negative`` and ``positive`` mark the
    vertices whose residual ``R = J^T P + P J + 2 lam P`` is definite with
    margin: ``R + delta I < 0`` and ``R - delta I > 0``, where ``delta``
    is at least ``2 SPLIT_TOL ||P||_2 + RECON_TOL ||R||_2``. For an
    eigenvector v of J with eigenvalue mu, ``v^H R v = 2 Re(mu + lam) v^H P v``,
    so such an R puts every shifted eigenvalue more than ``SPLIT_TOL`` off
    the axis, the split test's own margin (the second term of ``delta``
    covers the rounding of R's spectrum); by the Lyapunov inertia theorem
    ``J + lam I`` then has as many unstable eigenvalues as P has negative ones
    (R < 0) or positive ones (R > 0). Both terms scale with P, so P and any
    positive multiple of it get the same answer. Every other vertex, and
    every vertex when P has an eigenvalue in the zero band, goes to
    :func:`_split_rule`, its spectra from :func:`pdom.matrixcore.eigvals`.
    """
    split_ok = (negative & (inertia.negative == p)) | (positive & (inertia.positive == p))
    undecided = ~(negative | positive) | (inertia.zero > 0)
    if undecided.any():
        _, unstable, conclusive = _split_rule(mc.eigvals(matrices[undecided]).real + lam)
        split_ok[undecided] = conclusive & (unstable == p)
    return split_ok


def _family_verdict(sys: LtiSystem, P, lam: float, p: int | None, epsilon: float, supply=None) -> DifferentialVerdict:
    """The one verdict path: the storage P, claiming p, on every vertex of the model ``sys``.

    Inputs are validated where they enter, and this kernel takes them as given: P passed
    :func:`pdom.matrixcore.as_symmetric` and the claim :func:`_check_claim` in a certificate's
    constructor or in the bare-storage check that called it. It checks only that P and the supply
    fit the model, and the block stack it forms. A Lur'e model's vertices are its slope corners,
    each one's ``split_ok`` read off its residual (:func:`_vertex_splits`); a channel-free model is
    the one vertex A at the empty corner, with ``split_ok`` None. The residual stack R is formed
    once; with a ``supply``, :func:`dissipation_blocks` builds the blocks around it, carrying
    ``epsilon`` themselves. The block stack is checked once, in place, and solved for eigenvalues
    alone; a residual block has P's shape, so P is solved in that call, on the stack ``[P, R]``.
    A vertex passes when P has the claimed inertia (p, 0, n - p) and ``lmax(block) <= -epsilon +
    LMI_TOL`` (``<= LMI_TOL`` for a dissipation block). R's definiteness margins come from the
    block spectra when R is the block stack, or else off the pivots of ``-R - delta I`` and
    ``R - delta I`` (:func:`pdom.matrixcore.positive_definite` with shift ``delta``, taking
    ``||R||_F >= ||R||_2``). The verdict's columns are read-only. A residual failure keeps a copy
    of the block with the largest ``lmax``, whose eigenvector the verdict solves only when its
    ``witness`` is read. An omitted p is read from P's inertia; a storage with an eigenvalue in the
    zero band is then a ValueError.
    """
    channels = bool(as_model(sys).channels)
    if P.shape != (sys.n, sys.n) or supply is not None and (supply.r, supply.m) != (sys.r, sys.m):
        raise DimensionError("storage or supply dimensions do not match the system")
    matrices = vertex_family(sys) if channels else sys.A[None]
    if supply is None:
        stack = np.concatenate((P[None], _residual(matrices, P, lam)))
        spectra = mc.sym_eigvals(stack)
        storage, eigenvalues, stack = spectra[0], spectra[1:], stack[1:]
    else:
        R = _residual(matrices, P, lam)
        stack = _dissipation_blocks(R, sys, P, supply, epsilon)
        storage, eigenvalues = np.linalg.eigvalsh(P), mc.sym_eigvals(stack)  # P was checked where it entered
    inertia = mc.Inertia.of_spectrum(storage)
    if p is None:
        if inertia.zero != 0:
            raise ValueError("storage has eigenvalues inside the zero band; claim is ill-posed")
        p = inertia.negative
    inertia_ok = inertia.matches(p)
    lmax = eigenvalues[:, -1].copy()  # a column of its own: the verdict keeps no spectrum alive
    passed = (lmax <= (-epsilon if supply is None else 0.0) + LMI_TOL) & inertia_ok
    all_passed = bool(passed.all())
    # with the claimed inertia every failing vertex tops every passing one: the witness is the first argmax
    witness_block = stack[lmax.argmax()].copy() if inertia_ok and not all_passed else None
    del stack  # a dissipation stack is read no further, and its memory serves the split masks
    split_ok, bounds = None, ()
    if channels:
        bounds = tuple((float(ch.alpha), float(ch.beta)) for ch in sys.channels)
        floor = 2.0 * SPLIT_TOL * abs(storage).max()
        if supply is None:
            lmin = eigenvalues[:, 0]
            delta = floor + RECON_TOL * np.maximum(abs(lmin), abs(lmax))
            negative, positive = lmax < -delta, lmin > delta
        else:
            delta = floor + RECON_TOL * mc.frobenius(R)
            # R's mask first: -R then reuses the pages of the copy it freed, where the other order faults in fresh ones
            positive, negative = mc.positive_definite(R, delta), mc.positive_definite(-R, delta)
        split_ok = _vertex_splits(matrices, lam, p, inertia, negative, positive)
        split_ok.setflags(write=False)
    passed.setflags(write=False)
    lmax.setflags(write=False)
    return DifferentialVerdict(passed=all_passed, p=p, rate=lam, inertia=inertia, bounds=bounds, vertex_passed=passed,
                               lmax=lmax, split_ok=split_ok, witness_block=witness_block)


def check_dominance(sys: LtiSystem, cert: DominanceCertificate) -> DifferentialVerdict:
    """Verify a dominance certificate on every vertex: residual definiteness plus inertia.

    Passes when each vertex has ``lmax(residual) <= -epsilon + LMI_TOL`` and P
    has inertia (p, 0, n - p).
    """
    return _family_verdict(sys, cert.P, cert.rate, cert.p, cert.epsilon)


def _split_rule(shifted: np.ndarray):
    """The one split rule, on the real parts ``shifted`` (last axis) of each spectrum of ``A + lam I``.

    Returns per spectrum its distance from the imaginary axis, its unstable count, and whether
    every eigenvalue clears ``SPLIT_TOL`` (inconclusive if not).
    """
    margin = np.min(np.abs(shifted), axis=-1, initial=np.inf)
    unstable = np.sum(shifted > SPLIT_TOL, axis=-1)
    conclusive = unstable + np.sum(shifted < -SPLIT_TOL, axis=-1) == shifted.shape[-1]
    return margin, unstable, conclusive


def eigen_split_test(sys: LtiSystem, lam: float, p: int) -> SplitVerdict:
    """Spectral test: does ``A + lam I`` have exactly p strictly unstable eigenvalues?

    Returns "inconclusive" (distinct from "fail") when any shifted eigenvalue
    sits within ``SPLIT_TOL`` of the imaginary axis, on the spectrum of A's unsorted real Schur form,
    which the verdict carries for :func:`construct_certificate` to split. A rate that is not finite
    and nonnegative, or a p outside [0, n], is a ``ValueError``.
    """
    A = state_matrix(sys)
    _check_claim(lam, p, A.shape[0])
    T, Z, spectrum = mc._real_schur(A)
    margin, unstable, conclusive = (v.item() for v in _split_rule(spectrum.real + lam))
    status = ("pass" if unstable == p else "fail") if conclusive else "inconclusive"
    return SplitVerdict(status, margin, unstable, p, schur=(T, Z))


def construct_certificate(sys: LtiSystem, lam: float, p: int) -> DominanceCertificate:
    """Build a dominance certificate from A's one factorization for the claim (lam, p).

    :func:`eigen_split_test` factors A and decides the claim; :func:`pdom.matrixcore.schur_split` reorders
    its Schur form to ``A = Q T Q^T``, which puts the unstable eigenvalues of ``A + lam I`` in the leading
    p x p Schur block T1 and the stable ones in T2; for 0 < p < n one ``trsyl``, ``T1 Y - Y T2 = -T12``,
    decouples the blocks (their spectra are disjoint): ``T = V blockdiag(T1, T2) V^{-1}`` with
    ``V = [[I, Y], [0, I]]``, whose inverse ``[[I, -Y], [0, I]]`` is exact. Xu and Xs solve
    ``M^T X + X M = I`` for ``M = T1 + lam I`` and ``M = -(T2 + lam I)``: one :func:`pdom.matrixcore.lyapunov_solve`
    each on its Schur block. Both M are anti-Hurwitz, so both block storages are positive definite, and the
    storage, formed on the Schur basis with nothing inverted, is ``Q V^{-T} blockdiag(-Xu, Xs) V^{-1} Q^T``.
    It must pass the family verdict, and it carries a strictly positive margin. Refused: a Lur'e model
    (``state_matrix``), a claim that breaks :func:`_check_claim`, and a claim that the split verdict does
    not pass (a ``ValueError``: inconclusive, or a p off the split). An overflow leaves a non-finite
    ``V^{-1}`` (refused here) or storage (refused by the family verdict), a :class:`NumericalError`.
    """
    return _construct_certificate(sys, lam, eigen_split_test(sys, lam, p))[0]


def _construct_certificate(sys: LtiSystem, lam: float, split: SplitVerdict) -> tuple[DominanceCertificate,
                                                                                     DifferentialVerdict]:
    """:func:`construct_certificate` on the claim's split verdict, with the family verdict it checked the storage by.

    The verdict is taken at margin 0; with the one vertex passing it equals the verdict at the
    certificate's margin ``epsilon = -lmax/2``, so a caller that reports it solves no second one.
    """
    p = split.requested_p
    if split.status == "inconclusive":
        raise ValueError(f"an eigenvalue of A + {lam:.6g} I lies within {SPLIT_TOL:.1e} of the imaginary axis")
    if not split.passed:
        raise ValueError(f"A + {lam:.6g} I has {split.unstable_count} unstable eigenvalues, expected {p}")
    Q, T = mc.schur_split(*split.schur, lam)
    n = len(T)
    T1, T2 = T[:p, :p], T[p:, p:]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow stays non-finite: V^-1 or the storage is refused
        Vinv = np.eye(n)  # [[I, -Y], [0, I]]
        if 0 < p < n:
            Vinv[:p, p:] = mc._trsyl(T1, T2, T[:p, p:], isgn=-1)  # -Y: T1 Y - Y T2 = -T12, negated
        if not np.isfinite(Vinv).all():
            raise NumericalError("the block decoupling of the Schur form overflowed")
        core = np.zeros((n, n))
        if p > 0:
            core[:p, :p] = mc.lyapunov_solve(T1 + lam * np.eye(p), np.eye(p))  # -Xu
        if p < n:
            core[p:, p:] = mc.lyapunov_solve(T2 + lam * np.eye(n - p), np.eye(n - p))  # Xs
        P = Q @ (Vinv.T @ core @ Vinv) @ Q.T
        P = 0.5 * (P + P.T)
    # one residual eigensolve: its verdict at margin 0 implies the one at epsilon = -lmax/2
    verdict = _family_verdict(sys, P, lam, p, 0.0)
    epsilon = -verdict.worst_lmax / 2.0
    if epsilon <= 0:
        raise NumericalError("constructed storage lost its definiteness margin")
    if not verdict.passed:
        raise NumericalError(f"constructed certificate failed verification: {verdict.status}")
    return DominanceCertificate(P=P, rate=lam, epsilon=epsilon, p=p), verdict
