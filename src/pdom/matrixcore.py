"""Dense real matrix kernel used by every verifier in the package.

Symmetric eigendecompositions (eigenvalues alone where no vector is read),
unsorted real Schur forms (LAPACK ``gees``) with the spectrum read off T, on
which :mod:`pdom.lti` decides every split, ordered splits ``(Q, T)`` (LAPACK
``trsen`` reordering the form a split was decided on), Lyapunov/Sylvester
solves (LAPACK ``trsyl`` on the ordered blocks; neither step factors anything
itself) and the matrix exponential. A LAPACK failure code is a
:class:`NumericalError`; neither a split nor a solve is re-checked, as the
storage built on them is checked on the model by :func:`pdom.lti._family_verdict`.
Matrices are plain ``numpy.ndarray`` values in double precision; systems of
interest are small (n up to a few tens), so everything is dense.
``scipy.linalg`` is imported inside the functions that call it, since
importing it would otherwise be most of the package's import time.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError
from .policy import SYM_TOL, ZTOL_REL

_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

__all__ = [
    "Inertia",
    "as_matrix",
    "as_symmetric",
    "read_only_copy",
    "frobenius",
    "sym_eigen",
    "sym_eigvals",
    "inertia_of",
    "positive_definite",
    "expm",
]


def as_matrix(value, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce to a finite float matrix, optionally enforcing a shape."""
    mat = np.atleast_2d(np.asarray(value, dtype=float))
    if mat.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim {mat.ndim}")
    if not np.isfinite(mat).all():
        raise NumericalError("matrix contains non-finite entries")
    if shape is not None and mat.shape != shape:
        raise DimensionError(f"expected shape {shape}, got {mat.shape}")
    return mat


def as_symmetric(value) -> np.ndarray:
    """Validate near-symmetry and return the symmetrized matrix (each one of a ``(..., n, n)`` stack).

    Each matrix must be finite, within an asymmetry allowance of
    ``SYM_TOL * max(1, ||S||_F)``; anything worse is a hard error rather than
    something to silently average away. An exactly symmetric input comes back
    as a copy; a near-symmetric one is averaged with its transpose, and an
    average that overflows is a :class:`NumericalError`. Either way the caller
    owns the array it gets.
    """
    mat = _symmetrized(value)
    return mat.copy() if mat is value or mat.base is not None else mat  # a view may be the caller's memory


def _symmetrized(value) -> np.ndarray:
    """:func:`as_symmetric`'s checks and average without its copy: an exactly symmetric float array comes back as is."""
    mat = np.asarray(value, dtype=float)
    if mat.ndim < 2:
        mat = np.atleast_2d(mat)
    if not np.isfinite(mat).all():
        raise NumericalError("matrix contains non-finite entries")
    if mat.shape[-2] != mat.shape[-1]:
        raise DimensionError(f"symmetric matrix must be square, got {mat.shape}")
    flipped = mat.swapaxes(-1, -2)
    if not (mat != flipped).any():  # exactly symmetric, such as every verifier block: no allowance, no average
        return mat
    with np.errstate(over="ignore", invalid="ignore"):
        skew = np.abs(mat - flipped).max(axis=(-2, -1))
        allowance = SYM_TOL * np.maximum(1.0, frobenius(mat))
        if (skew > allowance).any():
            raise DimensionError(f"matrix is not symmetric (max asymmetry {np.max(skew):.3e})")
        averaged = 0.5 * (mat + flipped)
    if not np.isfinite(averaged).all():
        raise NumericalError("symmetrized matrix overflows")
    return averaged


def read_only_copy(value) -> np.ndarray:
    """A read-only float copy of ``value``. Every frozen type keeps its arrays so: a later write into
    the caller's array reaches none of its values, and a write into one of them raises."""
    out = np.array(value, dtype=float)
    out.setflags(write=False)
    return out


def frobenius(mat: np.ndarray) -> np.ndarray:
    """``||S||_F`` of each matrix of a finite ``(..., n, n)`` stack.

    Where the squares overflow (``||S||_F`` past about 1e154) the sum is taken over S / max|S|.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        size = np.sqrt((mat * mat).sum(axis=(-2, -1)))
        if not np.isfinite(size).all():
            peak = np.abs(mat).max(axis=(-2, -1))
            scaled = peak * np.sqrt(((mat / peak[..., None, None]) ** 2).sum(axis=(-2, -1)))
            size = np.where(np.isfinite(size), size, scaled)
    return size


def positive_definite(S) -> np.ndarray:
    """One flag per matrix of a finite symmetric ``(..., n, n)`` stack: is it positive definite?

    A matrix is positive definite when every pivot of its unpivoted Cholesky
    factorization is positive. Each matrix is factored scaled by its largest
    |entry|, the whole stack in n steps with each entry held as one row over
    the stack, and the answer is a flag, never an exception
    (``np.linalg.cholesky`` raises on the first failure). Scaled so, the
    diagonal of each Schur complement stays at most 1, so a positive definite
    matrix has ``c_i^2 < d`` for every entry c_i of each pivot column, d being
    the pivot. A column that breaks this makes a 2 x 2 principal minor
    non-positive: the matrix is declared not definite at that step, and its
    later multipliers are zero, so nothing overflows. A 0 x 0 matrix is
    positive definite.
    """
    mat = np.asarray(S, dtype=float)
    n = mat.shape[-1]
    M = mat.transpose(mat.ndim - 2, mat.ndim - 1, *range(mat.ndim - 2)).copy()
    peak = np.maximum(M.max(axis=(0, 1), initial=0.0), -M.min(axis=(0, 1), initial=0.0))
    M /= np.where(peak > 0.0, peak, 1.0)
    ok = np.ones(mat.shape[:-2], dtype=bool)
    for _ in range(n - 1):
        pivot, column = M[0, 0], M[1:, 0]
        ok &= (column * column).max(axis=0) < pivot
        L = column / np.sqrt(np.where(ok, pivot, np.inf))
        M = M[1:, 1:]
        M -= L[:, None] * L[None, :]
    return ok & (M[0, 0] > 0.0) if n else ok


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts (negative, zero, positive) of a symmetric matrix."""

    negative: int
    zero: int
    positive: int

    @staticmethod
    def of_spectrum(eigenvalues: np.ndarray) -> "Inertia":
        """Count eigenvalues below, inside and above the zero band ``[-ztol, ztol]``,
        where ``ztol = ZTOL_REL * max(1, max |eigenvalue|)``.
        """
        ztol = ZTOL_REL * max(1.0, abs(eigenvalues).max(initial=0.0))
        negative = int((eigenvalues < -ztol).sum())
        positive = int((eigenvalues > ztol).sum())
        return Inertia(negative, eigenvalues.size - negative - positive, positive)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.negative, self.zero, self.positive)

    def matches(self, p: int) -> bool:
        """True when the counts are exactly (p, 0, n - p), n being the dimension."""
        return self.negative == p and self.zero == 0


def _on_cores(kernel, stack: np.ndarray) -> np.ndarray:
    """``kernel`` (a numpy linalg gufunc: it releases the GIL) on a stack, in one contiguous chunk of at least 256
    matrices per CPU. The calling thread solves the first, threads joined before return solve the rest, and a
    chunk's exception is raised here. A matrix's result does not depend on its batch, so the bits are one call's."""
    parts = min(_CPUS, len(stack) // 256)
    if parts < 2:  # under 512 matrices, or one CPU: one call
        return kernel(stack)
    chunks = np.array_split(stack, parts)

    def solve(i):  # a chunk's result, or its exception, in its place
        try:
            chunks[i] = kernel(chunks[i])
        except BaseException as exc:
            chunks[i] = exc
    threads = [threading.Thread(target=solve, args=(i,)) for i in range(1, parts)]
    for thread in threads:
        thread.start()
    solve(0)
    for thread in threads:
        thread.join()
    for chunk in chunks:
        if isinstance(chunk, BaseException):
            raise chunk
    return np.concatenate(chunks)


def sym_eigen(S) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    A ``(..., n, n)`` stack is checked matrix by matrix, in place, and solved in one call.
    """
    mat = _symmetrized(S)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"symmetric eigensolve did not converge: {exc}") from exc
    return eigenvalues, eigenvectors


def sym_eigvals(S) -> np.ndarray:
    """Eigenvalues (ascending) of a symmetric matrix or ``(..., n, n)`` stack, without vectors.

    The same checks as :func:`sym_eigen`, at about half its cost; for callers that read no vector,
    which includes every verdict. A stack is solved in one ``eigvalsh`` call per CPU-sized chunk (:func:`_on_cores`):
    each matrix of it gets the bits of a call on it alone.
    """
    mat = _symmetrized(S)
    try:  # a stack under 512, as every check of a channel-free model solves, skips the helper's call
        return np.linalg.eigvalsh(mat) if mat.ndim < 3 or len(mat) < 512 else _on_cores(np.linalg.eigvalsh, mat)
    except np.linalg.LinAlgError as exc:  # a LAPACK failure, in any chunk
        raise NumericalError(f"symmetric eigensolve did not converge: {exc}") from exc


def inertia_of(S) -> Inertia:
    """Count eigenvalues below, inside and above the zero band ``[-ztol, ztol]``,
    where ``ztol = ZTOL_REL * max(1, ||S||_2)``.
    """
    return Inertia.of_spectrum(sym_eigvals(S))


@functools.cache
def _gees_workspace(n: int) -> int:
    """The workspace LAPACK ``gees`` asks for at order n, the query ``scipy.linalg.schur`` makes; n alone sets it."""
    from scipy.linalg.lapack import dgees

    return int(dgees(lambda re, im: None, np.zeros((n, n)), lwork=-1)[-2][0])  # a selector even when unsorted


def _real_schur(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unsorted real Schur form ``mat = Z T Z^T`` as ``(T, Z, spectrum)``, the spectrum read off T.

    One LAPACK ``gees`` with the workspace it asks for: the T and Z bits of ``scipy.linalg.schur``.
    The real parts are T's diagonal; a 2x2 block ``[[a, b], [c, a]]`` holds ``a +- i sqrt(|b| |c|)``.
    """
    from scipy.linalg.lapack import dgees

    T, _, real, imag, Z, _, info = dgees(lambda re, im: None, mat, lwork=_gees_workspace(mat.shape[0]))
    if info != 0:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"Schur decomposition failed (gees info {info})")
    return T, Z, real + 1j * imag


def _trsyl(A: np.ndarray, B: np.ndarray, C: np.ndarray, trana: str = "N", isgn: int = 1) -> np.ndarray:
    """Solve ``op(A) X + isgn X B = C`` on real Schur forms A and B with LAPACK ``trsyl`` (no factorization).

    op(A) is A or A^T; X comes back unscaled. Only an invalid argument is an error here: the caller checks the result.
    """
    from scipy.linalg.lapack import dtrsyl

    X, scale, info = dtrsyl(A, B, C, trana=trana, isgn=isgn)
    if info < 0:
        raise NumericalError(f"Sylvester solve failed: trsyl argument {-info} is invalid")
    return X / scale


def schur_split(T: np.ndarray, Z: np.ndarray, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """Reorder a real Schur form ``A = Z T Z^T`` (:func:`_real_schur`) at the axis of ``A + shift*I``.

    Returns ``(Q, T)`` with ``A = Q T Q^T``: eigenvalues of ``A + shift*I`` with positive real part lead the
    diagonal of T. One LAPACK ``trsen`` on copies of T and Z, selecting by T's diagonal, the real parts of the
    spectrum read off the form. It only orders: whether the split is hyperbolic is the caller's rule, applied
    to that spectrum, not to T's reordered diagonal. A failed ``trsen`` is a :class:`NumericalError`. Q and T
    are not re-checked: a storage built on them is proved or refused by the family verdict on A itself.
    """
    from scipy.linalg.lapack import dtrsen

    T, Q, _, _, _, _, _, info = dtrsen(np.diagonal(T) + shift > 0, T, Z, job="N")
    if info != 0:
        raise NumericalError(f"Schur reordering failed (trsen info {info})")
    return Q, T


def lyapunov_solve(M, Q) -> np.ndarray:
    """Solve the continuous Lyapunov equation ``M^T X + X M = -Q`` for an M in real Schur form, symmetrized.

    One :func:`_trsyl` on M itself, with no factorization: M must be quasi-upper-triangular, as ``trsen``
    leaves the blocks of :func:`schur_split`, and M and ``-M^T`` must share no eigenvalue. Neither is checked,
    nor is X: a storage built on it is proved or refused by the family verdict on the model itself.
    """
    X = _trsyl(M, M, -Q, trana="T")
    return 0.5 * (X + X.T)


# exp(x) overflows near 709; stay clearly below it
_EXP_RANGE_LIMIT = 700.0


def expm(A, t: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(A t) via scaling-and-squaring."""
    mat = as_matrix(A)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionError("expm requires a square matrix")
    if not np.isfinite(t):
        raise NumericalError("expm requires finite t")
    if np.linalg.norm(mat * t, 1) > _EXP_RANGE_LIMIT:
        raise NumericalError("exp(A t) out of double-precision range")
    import scipy.linalg as sla

    result = sla.expm(mat * t)
    if not np.all(np.isfinite(result)):
        raise NumericalError("exp(A t) overflowed")
    return result
