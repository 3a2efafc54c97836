"""Dense real matrix kernel used by every verifier in the package.

Symmetric eigendecompositions (eigenvalues alone where no vector is read),
ordered real Schur splits ``(Q, T, k)`` (LAPACK ``trsen`` on one real Schur
form; :func:`pdom.lti.construct_certificate` applies the split rule to the
diagonal of T, then decouples and solves on its blocks),
Lyapunov/Sylvester solves (LAPACK ``trsyl`` on a real Schur form) and the
matrix exponential, all with explicit residual checks against the fixed
tolerances of :mod:`pdom.policy`. Matrices are plain ``numpy.ndarray`` values in double
precision; systems of interest are small (n up to a few tens), so everything
is dense. ``scipy.linalg`` is imported inside the functions that call it,
since importing it would otherwise be most of the package's import time.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError
from .policy import LYAP_SEP_TOL, RECON_TOL, SCHUR_FACTOR, SYM_TOL, ZTOL_REL

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
    "schur_split",
    "lyapunov_solve",
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


def _real_schur(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unsorted real Schur form ``mat = Z T Z^T`` as ``(T, Z, spectrum)``, the spectrum read off T.

    LAPACK's 2x2 blocks ``[[a, b], [c, a]]`` hold ``a +- i sqrt(-b c)``; its 1x1 blocks have c = 0.
    """
    import scipy.linalg as sla

    try:
        T, Z = sla.schur(mat, output="real")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"Schur decomposition failed: {exc}") from exc
    pair = np.sqrt(np.abs(np.diagonal(T, -1) * np.diagonal(T, 1)))
    imag = np.zeros(T.shape[0])
    imag[:-1] += pair
    imag[1:] -= pair
    return T, Z, np.diagonal(T) + 1j * imag


def _trsyl(A: np.ndarray, B: np.ndarray, C: np.ndarray, trana: str = "N", isgn: int = 1) -> np.ndarray:
    """Solve ``op(A) X + isgn X B = C`` on real Schur forms A and B with LAPACK ``trsyl`` (no factorization).

    op(A) is A or A^T; X comes back unscaled. Only an invalid argument is an error here: the caller checks the result.
    """
    from scipy.linalg.lapack import dtrsyl

    X, scale, info = dtrsyl(A, B, C, trana=trana, isgn=isgn)
    if info < 0:
        raise NumericalError(f"Sylvester solve failed: trsyl argument {-info} is invalid")
    return X / scale


def schur_split(A, shift: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Ordered real Schur form ``A = Q T Q^T`` splitting the spectrum of ``A + shift*I`` at the axis.

    Returns ``(Q, T, k)``: eigenvalues of ``A + shift*I`` with positive real
    part lead the diagonal of T, and k is their count. One unsorted real Schur form
    (:func:`_real_schur`) gives the spectrum and, reordered by LAPACK
    ``trsen``, the split. It only orders: whether the split is hyperbolic is
    the caller's rule, read off the diagonal of T (the real parts of the
    spectrum). A shift that is not finite is a ``ValueError``, and a basis
    that lost orthogonality or fails to reconstruct A is a :class:`NumericalError`.
    """
    if not np.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift}")
    mat = as_matrix(A)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionError("schur_split requires a square matrix")
    from scipy.linalg.lapack import dtrsen

    T, Q, spectrum = _real_schur(mat)
    T, Q, _, _, sdim, _, _, info = dtrsen(spectrum.real + shift > 0, T, Q, job="N")
    if info != 0:
        raise NumericalError(f"Schur reordering failed (trsen info {info})")
    orth = np.linalg.norm(Q.T @ Q - np.eye(mat.shape[0]), "fro")
    if orth > SCHUR_FACTOR * RECON_TOL:
        raise NumericalError(f"Schur basis lost orthogonality ({orth:.3e})")
    recon = np.linalg.norm(Q @ T @ Q.T - mat, "fro")
    if recon > RECON_TOL * max(1.0, np.linalg.norm(mat, "fro")) * SCHUR_FACTOR:
        raise NumericalError(f"Schur reconstruction residual too large ({recon:.3e})")
    return Q, T, int(sdim)


def lyapunov_solve(M, Q) -> np.ndarray:
    """Solve the continuous Lyapunov equation M^T X + X M = -Q.

    Solved as ``T^T Y + Y T = -Z^T Q Z`` (one :func:`_trsyl`) on the real Schur form ``M = Z T Z^T``.
    ``M`` and ``-M^T`` must share no eigenvalue (read off T), and X must meet its residual bound.
    An M already in real Schur form needs no factorization: :func:`_trsyl` on it alone solves it.
    """
    mat = as_matrix(M)
    rhs = as_symmetric(Q)
    if mat.shape[0] != mat.shape[1] or mat.shape != rhs.shape:
        raise DimensionError("lyapunov_solve needs square M and Q of equal size")
    T, Z, spectrum = _real_schur(mat)
    sums = spectrum[:, None] + np.conj(spectrum[None, :])
    size = max(1.0, np.max(np.abs(spectrum)))
    if np.min(np.abs(sums)) <= LYAP_SEP_TOL * size:
        raise NumericalError("singular Lyapunov operator: M and -M^T share an eigenvalue")
    X = Z @ _trsyl(T, T, -(Z.T @ rhs @ Z), trana="T") @ Z.T
    X = 0.5 * (X + X.T)
    residual = np.linalg.norm(mat.T @ X + X @ mat + rhs, "fro")
    bound = RECON_TOL * (
        np.linalg.norm(mat, "fro") * np.linalg.norm(X, "fro") + np.linalg.norm(rhs, "fro")
    )
    if residual > max(bound, RECON_TOL):
        raise NumericalError(f"Lyapunov residual {residual:.3e} exceeds bound {bound:.3e}")
    return X


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
