"""Reference checks and planted inputs built from numpy alone.

Nothing here imports pdom: the truth of every benchmark job is decided by
these functions, so a verdict from pdom is compared with an independent
computation. Every generated candidate holds or fails by at least ``CLEAR``
in relative terms, so any sound verifier must agree with the label.
"""

from __future__ import annotations

import numpy as np

# relative margin every truth label must clear
CLEAR = 1e-3


def orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def well_conditioned(rng: np.random.Generator, n: int, spread: float) -> np.ndarray:
    """Random matrix with singular values in [exp(-spread), exp(spread)]."""
    s = np.exp(rng.uniform(-spread, spread, n))
    return orthogonal(rng, n) @ np.diag(s) @ orthogonal(rng, n)


def indefinite_storage(rng: np.random.Generator, n: int, p: int, spread: float = 0.5) -> np.ndarray:
    """Symmetric matrix of inertia (p, 0, n - p) and spectral norm 1."""
    mags = np.exp(rng.uniform(-spread, spread, n))
    signs = np.r_[-np.ones(p), np.ones(n - p)]
    U = orthogonal(rng, n)
    P = U @ np.diag(signs * mags) @ U.T
    P = 0.5 * (P + P.T)
    return P / np.max(mags)


def spd(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    U = orthogonal(rng, n)
    Q = U @ np.diag(rng.uniform(lo, hi, n)) @ U.T
    return 0.5 * (Q + Q.T)


def skew(rng: np.random.Generator, n: int, norm: float) -> np.ndarray:
    K = rng.standard_normal((n, n))
    K = K - K.T
    return K * (norm / max(np.linalg.norm(K, 2), 1e-300))


def planted_dominant(rng: np.random.Generator, n: int, p: int, lam: float, q_lo: float = 0.5):
    """(A, P, Q) with A^T P + P A + 2 lam P = -Q exactly, Q >= q_lo I, ||P|| = 1."""
    P = indefinite_storage(rng, n, p)
    Q = spd(rng, n, q_lo, 1.0)
    K = skew(rng, n, rng.uniform(0.5, 2.0))
    A = np.linalg.solve(P, -0.5 * Q + K) - lam * np.eye(n)
    return A, P, Q


def hyperbolic(rng: np.random.Generator, n: int, p: int, lam: float) -> np.ndarray:
    """A whose shift A + lam I has p eigenvalues with real part in [0.3, 2]
    and n - p with real part in [-3, -0.3], in a conditioned basis."""
    D = np.zeros((n, n))
    reals = np.r_[rng.uniform(0.3, 2.0, p), -rng.uniform(0.3, 3.0, n - p)] - lam
    i = 0
    while i < n:
        # pair up same-side neighbours into rotation blocks for complex modes
        same_side = i + 1 < n and (i + 1 < p) == (i < p)
        if same_side and rng.random() < 0.5:
            re = reals[i]
            im = rng.uniform(0.2, 3.0)
            D[i : i + 2, i : i + 2] = [[re, im], [-im, re]]
            i += 2
        else:
            D[i, i] = reals[i]
            i += 1
    V = well_conditioned(rng, n, 0.4)
    return V @ D @ np.linalg.inv(V)


# --------------------------------------------------------------------------
# truths


def inertia(S: np.ndarray) -> tuple[tuple[int, int, int], float]:
    """Inertia with a zero band relative to the largest eigenvalue, and how
    clearly it holds (smallest |eigenvalue| over largest)."""
    w = np.linalg.eigvalsh(0.5 * (S + S.T))
    scale = float(np.max(np.abs(w)))
    band = 1e-9 * scale
    neg = int(np.sum(w < -band))
    pos = int(np.sum(w > band))
    clarity = float(np.min(np.abs(w)) / scale) if scale > 0 else 0.0
    return (neg, w.size - neg - pos, pos), clarity


def dominance_margins(J: np.ndarray, P: np.ndarray, lam: float) -> np.ndarray:
    """lmax(J^T P + P J + 2 lam P) relative to (||J|| + lam) ||P||, for each
    matrix in the stack J (shape (v, n, n)); scale-free."""
    R = np.swapaxes(J, 1, 2) @ P + P @ J + 2.0 * lam * P
    lmax = np.linalg.eigvalsh(0.5 * (R + np.swapaxes(R, 1, 2)))[:, -1]
    return lmax / ((np.linalg.norm(J, 2, axis=(1, 2)) + lam) * np.linalg.norm(P, 2))


def dissipation_margins(J, B, C, P, lam, Q, L, R) -> np.ndarray:
    """lmax of the open-system block (D = 0)
    [[J^T P + P J + 2 lam P - C^T Q C, P B - C^T L], [., -R]]
    for each J in the stack, relative to the size of its terms."""
    v, n, _ = J.shape
    top = np.swapaxes(J, 1, 2) @ P + P @ J + 2.0 * lam * P - C.T @ Q @ C
    off = P @ B - C.T @ L
    block = np.empty((v, n + R.shape[0], n + R.shape[0]))
    block[:, :n, :n] = 0.5 * (top + np.swapaxes(top, 1, 2))
    block[:, :n, n:] = off
    block[:, n:, :n] = off.T
    block[:, n:, n:] = -R
    lmax = np.linalg.eigvalsh(block)[:, -1]
    scale = (
        (np.linalg.norm(J, 2, axis=(1, 2)) + lam) * np.linalg.norm(P, 2)
        + np.linalg.norm(P @ B, 2)
        + np.linalg.norm(C.T @ Q @ C, 2)
        + np.linalg.norm(C.T @ L, 2)
        + np.linalg.norm(R, 2)
    )
    return lmax / scale


def dominance_margin(A, P, lam) -> float:
    return float(dominance_margins(A[None], P, lam)[0])


def dissipation_margin(A, B, C, P, lam, Q, L, R) -> float:
    return float(dissipation_margins(A[None], B, C, P, lam, Q, L, R)[0])


def storage_label(A: np.ndarray, P: np.ndarray, lam: float, p: int, margin: float) -> bool:
    """Truth of a candidate given its relative residual margin; raises when
    the candidate is not clearly on one side."""
    n = A.shape[0]
    (neg, zero, pos), clarity = inertia(P)
    if clarity < CLEAR:
        raise ValueError("candidate storage has no clear inertia")
    if (neg, zero, pos) != (p, 0, n - p):
        return False
    if margin <= -CLEAR:
        return True
    if margin >= CLEAR:
        return False
    raise ValueError(f"candidate residual margin {margin:.3e} is not clear")


def split_count(A: np.ndarray, lam: float) -> tuple[int, float]:
    """Unstable eigenvalue count of A + lam I and the relative axis distance."""
    shifted = np.linalg.eigvals(A).real + lam
    distance = float(np.min(np.abs(shifted)) / (np.linalg.norm(A, 2) + lam))
    return int(np.sum(shifted > 0)), distance


def vertex_matrices(A: np.ndarray, G: np.ndarray, H: np.ndarray, lo, hi) -> np.ndarray:
    """All 2^k matrices A + sum_i s_i g_i h_i^T with s_i at a slope bound."""
    k = G.shape[0]
    corners = np.array(np.meshgrid(*[[lo[i], hi[i]] for i in range(k)], indexing="ij"))
    slopes = corners.reshape(k, -1).T  # (2^k, k)
    outer = np.einsum("ki,kj->kij", G, H)  # (k, n, n)
    return A[None] + np.einsum("vk,kij->vij", slopes, outer)


def family_label(margins: np.ndarray) -> bool:
    """A uniform storage passes iff every vertex clearly passes."""
    if np.all(margins <= -CLEAR):
        return True
    if np.any(margins >= CLEAR):
        return False
    raise ValueError("vertex family is not clearly decided")


def composed_output_supply(Q1, L1, R1, Q2, L2, R2) -> np.ndarray:
    """Pure-output part of the closed-loop supply for u1 = -y2, u2 = y1."""
    Q = np.block([[Q1 + R2, -L1 + L2.T], [-L1.T + L2, Q2 + R1]])
    return 0.5 * (Q + Q.T)


def feedback_matrix(A1, B1, C1, A2, B2, C2) -> np.ndarray:
    return np.block([[A1, -B1 @ C2], [B2 @ C1, A2]])


def period_spread(periods) -> float:
    periods = np.asarray(periods, dtype=float)
    return float((periods.max() - periods.min()) / periods.mean())
