import threading

import numpy as np
import pytest

from pdom import matrixcore as mc
from oracles import block_split
from pdom.policy import RECON_TOL
from pdom.errors import DimensionError, NumericalError


class TestSymEigen:
    def test_diagonal_already_sorted(self):
        w, V = mc.sym_eigen(np.diag([-1.0, 1.0]))
        assert np.allclose(w, [-1.0, 1.0])
        assert np.allclose(np.abs(V), np.eye(2))

    def test_known_indefinite_storage(self):
        S = np.array([[-0.4338, 0.6535], [0.6535, 1.4338]])
        w, V = mc.sym_eigen(S)
        assert w[0] < 0 < w[1]
        assert np.linalg.det(S) == pytest.approx(-1.0491, abs=1e-4)
        assert np.allclose(S @ V, V @ np.diag(w), atol=1e-12)

    def test_reconstruction_residual_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 13))
            S = rng.standard_normal((n, n))
            S = 0.5 * (S + S.T)
            w, V = mc.sym_eigen(S)
            recon = (V * w) @ V.T
            assert np.linalg.norm(S - recon, "fro") <= 1e-10 * max(1.0, np.linalg.norm(S, "fro"))
            assert np.all(np.diff(w) >= 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionError):
            mc.sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_asymmetry_allowance(self):
        # exactly symmetric: returned as is; within SYM_TOL * ||S||_F: averaged; beyond it: refused
        S = np.array([[2.0, 1.0], [1.0, -3.0]])
        assert mc.as_symmetric(S).tobytes() == S.tobytes()
        near = mc.as_symmetric(S + np.array([[0.0, 1e-9], [0.0, 0.0]]))
        assert near[0, 1] == near[1, 0] == pytest.approx(1.0 + 5e-10, rel=1e-15)
        with pytest.raises(DimensionError, match="not symmetric"):
            mc.as_symmetric(S + np.array([[0.0, 1e-8], [0.0, 0.0]]))

    def test_exactly_symmetric_is_a_copy(self, rng):
        stack = rng.standard_normal((5, 7, 7))
        stack = stack + stack.swapaxes(-1, -2)
        out = mc.as_symmetric(stack)
        assert out.tobytes() == stack.tobytes() and not np.shares_memory(out, stack)

    def test_huge_symmetric_entries_keep_their_inertia(self):
        # the average 0.5 * (S + S^T) overflows at 1.7e308; a symmetric input is not averaged
        S = np.diag([1.7e308, -1.7e308])
        with np.errstate(all="raise"):
            assert mc.as_symmetric(S).tobytes() == S.tobytes()
            assert mc.inertia_of(S).as_tuple() == (1, 0, 1)

    def test_overflowing_average_is_refused(self):
        near = np.array([[1.7e308, 1.7e308], [1.7e308 * (1 - 1e-15), 1.7e308]])
        with np.errstate(all="raise"), pytest.raises(NumericalError, match="overflows"):
            mc.as_symmetric(near)

    def test_huge_asymmetry_is_refused(self):
        # ||S||_F overflows when squared, so the allowance is taken on S / max|S|
        for S in ([[1e200, 1e199], [0.0, 1e200]], [[0.0, 1e308], [-1e308, 0.0]]):
            with np.errstate(all="raise"), pytest.raises(DimensionError, match="not symmetric"):
                mc.as_symmetric(np.array(S))
        huge = np.array([[1e200, 1e200 * (1 - 1e-15)], [1e200, 1.0]])
        assert mc.as_symmetric(huge)[0, 1] == mc.as_symmetric(huge)[1, 0]

    def test_eigvals_are_the_eigen_values(self, rng):
        stack = rng.standard_normal((6, 9, 9))
        stack = stack + stack.swapaxes(-1, -2)
        w, _ = mc.sym_eigen(stack)
        assert np.allclose(mc.sym_eigvals(stack), w, rtol=0, atol=1e-12 * np.abs(w).max())

    @pytest.mark.parametrize(
        "S, error",
        [([[0.0, 1.0], [0.0, 0.0]], DimensionError), ([[np.nan, 0.0], [0.0, 1.0]], NumericalError)],
        ids=["asymmetric", "non-finite"],
    )
    def test_eigvals_checks_as_eigen(self, S, error):
        for kernel in (mc.sym_eigen, mc.sym_eigvals):
            with pytest.raises(error):
                kernel(np.array(S))


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """The shape of every stack handed to ``np.linalg.eigvalsh`` while the test runs, in call order."""
    shapes, original = [], np.linalg.eigvalsh
    spy = lambda a, *args, **kw: shapes.append(np.shape(a)) or original(a, *args, **kw)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


class TestOnCores:
    """A stack of 512 or more matrices is solved one contiguous chunk per CPU, each on its own thread,
    with the bits of one call on the whole stack."""

    @staticmethod
    def _stacks():
        rng = np.random.default_rng(31)
        for n in (6, 7):
            A = rng.standard_normal((4097, n, n))
            yield A + A.swapaxes(-1, -2), A

    def test_split_stack_has_the_bits_of_one_call(self, monkeypatch, eigvalsh_shapes):
        monkeypatch.setattr(mc, "_CPUS", 3)  # split on any host, into chunks of unequal size
        for S, A in self._stacks():
            whole = np.linalg.eigvalsh(S)
            eigvalsh_shapes.clear()
            assert np.array_equal(mc.sym_eigvals(S), whole)
            assert sorted(eigvalsh_shapes) == [(1365,) + S.shape[1:]] + [(1366,) + S.shape[1:]] * 2
            assert np.array_equal(mc._on_cores(np.linalg.eigvals, A), np.linalg.eigvals(A))

    def test_one_cpu_makes_one_call(self, monkeypatch, eigvalsh_shapes):
        monkeypatch.setattr(mc, "_CPUS", 1)
        S = next(self._stacks())[0]
        mc.sym_eigvals(S)
        assert eigvalsh_shapes == [S.shape]

    @pytest.mark.parametrize("size, chunks", [(2, [2]), (511, [511]), (512, [256, 256]), (2048, [512] * 4)])
    def test_chunks_hold_at_least_256_matrices(self, monkeypatch, eigvalsh_shapes, size, chunks):
        monkeypatch.setattr(mc, "_CPUS", 4)
        mc.sym_eigvals(np.broadcast_to(np.eye(3), (size, 3, 3)))
        assert sorted(shape[0] for shape in eigvalsh_shapes) == chunks

    def test_error_in_a_later_chunk_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(mc, "_CPUS", 3)
        S = next(self._stacks())[0]
        calls, original = [], np.linalg.eigvalsh

        def failing(a, *args, **kw):
            calls.append(len(a))
            if np.shares_memory(a, S[-1]):  # the last chunk, solved on a pool thread
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        before = threading.active_count()
        with pytest.raises(NumericalError, match="did not converge"):
            mc.sym_eigvals(S)
        assert len(calls) == 3 and threading.active_count() == before

    def test_no_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(mc, "_CPUS", 4)
        before = threading.active_count()
        for S, A in self._stacks():
            mc.sym_eigvals(S)
            mc._on_cores(np.linalg.eigvals, A)
            assert threading.active_count() == before


class TestInertia:
    def test_identity(self):
        assert mc.inertia_of(np.eye(3)).as_tuple() == (0, 0, 3)

    def test_diag_indefinite(self):
        assert mc.inertia_of(np.diag([-1.0, 1.0])).as_tuple() == (1, 0, 1)

    def test_trace_zero_indefinite(self):
        # eigenvalues are +-sqrt(5): trace 0, det -5
        S = np.array([[-2.0, 1.0], [1.0, 2.0]])
        assert np.trace(S) == 0.0
        assert np.linalg.det(S) == pytest.approx(-5.0)
        assert mc.inertia_of(S).as_tuple() == (1, 0, 1)

    def test_zero_band_counts(self):
        S = np.diag([-1.0, 1e-12, 1.0])
        assert mc.inertia_of(S).as_tuple() == (1, 1, 1)

    def test_congruence_invariance(self, rng):
        # Sylvester's law of inertia under well-conditioned congruences
        for _ in range(50):
            n = int(rng.integers(2, 13))
            S = rng.standard_normal((n, n))
            S = 0.5 * (S + S.T)
            U, _ = np.linalg.qr(rng.standard_normal((n, n)))
            V, _ = np.linalg.qr(rng.standard_normal((n, n)))
            sing = rng.uniform(0.05, 20.0, size=n)  # cond <= 400
            T = U @ np.diag(sing) @ V.T
            assert mc.inertia_of(T.T @ S @ T).as_tuple() == mc.inertia_of(S).as_tuple()


class TestPositiveDefinite:
    """One flag per matrix from the pivots of its unpivoted Cholesky factorization, never an exception."""

    SCALES = (1e-150, 1e-75, 1e-12, 1.0, 1e12, 1e75, 1e150)

    @staticmethod
    def _stack(rng, n, count=40):
        """Definite, negative definite and indefinite matrices, each with its smallest |eigenvalue| at least 1e-6 of its largest."""
        V = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
        w = rng.uniform(1e-6, 1.0, (count, n)) * rng.choice([-1.0, 1.0], (count, n))
        w[: count // 4] = np.abs(w[: count // 4])
        w[count // 4 : count // 2] = -np.abs(w[count // 4 : count // 2])
        S = (V * w[:, None, :]) @ V.swapaxes(-1, -2)
        return 0.5 * (S + S.swapaxes(-1, -2))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_eigvalsh_signs(self, rng, n):
        base = self._stack(rng, n)
        for scale in self.SCALES:
            S = scale * base
            lam = np.linalg.eigvalsh(S)
            # a sign eigvalsh itself leaves open is not compared: every |eigenvalue| must clear its rounding
            clear = np.abs(lam).min(axis=-1) > 1e-9 * np.abs(lam).max(axis=-1)
            assert clear.all()
            with np.errstate(all="raise"):
                flags = mc.positive_definite(S)
            assert flags.dtype == bool and flags.shape == (len(S),)
            assert np.array_equal(flags, lam[:, 0] > 0)
            assert 0 < flags.sum() < len(S)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_singular_matrices_are_not_definite(self, rng, n):
        # a definite matrix with one row and column zeroed, the zero matrix, and a diagonal with a zero entry
        definite = np.array([M @ M.T + np.eye(n) for M in rng.standard_normal((6, n, n))])
        for i, M in enumerate(definite[:4]):
            M[i % n, :] = 0.0
            M[:, i % n] = 0.0
        definite[4] = 0.0
        definite[5] = np.diag(np.r_[np.ones(n - 1), 0.0])
        for scale in self.SCALES:
            with np.errstate(all="raise"):
                flags = mc.positive_definite(scale * definite)
            assert not flags.any()
            assert (np.linalg.eigvalsh(scale * definite)[:, 0] <= 1e-12 * scale * np.abs(definite).max()).all()

    def test_a_tiny_pivot_does_not_overflow(self):
        # the second pivot is 1e-320: a multiplier 0.5 / sqrt(1e-320) would square past the float range
        S = np.array([[[1.0, 0.0, 0.0], [0.0, 1e-320, 0.5], [0.0, 0.5, 1.0]],
                      [[1.0, 0.0, 0.0], [0.0, 1e-300, 1e-160], [0.0, 1e-160, 1.0]]])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            flags = mc.positive_definite(S)
        assert flags.tolist() == [False, True]

    def test_shapes(self):
        assert mc.positive_definite(np.eye(3)).shape == ()
        assert bool(mc.positive_definite(np.eye(3))) and not mc.positive_definite(-np.eye(3))
        assert mc.positive_definite(np.zeros((2, 5, 0, 0))).tolist() == [[True] * 5] * 2
        assert mc.positive_definite(np.ones((2, 3, 1, 1))).all()


def _leading(spectrum, shift):
    """How many eigenvalues of ``A + shift I`` lie right of the axis: the leading block of the ordered form."""
    return int(np.sum(spectrum.real + shift > 0))


class TestRealSchur:
    def test_bits_of_scipy_schur(self, rng):
        # one gees call with the workspace it asks for: scipy.linalg.schur's T and Z, bit for bit
        import scipy.linalg as sla

        for i in range(200):
            n = 1 + i % 40
            A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
            T, Z, spectrum = mc._real_schur(A)
            ref_T, ref_Z = sla.schur(A, output="real")
            assert T.tobytes() == ref_T.tobytes() and Z.tobytes() == ref_Z.tobytes()
            assert np.array_equal(spectrum.real, np.diagonal(T))


def _split(A, shift):
    """``(Q, T, spectrum)``: A's one unsorted Schur form reordered at the shift, with the spectrum read off it."""
    T, Z, spectrum = mc._real_schur(np.asarray(A, dtype=float))
    return (*mc.schur_split(T, Z, shift), spectrum)


class TestSchurSplit:
    def test_msd_shifted_split(self, msd_c4):
        _, T, spectrum = _split(msd_c4.A, 1.2679)
        assert _leading(spectrum, 1.2679) == 1
        eigs = np.sort(np.linalg.eigvals(T).real)
        assert eigs == pytest.approx([-3.7321, -0.2679], abs=1e-4)
        # promoted block leads
        assert np.linalg.eigvals(T[:1, :1])[0].real > -1.2679

    def test_trivial_stable(self):
        _, _, spectrum = _split(np.diag([-1.0, -2.0]), 0.0)
        assert _leading(spectrum, 0.0) == 0

    def test_mixed_diagonal(self):
        _, _, spectrum = _split(np.diag([3.0, -5.0, -5.0]), 1.0)
        assert _leading(spectrum, 1.0) == 1

    def test_non_hyperbolic_is_only_ordered(self):
        # whether the split is hyperbolic is construct_certificate's rule, applied to the returned spectrum
        Q, T, spectrum = _split(np.diag([-1.0, -2.0]), 1.0)
        assert _leading(spectrum, 1.0) == 0 and sorted(np.diagonal(T)) == [-2.0, -1.0]
        assert np.allclose(Q @ T @ Q.T, np.diag([-1.0, -2.0]))

    def test_reorders_copies_and_factors_nothing(self, monkeypatch):
        # the form it is given (a split verdict's) is left as it was, and no gees runs
        import scipy.linalg.lapack as lapack

        A = np.array([[-1.0, 1.0, 0.0], [0.0, 2.0, 0.5], [0.0, 0.0, -3.0]])  # gees keeps its diagonal's order
        T, Z, _ = mc._real_schur(A)
        before = T.tobytes(), Z.tobytes()
        monkeypatch.setattr(lapack, "dgees", None)
        Q, ordered = mc.schur_split(T, Z, 0.0)
        assert (T.tobytes(), Z.tobytes()) == before and np.diagonal(T).tolist() == [-1.0, 2.0, -3.0]
        assert ordered[0, 0] == pytest.approx(2.0) and np.allclose(Q @ ordered @ Q.T, A)

    def test_matches_sorted_scipy_schur(self, rng):
        # the sorted LAPACK Schur form, on matrices with complex pairs on both sides of the axis
        import scipy.linalg as sla

        pairs = 0
        for _ in range(40):
            n = int(rng.integers(2, 13))
            A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-2, 2)
            shift = float(rng.uniform(-0.5, 0.5)) * np.abs(A).max()
            if np.min(np.abs(np.linalg.eigvals(A).real + shift)) <= 1e-6 * np.abs(A).max():
                continue
            Q, T, spectrum = _split(A, shift)
            k = _leading(spectrum, shift)
            sorted_T, Z, sdim = sla.schur(A, output="real", sort=lambda re, im: re > -shift)
            assert k == sdim
            leading = np.sort_complex(np.linalg.eigvals(T[:k, :k]))
            assert np.allclose(leading, np.sort_complex(np.linalg.eigvals(sorted_T[:k, :k])), atol=1e-9 * np.abs(A).max())
            assert np.all(np.linalg.eigvals(T[:k, :k]).real > -shift)
            assert np.all(np.linalg.eigvals(T[k:, k:]).real < -shift)
            recon = Q @ T @ Q.T
            assert np.linalg.norm(recon - A) <= 1e-12 * np.linalg.norm(A) * n
            pairs += np.count_nonzero(np.diagonal(T, -1))
        assert pairs > 0

    def test_reordering_failure_is_numerical(self, monkeypatch):
        import scipy.linalg.lapack as lapack

        original = lapack.dtrsen
        monkeypatch.setattr(lapack, "dtrsen", lambda *a, **kw: (*original(*a, **kw)[:7], 1))
        with pytest.raises(NumericalError, match="reordering"):
            _split(np.diag([3.0, -5.0, -5.0]), 1.0)

    def test_split_decouples_with_pairs_in_both_blocks(self, rng):
        # unstable spirals 1 +- 2i, 0.5 +- i and stable spirals -1 +- 3i, -2 +- 0.5i
        D = np.zeros((8, 8))
        for i, (re, im) in enumerate([(1.0, 2.0), (0.5, 1.0), (-1.0, 3.0), (-2.0, 0.5)]):
            D[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[re, im], [-im, re]]
        V = rng.standard_normal((8, 8)) + 3.0 * np.eye(8)
        A = V @ D @ np.linalg.inv(V)
        k = _leading(_split(A, 0.0)[2], 0.0)
        assert k == 4
        W, _, T1, T2 = block_split(A, 0.0, k)
        assert np.count_nonzero(np.diagonal(T1, -1)) == 2
        assert np.count_nonzero(np.diagonal(T2, -1)) == 2
        core = np.zeros((8, 8))
        core[:4, :4] = T1
        core[4:, 4:] = T2
        recon = W @ core @ np.linalg.solve(W, np.eye(8))
        assert np.linalg.norm(recon - A) <= 1e-10 * np.linalg.norm(A)

    def test_split_decouples(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            A = rng.standard_normal((n, n))
            shifted = np.linalg.eigvals(A).real
            if np.min(np.abs(shifted)) < 1e-3:
                continue
            k_target = int(np.sum(shifted > 0))
            k = _leading(_split(A, 0.0)[2], 0.0)
            assert k == k_target
            W, _, T1, T2 = block_split(A, 0.0, k)
            core = np.zeros((n, n))
            core[:k, :k] = T1
            core[k:, k:] = T2
            recon = W @ core @ np.linalg.solve(W, np.eye(n))
            assert np.allclose(recon, A, atol=1e-8 * max(1.0, np.linalg.norm(A)))


class TestLyapunov:
    # lyapunov_solve takes an M in real Schur form; a general M is solved on its form M = Z T Z^T
    @staticmethod
    def _on_schur_form(M, Q):
        T, Z = mc._real_schur(M)[:2]
        return Z @ mc.lyapunov_solve(T, Z.T @ Q @ Z) @ Z.T

    def test_identity_case(self):
        X = mc.lyapunov_solve(-np.eye(2), np.eye(2))
        assert np.allclose(X, 0.5 * np.eye(2))

    def test_scalar_closed_form(self):
        a = -1.7
        X = mc.lyapunov_solve(np.array([[a]]), np.array([[1.0]]))
        assert X[0, 0] == pytest.approx(-1.0 / (2.0 * a))

    def test_transient_block_value(self):
        X = mc.lyapunov_solve(np.array([[-2.4642]]), np.array([[1.0]]))
        assert X[0, 0] == pytest.approx(0.2029, abs=1e-4)

    def test_residual_bound_random(self, rng):
        count = 0
        while count < 200:
            n = int(rng.integers(1, 7))
            M = rng.standard_normal((n, n))
            eigs = np.linalg.eigvals(M)
            if np.min(np.abs(eigs[:, None] + np.conj(eigs[None, :]))) < 1e-3:
                continue
            Q = rng.standard_normal((n, n))
            Q = 0.5 * (Q + Q.T)
            X = self._on_schur_form(M, Q)
            residual = np.linalg.norm(M.T @ X + X @ M + Q, "fro")
            bound = RECON_TOL * (
                np.linalg.norm(M, "fro") * np.linalg.norm(X, "fro") + np.linalg.norm(Q, "fro")
            )
            assert residual <= max(bound, RECON_TOL)
            count += 1

    @staticmethod
    def _reference(M, Q):
        import scipy.linalg as sla

        return sla.solve_continuous_lyapunov(M.T, -Q)

    def test_agrees_with_scipy_on_complex_pairs(self, rng):
        for n in (2, 3, 5, 8, 13):
            D = np.diag(-rng.uniform(0.3, 3.0, n))
            for i in range(0, n - 1, 2):
                D[i, i + 1], D[i + 1, i] = 2.0, -2.0
            V = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            M = V @ D @ np.linalg.inv(V)
            assert np.any(np.abs(np.linalg.eigvals(M).imag) > 1.0)
            Q = rng.standard_normal((n, n))
            Q = Q + Q.T
            X, ref = self._on_schur_form(M, Q), self._reference(M, Q)
            assert np.linalg.norm(X - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_agrees_with_scipy_when_non_normal(self, rng):
        # a Jordan-like chain with couplings 5, in a rotated basis so that the
        # Schur form is not M itself; ||X|| is about 2e4 for ||Q|| = 2.4
        chain = np.diag(np.linspace(-1.0, -2.0, 6)) + np.diag(np.full(5, 5.0), 1)
        U, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        M = U @ chain @ U.T
        X, ref = self._on_schur_form(M, np.eye(6)), self._reference(M, np.eye(6))
        assert np.linalg.norm(X - ref) <= 1e-10 * np.linalg.norm(ref)


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(mc.expm(np.zeros((3, 3)), 7.3), np.eye(3))

    def test_diagonal(self):
        E = mc.expm(np.diag([1.0, -1.0]), 1.0)
        assert np.allclose(np.diag(E), [np.e, 1.0 / np.e])

    def test_against_ode_oracle(self, msd_c4):
        # RK4 on the matrix ODE X' = A X, X(0) = I
        A = msd_c4.A
        X = np.eye(2)
        dt = 1e-3
        for _ in range(1000):
            k1 = A @ X
            k2 = A @ (X + 0.5 * dt * k1)
            k3 = A @ (X + 0.5 * dt * k2)
            k4 = A @ (X + dt * k3)
            X = X + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.linalg.norm(mc.expm(A, 1.0) - X) <= 1e-8

    def test_semigroup_property(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n))
            s, t = rng.uniform(0.1, 2.0, size=2)
            if np.linalg.norm(A) * (s + t) > 10:
                continue
            left = mc.expm(A, s) @ mc.expm(A, t)
            right = mc.expm(A, s + t)
            assert np.allclose(left, right, atol=1e-8 * max(1.0, np.linalg.norm(right)))

    def test_range_error(self):
        with pytest.raises(NumericalError):
            mc.expm(np.diag([1.0]), 1e6)
