import numpy as np
import pytest

from conftest import lti_model, spiral_system
from pdom import matrixcore as mc
from pdom import registry
from oracles import block_split, projective_measure, ratio_trace
from pdom.cones import QuadraticCone, _unit, boundary_samples, positivity_probe
from pdom.errors import DimensionError, NumericalError
from pdom.lti import construct_certificate
from pdom.sim import Trajectory, integrate

RATE = registry.KNOWN_RATE


@pytest.fixture(scope="module")
def cone_c4():
    return QuadraticCone(P=registry.KNOWN_STORAGE[4], p=1)


class TestCone:
    def test_rejects_definite_storage(self):
        with pytest.raises(DimensionError):
            QuadraticCone(P=np.eye(2), p=1)


def _reference_samples(cone, count, rng):
    """Sample by sample: one draw per eigenspace, then the equal-weight mix."""
    eigenvalues, eigenvectors = mc.sym_eigen(cone.P)
    neg = eigenvectors[:, eigenvalues < 0]
    pos = eigenvectors[:, eigenvalues > 0]
    samples = np.empty((count, cone.P.shape[0]))
    for i in range(count):
        a = rng.standard_normal(neg.shape[1])
        b = rng.standard_normal(pos.shape[1])
        u = neg @ (a / np.linalg.norm(a))
        v = pos @ (b / np.linalg.norm(b))
        x = np.sqrt(v @ cone.P @ v) * u + np.sqrt(-(u @ cone.P @ u)) * v
        samples[i] = x / np.linalg.norm(x)
    return samples


class TestBoundarySamples:
    @pytest.mark.parametrize("n, p", [(2, 1), (5, 1), (5, 4), (12, 1), (12, 11)])
    def test_matches_per_sample_loop(self, n, p):
        rng = np.random.default_rng(1000 + 10 * n + p)
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spectrum = rng.uniform(0.1, 3.0, n) * np.r_[-np.ones(p), np.ones(n - p)]
        cone = QuadraticCone(P=V @ np.diag(spectrum) @ V.T, p=p)
        for seed in (0, 7, 123):
            X = boundary_samples(cone, 40, np.random.default_rng(seed))
            ref = _reference_samples(cone, 40, np.random.default_rng(seed))
            assert np.max(np.abs(X - ref)) <= 1e-14

    def test_reads_the_cone_eigendecomposition(self, cone_c4, monkeypatch):
        calls = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda S: calls.append(np.shape(S)) or original(S))
        boundary_samples(cone_c4, 10, np.random.default_rng(0))
        QuadraticCone(P=registry.KNOWN_STORAGE[8], p=1)
        assert calls == [(2, 2)]

    def test_zero_row_rejected(self):
        with pytest.raises(NumericalError, match="degenerate"):
            _unit(np.array([[1.0, 2.0], [0.0, 0.0]]))


class TestPositivityProbe:
    def test_boundary_samples_on_boundary(self, cone_c4, rng):
        X = boundary_samples(cone_c4, 50, rng)
        values = np.einsum("ij,jk,ik->i", X, cone_c4.P, X)
        assert np.max(np.abs(values)) < 1e-12
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0)

    @pytest.mark.parametrize("times, samples", [((), 10), ((0.5,), 0)], ids=["no_times", "no_samples"])
    def test_empty_probe_rejected(self, msd_c4, cone_c4, rng, times, samples):
        # no probe, no evidence: an empty probe must not report a pass
        with pytest.raises(ValueError, match="at least one"):
            positivity_probe(msd_c4, cone_c4, times, samples, rng)

    def test_dominant_system_passes(self, msd_c4, cone_c4, rng):
        verdict = positivity_probe(msd_c4, cone_c4, (0.1, 1.0), 100, rng)
        assert verdict.passed
        assert verdict.worst_value < 0

    def test_c8_cone_passes(self, msd_c8, rng):
        cone = QuadraticCone(P=registry.KNOWN_STORAGE[8], p=1)
        assert positivity_probe(msd_c8, cone, (0.1, 1.0), 100, rng).passed

    def test_zero_matrix_fails(self, cone_c4, rng):
        # exp(0 t) = I keeps the boundary on the boundary
        verdict = positivity_probe(lti_model(np.zeros((2, 2))), cone_c4, (1.0,), 20, rng)
        assert not verdict.passed

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, msd_c4, cone_c4, rng, bad):
        with pytest.raises(ValueError, match="finite"):
            positivity_probe(msd_c4, cone_c4, (0.5, bad), 10, rng)

    def test_seeded_determinism(self, msd_c4, cone_c4):
        a = positivity_probe(msd_c4, cone_c4, (0.5,), 30, np.random.default_rng(7))
        b = positivity_probe(msd_c4, cone_c4, (0.5,), 30, np.random.default_rng(7))
        assert a.worst_value == b.worst_value


class TestProjectiveMeasure:
    def test_diagonal_case(self):
        measure = projective_measure(lti_model(np.diag([-0.2679, -3.7321])), 1.2679, 1)
        assert np.allclose(measure.P_u, np.diag([0.5, 0.0]), atol=1e-12)
        assert np.allclose(measure.P_s, np.diag([0.0, 1.0 / (2.0 * 2.4642)]), atol=1e-12)
        assert measure.eps_hat == pytest.approx(2.0, abs=1e-6)

    def test_three_state_saddle(self):
        measure = projective_measure(lti_model(np.diag([1.0, -1.0, -2.0])), 0.0, 1)
        assert np.allclose(measure.P_u, np.diag([0.5, 0.0, 0.0]), atol=1e-12)

    def test_msd_ranks(self, msd_c4):
        measure = projective_measure(msd_c4, RATE, 1)
        assert (measure.rank_u, measure.rank_s) == (1, 1)
        assert measure.eps_hat > 0
        # certified one-sided inequalities hold as matrix inequalities
        A = msd_c4.A
        lhs_u = A.T @ measure.P_u + measure.P_u @ A - (-2 * RATE + measure.eps_hat) * measure.P_u
        lhs_s = -(A.T @ measure.P_s + measure.P_s @ A) + (-2 * RATE - measure.eps_hat) * measure.P_s
        assert np.linalg.eigvalsh(lhs_u)[0] > -1e-9
        assert np.linalg.eigvalsh(lhs_s)[0] > -1e-9

    def test_kernels_are_invariant_subspaces(self, msd_c4):
        # ker P_u is the transient subspace and ker P_s the dominant one: each is A-invariant,
        # of dimension n - p and p
        for A, lam, p in ((msd_c4.A, RATE, 1), (spiral_system(), 0.0, 2)):
            measure = projective_measure(lti_model(A), lam, p)
            n = A.shape[0]
            for form, dim in ((measure.P_u, n - p), (measure.P_s, p)):
                assert mc.inertia_of(form).as_tuple() == (0, dim, n - dim)
                K = np.linalg.eigh(form)[1][:, :dim]  # orthonormal basis of the kernel
                assert np.linalg.norm(A @ K - K @ (K.T @ A @ K)) <= 1e-9 * np.linalg.norm(A)

    def test_trivial_split_rejected(self):
        with pytest.raises(ValueError, match="nontrivial split"):
            projective_measure(lti_model(np.diag([-1.0, -2.0])), 0.0, 0)


def _non_normal(rng, n, lam):
    """``A = S (D + N) S^{-1}`` and its p: D a real Schur form whose spectrum lies 0.1 to 3 off Re = -lam
    on both sides (with complex pairs), N strictly upper triangular off those pairs, S of condition at most e^2."""
    while True:
        D = np.diag(-lam + rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 3.0, n))
        pairs = [i for i in range(0, n - 1, 2) if rng.random() < 0.3]
        for i in pairs:
            D[i + 1, i + 1] = D[i, i]
            D[i, i + 1] = rng.uniform(0.2, 3.0)
            D[i + 1, i] = -D[i, i + 1]
        p = int(np.sum(np.diagonal(D) > -lam))
        if 0 < p < n:
            break
    N = np.triu(rng.standard_normal((n, n)), 1) * rng.choice([0.1, 1.0, 3.0])
    N[pairs, [i + 1 for i in pairs]] = 0.0
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = Q1 @ np.diag(np.exp(rng.uniform(-1.0, 1.0, n))) @ Q2
    return S @ (D + N) @ np.linalg.inv(S), p


class TestMeasureBattery:
    @pytest.mark.parametrize("lam", [0.0, 0.7, 2.0])
    def test_holds_on_every_certified_non_normal_system(self, lam):
        # 400 systems per rate, n = 2..12, each one that construct_certificate accepts: the measure is
        # built without a NumericalError, its one-sided inequalities hold at eps_hat on their blocks in
        # modal coordinates (formed in long double), and P_s - P_u is the certificate's storage
        rng = np.random.default_rng(int(10 * lam) + 21)
        L = np.longdouble
        checked = 0
        while checked < 400:
            n = int(rng.integers(2, 13))
            A, p = _non_normal(rng, n, lam)
            try:
                cert = construct_certificate(lti_model(A), lam, p)
            except NumericalError:
                continue  # a storage whose conditioning puts an eigenvalue in the zero band
            measure = projective_measure(lti_model(A), lam, p)
            W = block_split(A, lam, p)[0].astype(L)
            for P, sign, block in ((measure.P_u, 1, slice(0, p)), (measure.P_s, -1, slice(p, n))):
                P = P.astype(L)
                inequality = sign * (A.T @ P + P @ A + 2 * lam * P) - L(measure.eps_hat) * P
                lhs = (W.T @ inequality @ W)[block, block].astype(float)
                gram = (W.T @ P @ W)[block, block].astype(float)
                assert np.linalg.eigvalsh(0.5 * (lhs + lhs.T))[0] >= -1e-9 * np.linalg.norm(gram, 2)
            assert np.abs(measure.P_s - measure.P_u - cert.P).max() <= 1e-9 * np.linalg.norm(cert.P, 2)
            checked += 1


class TestRankTwoCone:
    def test_spiral_pair_cone_probe(self, rng):
        # rank-2 cone of a 4-state system with an oscillatory dominant pair
        from pdom.lti import construct_certificate

        A = np.zeros((4, 4))
        A[:2, :2] = [[0.1, 2.0], [-2.0, 0.1]]
        A[2:, 2:] = np.diag([-3.0, -4.0])
        cert = construct_certificate(lti_model(A), 0.0, 2)
        cone = QuadraticCone(P=cert.P, p=2)
        verdict = positivity_probe(lti_model(A), cone, (0.2, 1.0), 100, rng)
        assert verdict.passed

    def test_spiral_pair_ratio_decay(self):
        A = np.zeros((4, 4))
        A[:2, :2] = [[0.1, 2.0], [-2.0, 0.1]]
        A[2:, 2:] = np.diag([-3.0, -4.0])
        measure = projective_measure(lti_model(A), 0.0, 2)
        assert (measure.rank_u, measure.rank_s) == (2, 2)
        traj = integrate(lti_model(A), [1.0, 0.0, 1.0, -1.0], t_end=4.0, dt=1e-3)
        trace = ratio_trace(measure, traj)
        assert trace.envelope_ok
        assert trace.ratio[-1] < 1e-6 * trace.ratio[0]


class TestRatioTrace:
    def test_closed_form_saddle(self):
        # exact flow of diag(1,-1): ratio is exp(-4t)
        measure = projective_measure(lti_model(np.diag([1.0, -1.0])), 0.0, 1)
        times = np.linspace(0.0, 3.0, 61)
        states = np.column_stack([np.exp(times), np.exp(-times)])
        traj = Trajectory(t0=0.0, dt=times[1] - times[0], states=states)
        trace = ratio_trace(measure, traj)
        assert np.allclose(trace.ratio, np.exp(-4.0 * times), rtol=1e-10)
        assert trace.envelope_ok and not trace.truncated

    def test_msd_monotone_decay(self, msd_c4):
        measure = projective_measure(msd_c4, RATE, 1)
        traj = integrate(msd_c4, [1.0, 1.0], t_end=5.0, dt=1e-3)
        trace = ratio_trace(measure, traj)
        assert trace.envelope_ok
        assert trace.ratio[-1] < 1e-3
        assert np.all(np.diff(trace.ratio) <= 1e-6 * np.maximum(1.0, trace.ratio[:-1]))

    def test_dominant_start_stays_zero(self, msd_c4):
        measure = projective_measure(msd_c4, RATE, 1)
        x0 = np.linalg.eigh(measure.P_s)[1][:, 0]  # a unit vector of ker P_s, the dominant subspace
        traj = integrate(msd_c4, x0, t_end=2.0, dt=1e-3)
        trace = ratio_trace(measure, traj)
        assert np.max(trace.ratio) < 1e-10

    def test_rejects_transient_start(self, msd_c4):
        measure = projective_measure(msd_c4, RATE, 1)
        x0 = np.linalg.eigh(measure.P_u)[1][:, 0]  # a unit vector of ker P_u, the transient subspace
        traj = integrate(msd_c4, x0, t_end=1.0, dt=1e-3)
        with pytest.raises(ValueError):
            ratio_trace(measure, traj)

    def test_scale_invariant(self, msd_c4):
        # S/U is homogeneous of degree 0: a start scaled by s gives the same trace
        measure = projective_measure(msd_c4, RATE, 1)
        traces = [
            ratio_trace(measure, integrate(msd_c4, [s, s], t_end=5.0, dt=1e-3))
            for s in (1.0, 1e-4, 1e-8, 1e-12, 1e6)
        ]
        reference = traces[0]
        assert not reference.truncated and len(reference.ratio) == 5001
        for trace in traces[1:]:
            assert trace.truncated == reference.truncated
            assert len(trace.ratio) == len(reference.ratio)
            assert np.max(np.abs(trace.ratio - reference.ratio)) <= 1e-6 * reference.ratio[0]
