import numpy as np
import pytest

from pdom import matrixcore as mc
from pdom import registry
from pdom.cones import (
    QuadraticCone,
    _unit,
    boundary_samples,
    positivity_probe,
    projective_measure_from_split,
    ratio_trace,
)
from pdom.errors import DimensionError, NumericalError
from pdom.lti import modal_split
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
        original = mc.sym_eigen
        monkeypatch.setattr(mc, "sym_eigen", lambda S: calls.append(np.shape(S)) or original(S))
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
        verdict = positivity_probe(np.zeros((2, 2)), cone_c4, (1.0,), 20, rng)
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
        split = modal_split(np.diag([-0.2679, -3.7321]), 1.2679, 1)
        measure = projective_measure_from_split(split)
        assert np.allclose(measure.P_u, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(measure.P_s, np.diag([0.0, 1.0]), atol=1e-12)
        assert measure.eps_hat == pytest.approx(2.0, abs=1e-6)

    def test_three_state_saddle(self):
        split = modal_split(np.diag([1.0, -1.0, -2.0]), 0.0, 1)
        measure = projective_measure_from_split(split)
        assert np.allclose(measure.P_u, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_msd_ranks(self, msd_c4):
        split = modal_split(msd_c4, RATE, 1)
        measure = projective_measure_from_split(split)
        assert (measure.rank_u, measure.rank_s) == (1, 1)
        assert measure.eps_hat > 0
        # certified one-sided inequalities hold as matrix inequalities
        A = msd_c4.A
        lhs_u = A.T @ measure.P_u + measure.P_u @ A - (-2 * RATE + measure.eps_hat) * measure.P_u
        lhs_s = -(A.T @ measure.P_s + measure.P_s @ A) + (-2 * RATE - measure.eps_hat) * measure.P_s
        assert np.linalg.eigvalsh(lhs_u)[0] > -1e-9
        assert np.linalg.eigvalsh(lhs_s)[0] > -1e-9


class TestRankTwoCone:
    def test_spiral_pair_cone_probe(self, rng):
        # rank-2 cone of a 4-state system with an oscillatory dominant pair
        from pdom.lti import construct_certificate

        A = np.zeros((4, 4))
        A[:2, :2] = [[0.1, 2.0], [-2.0, 0.1]]
        A[2:, 2:] = np.diag([-3.0, -4.0])
        cert = construct_certificate(A, 0.0, 2)
        cone = QuadraticCone(P=cert.P, p=2)
        verdict = positivity_probe(A, cone, (0.2, 1.0), 100, rng)
        assert verdict.passed

    def test_spiral_pair_ratio_decay(self):
        from pdom.lti import modal_split as make_split

        A = np.zeros((4, 4))
        A[:2, :2] = [[0.1, 2.0], [-2.0, 0.1]]
        A[2:, 2:] = np.diag([-3.0, -4.0])
        measure = projective_measure_from_split(make_split(A, 0.0, 2))
        assert (measure.rank_u, measure.rank_s) == (2, 2)
        traj = integrate(A, [1.0, 0.0, 1.0, -1.0], t_end=4.0, dt=1e-3)
        trace = ratio_trace(measure, traj)
        assert trace.envelope_ok
        assert trace.ratio[-1] < 1e-6 * trace.ratio[0]


class TestRatioTrace:
    def test_closed_form_saddle(self):
        # exact flow of diag(1,-1): ratio is exp(-4t)
        split = modal_split(np.diag([1.0, -1.0]), 0.0, 1)
        measure = projective_measure_from_split(split)
        times = np.linspace(0.0, 3.0, 61)
        states = np.column_stack([np.exp(times), np.exp(-times)])
        traj = Trajectory(t0=0.0, dt=times[1] - times[0], states=states)
        trace = ratio_trace(measure, traj)
        assert np.allclose(trace.ratio, np.exp(-4.0 * times), rtol=1e-10)
        assert trace.envelope_ok and not trace.truncated

    def test_msd_monotone_decay(self, msd_c4):
        split = modal_split(msd_c4, RATE, 1)
        measure = projective_measure_from_split(split)
        traj = integrate(msd_c4, [1.0, 1.0], t_end=5.0, dt=1e-3)
        trace = ratio_trace(measure, traj)
        assert trace.envelope_ok
        assert trace.ratio[-1] < 1e-3
        assert np.all(np.diff(trace.ratio) <= 1e-6 * np.maximum(1.0, trace.ratio[:-1]))

    def test_dominant_start_stays_zero(self, msd_c4):
        split = modal_split(msd_c4, RATE, 1)
        measure = projective_measure_from_split(split)
        x0 = split.projector_dominant @ np.array([1.0, 1.0])
        traj = integrate(msd_c4, x0, t_end=2.0, dt=1e-3)
        trace = ratio_trace(measure, traj)
        assert np.max(trace.ratio) < 1e-10

    def test_rejects_transient_start(self, msd_c4):
        split = modal_split(msd_c4, RATE, 1)
        measure = projective_measure_from_split(split)
        x0 = split.projector_transient @ np.array([1.0, 1.0])
        traj = integrate(msd_c4, x0, t_end=1.0, dt=1e-3)
        with pytest.raises(ValueError):
            ratio_trace(measure, traj)
