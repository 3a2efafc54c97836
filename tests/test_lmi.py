import numpy as np
import pytest

from conftest import random_hyperbolic
from pdom import lmi, registry
from pdom.errors import LmiInfeasibleError
from pdom.lti import DominanceCertificate, check_dominance, construct_certificate, residual

RATE = registry.KNOWN_RATE


class TestSvec:
    def test_round_trip_preserves_inner_product(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 8))
            S = _sym(rng, n)
            T = _sym(rng, n)
            assert np.allclose(lmi.smat(lmi.svec(S), n), S)
            assert lmi.svec(S) @ lmi.svec(T) == pytest.approx(np.sum(S * T))


def _sym(rng, n):
    S = rng.standard_normal((n, n))
    return 0.5 * (S + S.T)


class TestSolve:
    def test_dominance_problem_msd(self, msd_c4):
        problem = lmi.LmiProblem(
            dim=2,
            blocks=[lambda P: residual(msd_c4.A, P, RATE)],
            inertia_target=(1, 0, 1),
            epsilon=1e-4,
        )
        P = lmi.solve(problem)
        cert = DominanceCertificate(P=P, rate=RATE, epsilon=1e-4, p=1)
        assert check_dominance(msd_c4, cert).passed

    def test_equality_constrained_passivity_problem(self, msd_c8):
        problem = lmi.LmiProblem(
            dim=2,
            blocks=[lambda P: residual(msd_c8.A, P, RATE)],
            equalities=[lmi.LinearEquality(lambda P: P @ msd_c8.B, msd_c8.C.T)],
            inertia_target=(1, 0, 1),
            epsilon=1e-5,
        )
        P = lmi.solve(problem)
        assert np.max(np.abs(P @ msd_c8.B - msd_c8.C.T)) <= 1e-10
        # the shipped diag(-1, 1) is one feasible point; ours must verify too
        cert = DominanceCertificate(P=P, rate=RATE, epsilon=1e-5, p=1)
        assert check_dominance(msd_c8, cert).passed

    def test_impossible_inertia_target_reports(self, msd_c4):
        problem = lmi.LmiProblem(
            dim=2,
            blocks=[lambda P: residual(msd_c4.A, P, RATE)],
            inertia_target=(0, 0, 2),
            epsilon=1e-4,
        )
        with pytest.raises(LmiInfeasibleError) as excinfo:
            lmi.solve(problem)
        report = excinfo.value.report
        assert "inertia" in report.message

    def test_truly_infeasible_reports_budget(self):
        # no symmetric P of any inertia satisfies both signs at once
        problem = lmi.LmiProblem(
            dim=1,
            blocks=[lambda P: P, lambda P: -P],
            epsilon=0.5,
        )
        with pytest.raises(LmiInfeasibleError) as excinfo:
            lmi.solve(problem)
        report = excinfo.value.report
        assert report.violation > 0
        # the optimum of max(P, -P) + 0.5 is 0.5: the dual bound proves infeasibility
        assert 0 < report.gap_bound <= 0.5

    def test_planted_feasibility(self, rng):
        solved = 0
        while solved < 25:
            n = int(rng.integers(2, 6))
            lam = 1.0
            A, p = random_hyperbolic(rng, n, lam)
            cert = construct_certificate(A, lam, p)
            problem = lmi.LmiProblem(
                dim=n,
                blocks=[lambda P, A=A: residual(A, P, lam)],
                inertia_target=(p, 0, n - p),
                epsilon=cert.epsilon / 10,
            )
            P = lmi.solve(problem)
            verdict = check_dominance(A, DominanceCertificate(P=P, rate=lam, epsilon=cert.epsilon / 10, p=p))
            assert verdict.passed
            solved += 1

    def test_multi_block_vertex_problem(self):
        # shared storage across both slope corners of the cubic-spring family
        vertices = [np.array([[0.0, 1.0], [s, -8.0]]) for s in (-3.0, 1.0)]
        problem = lmi.LmiProblem(
            dim=2,
            blocks=[lambda P, A=A: residual(A, P, 1.0) for A in vertices],
            inertia_target=(1, 0, 1),
            epsilon=1e-4,
        )
        P = lmi.solve(problem)
        for A in vertices:
            assert np.linalg.eigvalsh(residual(A, P, 1.0))[-1] <= -1e-4 + 1e-6
