import json

import numpy as np
import pytest

from conftest import lti_model, random_hyperbolic
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
            cert = construct_certificate(lti_model(A), lam, p)
            problem = lmi.LmiProblem(
                dim=n,
                blocks=[lambda P, A=A: residual(A, P, lam)],
                inertia_target=(p, 0, n - p),
                epsilon=cert.epsilon / 10,
            )
            P = lmi.solve(problem)
            verdict = check_dominance(lti_model(A), DominanceCertificate(P=P, rate=lam, epsilon=cert.epsilon / 10, p=p))
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


def _planted_passivity(rng, n, p, m=2, lam=0.5, margin=0.1):
    """A, B, C with a storage of inertia (p, 0, n - p), P B = C^T and residual -2 margin I."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    P = Q @ np.diag(np.r_[-np.ones(p), np.ones(n - p)]) @ Q.T
    K = rng.standard_normal((n, n))
    A = np.linalg.solve(P, -margin * np.eye(n) + (K - K.T)) - lam * np.eye(n)
    B = rng.standard_normal((n, m))
    return A, B, (P @ B).T


class TestStackedEvaluation:
    """Blocks and equality maps are evaluated on stacks, so their call counts do not grow with n."""

    @staticmethod
    def _counted_solve(rng, n):
        lam, p = 0.5, 1
        A, B, C = _planted_passivity(rng, n, p)
        calls = {"block": 0, "equality": 0}

        def block(P):
            calls["block"] += 1
            return residual(A, P, lam)

        def equality(P):
            calls["equality"] += 1
            return P @ B

        problem = lmi.LmiProblem(
            dim=n,
            blocks=[block],
            equalities=[lmi.LinearEquality(equality, C.T)],
            inertia_target=(p, 0, n - p),
            epsilon=1e-6,
        )
        P = lmi.solve(problem)
        assert np.max(np.abs(P @ B - C.T)) <= 1e-10
        assert np.linalg.eigvalsh(residual(A, P, lam))[-1] <= -1e-6 + 1e-6
        return calls

    def test_call_counts_do_not_grow_with_n(self, rng):
        small = self._counted_solve(rng, 4)
        large = self._counted_solve(rng, 10)  # 55 symmetric directions, 35 left after P B = C^T
        # the block: at P_part, on the stack of directions, at the answer;
        # the equality map: on the stacked basis, at the answer
        assert small == large == {"block": 3, "equality": 2}


class TestProblemValidation:
    @pytest.mark.parametrize("epsilon", [0.0, -1e-6, np.nan, np.inf])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        with pytest.raises(ValueError, match="finite and positive"):
            lmi.LmiProblem(dim=1, blocks=[lambda P: P], epsilon=epsilon)

    def test_report_fields(self):
        report = lmi.LmiReport(iterations=4, violation=0.5, equality_residual=0.0, inertia=(1, 0, 1),
                               message="m", gap_bound=0.25)
        assert report.to_dict() == {"iterations": 4, "violation": 0.5, "equality_residual": 0.0,
                                    "inertia": (1, 0, 1), "gap_bound": 0.25, "message": "m"}

    def test_unsatisfiable_equality_report_is_strict_json(self):
        # P B = C^T has no solution with B = 0 and C != 0: no iterate, violation inf
        problem = lmi.LmiProblem(
            dim=2,
            blocks=[lambda P: -P],
            equalities=[lmi.LinearEquality(lambda P: P @ np.zeros((2, 1)), np.array([[0.0], [1.0]]))],
        )
        with pytest.raises(LmiInfeasibleError) as excinfo:
            lmi.solve(problem)
        data = excinfo.value.report.to_dict()
        assert data["violation"] is None and data["iterations"] == 0
        json.dumps(data, allow_nan=False)
        assert excinfo.value.report.proves_infeasible

    @pytest.mark.parametrize(
        "violation, gap_bound, proves",
        [(np.inf, None, True), (1e-3, 2e-4, True), (1e-3, -2e-4, False), (1e-3, None, False), (-1.0, None, False)],
        ids=["no-equality-solution", "positive-bound", "negative-bound", "stall", "inertia-mismatch"],
    )
    def test_proof_of_infeasibility(self, violation, gap_bound, proves):
        report = lmi.LmiReport(iterations=3, violation=violation, equality_residual=0.0, gap_bound=gap_bound)
        assert report.proves_infeasible is proves
