import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import OVERFLOWING_SEARCHES, SINGULAR_HESSIAN_MODEL, lti_model, random_hyperbolic
from pdom import LtiSystem, find_passivity_storage, lmi, registry, verify_dissipativity
from pdom.differential import check_diff_dominance
from pdom.errors import LmiInfeasibleError, NumericalError
from pdom.lti import DominanceCertificate, check_dominance, construct_certificate, residual
from pdom.model import vertex_family

RATE = registry.KNOWN_RATE


class TestSvec:
    def test_round_trip_preserves_inner_product(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 8))
            S = _sym(rng, n)
            T = _sym(rng, n)
            assert np.allclose(lmi.smat(_svec_reference(S), n), S)
            assert _svec_reference(S) @ _svec_reference(T) == pytest.approx(np.sum(S * T))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cached_index_matches_the_formulas_bitwise(self, rng, n):
        # the index gather against the original formulas, on signed zeros and values from 1e-300 to 1e300
        dsym = n * (n + 1) // 2
        values = rng.standard_normal(dsym) * 10.0 ** rng.integers(-300, 301, dsym)
        values[::3] = -0.0
        S = _smat_reference(values, n)
        stack = rng.standard_normal((7, dsym))
        assert _bits(lmi.smat(values, n)) == _bits(S)
        assert _bits(lmi.smat(stack, n)) == _bits(_smat_reference(stack, n))


def _svec_reference(S):
    idx = np.triu_indices(S.shape[0])
    out = S[idx].copy()
    out[idx[0] != idx[1]] *= np.sqrt(2.0)
    return out


def _smat_reference(v, n):
    idx = np.triu_indices(n)
    vals = np.array(v, dtype=float)
    vals[..., idx[0] != idx[1]] /= np.sqrt(2.0)
    S = np.zeros(vals.shape[:-1] + (n, n))
    S[..., idx[0], idx[1]] = vals
    S[..., idx[1], idx[0]] = vals
    return S


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


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


class TestNumericalStall:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_hessian_ends_the_search(self, monkeypatch):
        # the LinAlgError of a singular Newton system ends the search as a stall would: _finalize reports it
        singular = []
        solve = np.linalg.solve

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(a.shape)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        system = LtiSystem(**{key: np.array(value) for key, value in SINGULAR_HESSIAN_MODEL.items()})
        with pytest.raises(LmiInfeasibleError) as excinfo:
            find_passivity_storage(system, 5e4, 0)
        report = excinfo.value.report
        assert singular, "the model no longer reaches a singular Hessian"
        assert report.message == "barrier search ended without a storage"
        assert report.gap_bound is None and not report.proves_infeasible

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", OVERFLOWING_SEARCHES)
    def test_overflow_is_a_numerical_failure(self, case):
        # a particular solution that overflows is a NumericalError; a Newton system that does ends the search as
        # a stall, and the report proves nothing (a gap bound read off an overflowed Hessian would)
        model, rate = OVERFLOWING_SEARCHES[case]
        system = LtiSystem(**{key: np.array(value, dtype=float) for key, value in model.items()})
        with pytest.raises((NumericalError, LmiInfeasibleError)) as excinfo:
            find_passivity_storage(system, rate, 1)
        assert not (isinstance(excinfo.value, LmiInfeasibleError) and excinfo.value.report.proves_infeasible)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ball_without_interior_ends_the_search(self, monkeypatch, msd_c8):
        # a ball slack R^2 - |c|^2 that is not positive ends the search as a slack that lost definiteness does,
        # before the barrier divides by it; a zero radius makes it zero at the first iterate
        monkeypatch.setattr(lmi, "_RADIUS", 0.0)
        with pytest.raises(LmiInfeasibleError) as excinfo:
            find_passivity_storage(msd_c8, RATE, 1)
        report = excinfo.value.report
        assert (report.iterations, report.message) == (1, "barrier search ended without a storage")


def _vertex_search(name, p, rate):
    """One block per vertex of the built-in Lur'e model, residual(J, P, rate), inertia (p, 0, n - p), margin 1e-6."""
    system = registry.builtin_system(name)
    matrices, _ = vertex_family(system)
    problem = lmi.LmiProblem(
        dim=system.n,
        blocks=[lambda P, J=J: residual(J, P, rate) for J in matrices],
        inertia_target=(p, 0, system.n - p),
        epsilon=1e-6,
    )
    return system, lmi.solve(problem)


class TestVertexSearchTable:
    """The vertex-family storage search: which rates have a uniform storage, and which provably have none."""

    @pytest.mark.parametrize(
        "name, p, rate",
        [("nl-loop", 2, rate) for rate in (0.42, 0.43, 0.45, 0.5, 1, 3, 6, 7.5)]
        + [("nl-msd", 1, rate) for rate in (0.4, 0.5, 1, 4, 7.5)]
        + [("nl-msd-monotone", 0, rate) for rate in (0, 0.03, 0.06, 0.062)]
        + [("nl-msd-monotone", 1, rate) for rate in (0.26, 0.3, 1, 7.7)],
    )
    def test_storage_found(self, name, p, rate):
        system, P = _vertex_search(name, p, rate)
        verdict = check_diff_dominance(system, P, rate)
        assert verdict.passed and verdict.p == p

    # each rate lies outside the model's necessary rate window, so no storage exists there; nl-loop at
    # 0.402-0.41 is left out, as whether a storage exists there is open
    @pytest.mark.parametrize(
        "name, p, rate",
        [("nl-loop", 2, 0.3), ("nl-loop", 2, 7.7), ("nl-msd", 1, 0.3), ("nl-msd", 1, 7.7), ("nl-msd-monotone", 0, 0.07)],
    )
    def test_no_storage_proved(self, name, p, rate):
        with pytest.raises(LmiInfeasibleError) as excinfo:
            _vertex_search(name, p, rate)
        assert excinfo.value.report.proves_infeasible


def _workload_planted(rng, n, p, m, margin, rate=0.5):
    """The search benchmark's planted problem: a storage of inertia (p, 0, n - p) and norm 1 with P B = C^T and
    residual -2 margin I; a unit skew coupling and a B of unit norm."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mags = np.exp(rng.uniform(-0.5, 0.5, n))
    P = Q @ np.diag(np.r_[-np.ones(p), np.ones(n - p)] * mags) @ Q.T / mags.max()
    P = 0.5 * (P + P.T)
    K = rng.standard_normal((n, n))
    K -= K.T
    A = np.linalg.solve(P, -margin * np.eye(n) + K / np.linalg.norm(K, 2)) - rate * np.eye(n)
    B = rng.standard_normal((n, m))
    B /= np.linalg.norm(B, 2)
    return LtiSystem(A=A, B=B, C=(P @ B).T)


class TestSearchSteps:
    # the engine solved 651 slacks over this battery when its barrier weight started at (block dimensions + 1),
    # a first centre as wide as the unit slack; one solve starts each search, and one more each Newton step
    PARENT_SOLVES = 651

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_planted_battery_steps(self, monkeypatch):
        rng = np.random.default_rng(38)
        solves = [0]
        sym_eigen = lmi.mc.sym_eigen

        def counted(S):
            solves[0] += 1
            return sym_eigen(S)

        monkeypatch.setattr(lmi.mc, "sym_eigen", counted)
        for n in (4, 6, 10, 16):
            for p in (0, 1, 2):
                for m in (1, 2):
                    for margin in (1e-1, 1e-2) * 2:  # two draws of each combination
                        system = _workload_planted(rng, n, p, m, margin)
                        cert = find_passivity_storage(system, 0.5, p)
                        P = cert.P
                        assert verify_dissipativity(system, cert).passed
                        assert np.linalg.norm(P @ system.B - system.C.T) <= 1e-8 * np.linalg.norm(system.C)
                        assert np.linalg.eigvalsh(residual(system.A, P, 0.5))[-1] < 0
                        assert int(np.sum(np.linalg.eigvalsh(P) < 0)) == p
        # the margin leaves room for BLAS rounding across numpy builds
        assert solves[0] <= 0.85 * self.PARENT_SOLVES, solves[0]


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


class TestBlockData:
    """The blocks' values at P_part and on the directions are checked once, before the first Newton step."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "block",
        [lambda P: residual(np.diag([1e308, -1e308]), P, 0.5), lambda P: np.where(P == 0, P, np.nan)],
        ids=["overflow", "nan"],
    )
    def test_non_finite_block_data_fail_before_the_first_step(self, monkeypatch, block):
        def no_step(S):
            raise AssertionError("a slack was solved")

        monkeypatch.setattr(lmi.mc, "sym_eigen", no_step)
        with pytest.raises(NumericalError, match="not finite"):
            lmi.solve(lmi.LmiProblem(dim=2, blocks=[block], epsilon=1e-4))

    def test_a_search_loads_only_the_engine(self):
        # in a fresh interpreter: after import pdom, a storage search adds pdom.lmi and nothing else;
        # scipy, whose linalg module alone would add some 20 MB to the process, is never loaded
        code = """if True:
            import sys
            import pdom
            from pdom import registry
            system = registry.msd(8.0)
            before = set(sys.modules)
            pdom.find_passivity_storage(system, registry.KNOWN_RATE, 1)
            assert set(sys.modules) - before == {"pdom.lmi"}, set(sys.modules) - before
            assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
            print("ok")
        """
        src = os.path.dirname(os.path.dirname(lmi.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0 and out.stdout == "ok\n", out.stderr


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
