import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import lti_model, random_hyperbolic
from oracles import supply_value
from pdom import registry
from pdom.dissipativity import (
    DissipativityCertificate,
    SupplyRate,
    dissipation_blocks,
    find_passivity_storage,
    min_gain,
    small_gain_pair,
    supply_gain,
    supply_passivity,
    verify_dissipativity,
)
from pdom.errors import DimensionError, LmiInfeasibleError, NumericalError
from pdom.lti import DominanceCertificate, LtiSystem, construct_certificate, residual

RATE = registry.KNOWN_RATE


class TestNamedSupplies:
    def test_passivity_scalar(self):
        s = supply_passivity(1)
        assert supply_value(s, [1.0], [-1.0]) == -2.0

    def test_passivity_two_channel(self):
        s = supply_passivity(2)
        assert np.allclose(s.Q, np.zeros((2, 2)))
        assert np.allclose(s.L, np.eye(2))
        assert np.allclose(s.R, np.zeros((2, 2)))

    def test_gain_forms(self):
        s = supply_gain(0.3, 1, 1)
        assert s.R[0, 0] == pytest.approx(0.09)
        assert supply_value(supply_gain(0.0, 1, 1), [2.0], [5.0]) == -4.0
        assert supply_value(supply_gain(1.0, 1, 1), [1.0], [1.0]) == 0.0

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 1e200, np.float64(1e155), -0.1])
    def test_gain_refuses_nan_negative_and_overflowing_bounds(self, gamma):
        with pytest.raises(ValueError, match="nonnegative with a finite square"):
            supply_gain(gamma, 1, 1)

    def test_gain_keeps_the_largest_finite_square(self):
        assert supply_gain(1e154, 1, 1).R[0, 0] == 1e308

    def test_shorthand_round_trip(self):
        s = SupplyRate.from_dict({"kind": "gain", "gamma": 0.5}, r=1, m=1)
        assert s.R[0, 0] == pytest.approx(0.25)
        back = SupplyRate.from_dict(s.to_dict())
        assert np.allclose(back.Q, s.Q)

    def test_scaling_positive_only(self):
        with pytest.raises(ValueError):
            supply_passivity(1).scaled(-1.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), np.float64(np.inf)], ids=["nan", "inf", "numpy-inf"])
    def test_scaling_refuses_non_finite(self, tau):
        with pytest.raises(ValueError, match="finite and positive"):
            supply_passivity(1).scaled(tau)

    def test_scaling_refuses_overflow(self):
        with pytest.raises(ValueError, match="overflows"):
            supply_gain(1e150, 1, 1).scaled(1e10)
        # the balanced pair scales the second supply by gamma1 / gamma2, here 1e310
        with pytest.raises(ValueError, match="finite and positive"):
            small_gain_pair(1e150, 1e-160)


class TestDissipativityBlock:
    def test_passivity_offdiag_vanishes(self, msd_c8):
        P = registry.PASSIVITY_STORAGE_C8
        block = dissipation_blocks(residual(msd_c8.A[None], P, RATE), msd_c8, P, supply_passivity(1))[0]
        assert np.allclose(block[:2, 2], 0.0)  # P B - C^T L = 0

    def test_zero_system_zero_block(self):
        sys = LtiSystem(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((1, 2)), D=np.zeros((1, 1)))
        supply = SupplyRate(Q=np.zeros((1, 1)), L=np.zeros((1, 1)), R=np.zeros((1, 1)))
        assert np.allclose(dissipation_blocks(residual(sys.A[None], np.eye(2), 0.0), sys, np.eye(2), supply)[0], np.zeros((3, 3)))

    def test_gain_block_value(self, msd_c8):
        P = registry.PASSIVITY_STORAGE_C8
        block = dissipation_blocks(residual(msd_c8.A[None], P, RATE), msd_c8, P, supply_gain(0.31, 1, 1))[0]
        expected = np.array(
            [
                [-2.5358, -2.0, 0.0],
                [-2.0, -12.4642, 1.0],
                [0.0, 1.0, -0.0961],
            ]
        )
        assert block == pytest.approx(expected, abs=1e-4)
        assert np.linalg.eigvalsh(block)[-1] <= 0

    def test_feedthrough_terms(self, rng):
        # D != 0 supported in verification: cross-check against the scalar form
        n, m, r = 3, 2, 2
        A = rng.standard_normal((n, n))
        sys = LtiSystem(
            A=A,
            B=rng.standard_normal((n, m)),
            C=rng.standard_normal((r, n)),
            D=rng.standard_normal((r, m)),
        )
        P = rng.standard_normal((n, n))
        P = 0.5 * (P + P.T)
        supply = SupplyRate(
            Q=np.diag(rng.standard_normal(r)),
            L=rng.standard_normal((r, m)),
            R=np.diag(rng.standard_normal(m)),
        )
        lam = 0.3
        block = dissipation_blocks(residual(sys.A[None], P, lam), sys, P, supply, epsilon=0.1)[0]
        for _ in range(200):
            x = rng.standard_normal(n)
            u = rng.standard_normal(m)
            xdot = sys.A @ x + sys.B @ u
            y = sys.C @ x + sys.D @ u
            lhs = 2 * xdot @ P @ x + 2 * lam * x @ P @ x + 0.1 * x @ x - supply_value(supply, y, u)
            z = np.concatenate([x, u])
            assert lhs == pytest.approx(z @ block @ z, rel=1e-9, abs=1e-9)


class TestVerify:
    def test_passivity_certificate(self, msd_c8):
        cert = DissipativityCertificate(
            P=registry.PASSIVITY_STORAGE_C8, rate=RATE, epsilon=0.0, p=1, supply=supply_passivity(1)
        )
        assert verify_dissipativity(msd_c8, cert).passed

    def test_small_gain_fails(self, msd_c8):
        cert = DissipativityCertificate(
            P=registry.PASSIVITY_STORAGE_C8, rate=RATE, epsilon=0.0, p=1, supply=supply_gain(0.2, 1, 1)
        )
        assert not verify_dissipativity(msd_c8, cert).passed

    @pytest.mark.parametrize("p", [-1, 3])
    def test_claimed_p_out_of_range_rejected(self, p):
        with pytest.raises(ValueError, match="outside"):
            DissipativityCertificate(
                P=registry.PASSIVITY_STORAGE_C8, rate=RATE, epsilon=0.0, p=p, supply=supply_passivity(1)
            )

    @pytest.mark.parametrize("field", ["rate", "epsilon"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_claim_rejected(self, field, bad):
        claim = {"rate": RATE, "epsilon": 0.0, field: bad}
        with pytest.raises(ValueError, match="finite"):
            DissipativityCertificate(P=registry.PASSIVITY_STORAGE_C8, p=1, supply=supply_passivity(1), **claim)

    @pytest.mark.parametrize("p", [1.5, True])
    def test_certificate_file_with_a_p_that_is_not_an_integer(self, msd_c8, p):
        data = {"P": registry.PASSIVITY_STORAGE_C8.tolist(), "lambda": RATE, "p": p, "supply": {"kind": "passivity"}}
        with pytest.raises(ValueError, match="integer"):
            DissipativityCertificate.from_dict(data, r=1, m=1)

    @pytest.mark.parametrize("p", [1, np.int64(1)])
    def test_integer_p_is_stored_as_int(self, msd_c8, p):
        data = {"P": registry.PASSIVITY_STORAGE_C8.tolist(), "lambda": RATE, "p": p, "supply": {"kind": "passivity"}}
        cert = DissipativityCertificate.from_dict(data, r=1, m=1)
        assert type(cert.p) is int and type(cert.to_dict()["p"]) is int
        assert verify_dissipativity(msd_c8, cert).passed

    @pytest.mark.parametrize("field", ["lambda", "epsilon"])
    @pytest.mark.parametrize("bad", [True, "0.5", None])
    def test_certificate_file_with_a_rate_or_margin_that_is_not_a_number(self, field, bad):
        data = {"P": registry.PASSIVITY_STORAGE_C8.tolist(), "lambda": RATE, "p": 1, "supply": {"kind": "passivity"},
                field: bad}
        with pytest.raises(ValueError, match="must be a number"):
            DissipativityCertificate.from_dict(data, r=1, m=1)

    def test_certificate_round_trip(self):
        cert = DissipativityCertificate(registry.PASSIVITY_STORAGE_C8, RATE, 1e-3, 1, supply_gain(0.5, 1, 1))
        data = cert.to_dict()
        assert list(data) == ["P", "lambda", "epsilon", "p", "supply"]
        back = DissipativityCertificate.from_dict(data)
        assert type(back) is DissipativityCertificate and back == cert and back.to_dict() == data
        assert back != DissipativityCertificate.from_dict({**data, "supply": {"kind": "passivity"}}, r=1, m=1)

    def test_a_dominance_certificate_plus_its_supply(self):
        # the claim and its check are the parent's; == still tells the two kinds apart
        assert issubclass(DissipativityCertificate, DominanceCertificate)
        assert not {"__post_init__", "P", "rate", "epsilon", "p"} & set(vars(DissipativityCertificate))
        cert = DissipativityCertificate(P=registry.PASSIVITY_STORAGE_C8, rate=RATE, epsilon=0.0, p=1,
                                        supply=supply_passivity(1))
        dominance = DominanceCertificate.from_dict(cert.to_dict())
        assert type(dominance) is DominanceCertificate and dominance.to_dict() == {
            k: v for k, v in cert.to_dict().items() if k != "supply"
        }
        assert cert != dominance and dominance != cert

    def test_integer_rate_is_stored_as_float(self, msd_c8):
        data = {"P": registry.PASSIVITY_STORAGE_C8.tolist(), "lambda": 1, "epsilon": 0, "p": 1,
                "supply": {"kind": "passivity"}}
        cert = DissipativityCertificate.from_dict(data, r=1, m=1)
        assert type(cert.rate) is float and type(cert.epsilon) is float
        assert cert.to_dict()["lambda"] == 1.0 and type(cert.to_dict()["lambda"]) is float

    def test_large_gain_eventually_passes(self, rng):
        A, p = random_hyperbolic(rng, 3, 0.8)
        sys = LtiSystem(A=A, B=rng.standard_normal((3, 1)), C=0.01 * rng.standard_normal((1, 3)), D=np.zeros((1, 1)))
        cert = construct_certificate(sys, 0.8, p)
        gamma = 0.5
        passed = False
        for _ in range(20):
            dcert = DissipativityCertificate(
                P=cert.P, rate=0.8, epsilon=0.0, p=p, supply=supply_gain(gamma, 1, 1)
            )
            if verify_dissipativity(sys, dcert).passed:
                passed = True
                break
            gamma *= 2.0
        assert passed

    def test_gain_feasibility_monotone(self, msd_c8, rng):
        P = registry.PASSIVITY_STORAGE_C8
        gammas = np.sort(rng.uniform(0.05, 1.0, size=12))
        verdicts = [
            verify_dissipativity(
                msd_c8,
                DissipativityCertificate(P=P, rate=RATE, epsilon=0.0, p=1, supply=supply_gain(g, 1, 1)),
            ).passed
            for g in gammas
        ]
        # once feasible, stays feasible for larger gamma
        assert verdicts == sorted(verdicts)


class TestMinGain:
    def test_msd_boundary(self, msd_c8):
        gamma = min_gain(msd_c8, registry.PASSIVITY_STORAGE_C8, RATE)
        assert gamma == pytest.approx(0.3031, abs=5e-4)

    def test_msd_boundary_is_sharp(self, msd_c8):
        P = registry.PASSIVITY_STORAGE_C8
        gamma = min_gain(msd_c8, P, RATE)

        def passes(g):
            cert = DissipativityCertificate(P=P, rate=RATE, epsilon=0.0, p=1, supply=supply_gain(g, 1, 1))
            return verify_dissipativity(msd_c8, cert).passed

        assert passes(gamma)
        assert not passes(0.999 * gamma)

    def test_scaling_output_shrinks_gain(self, msd_c8):
        gamma_full = min_gain(msd_c8, registry.PASSIVITY_STORAGE_C8, RATE)
        half = LtiSystem(A=msd_c8.A, B=msd_c8.B, C=0.5 * msd_c8.C, D=msd_c8.D)
        gamma_half = min_gain(half, registry.PASSIVITY_STORAGE_C8, RATE)
        assert gamma_half < gamma_full

    def test_random_boundaries_are_sharp(self, rng):
        # half of the systems have a feedthrough D, which enters both W and the Schur complement
        for trial in range(40):
            n, m, r = int(rng.integers(2, 5)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
            lam = float(rng.uniform(0.1, 1.0))
            A, p = random_hyperbolic(rng, n, lam)
            cert = construct_certificate(lti_model(A), lam, p)
            C = rng.standard_normal((r, n))
            C *= np.sqrt(0.5 * cert.epsilon) / max(1.0, np.linalg.norm(C, 2))
            D = rng.standard_normal((r, m)) if trial % 2 else np.zeros((r, m))
            sys = LtiSystem(A=A, B=rng.standard_normal((n, m)), C=C, D=D)
            gamma = min_gain(sys, cert.P, lam)
            for g, expected in ((gamma, True), (0.999 * gamma, False)):
                gain_cert = DissipativityCertificate(P=cert.P, rate=lam, epsilon=0.0, p=p, supply=supply_gain(g, r, m))
                assert verify_dissipativity(sys, gain_cert).passed == expected

    def test_indefinite_top_block_rejected(self, msd_c8):
        # rate 0: A^T P + P A + C^T C = [[0, -2], [-2, -15]] for P = diag(-1, 1) is indefinite,
        # so no gain works
        with pytest.raises(ValueError, match="not negative definite"):
            min_gain(msd_c8, registry.PASSIVITY_STORAGE_C8, 0.0)

    def test_zero_band_storage_rejected(self, msd_c8):
        with pytest.raises(ValueError, match="zero band"):
            min_gain(msd_c8, np.diag([-1.0, 1e-12]), RATE)

    def test_overflowing_residual_is_a_numerical_failure(self, msd_c8):
        # 2 lam P overflows: a NumericalError from the block's check, with no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite"):
                min_gain(msd_c8, registry.PASSIVITY_STORAGE_C8, 1e308)

    @pytest.mark.parametrize(
        "A, B, C, P, lam",
        [
            ([[0, 1], [-1, -8]], [[0], [1e200]], [[0, 1e200]], np.diag([-1.0, 1.0]), 1.2679),
            ([[-5e-301, 0], [0, -1]], [[1e10], [0]], [[0, 0]], np.eye(2), 0.0),
        ],
        ids=["C^T C and P B", "Z^T Z"],
    )
    def test_overflowing_gain_terms_are_a_numerical_failure(self, A, B, C, P, lam):
        # C^T C and P B overflow, or Z^T Z does where M has an eigenvalue near 0: the eigensolves refuse the
        # non-finite matrix, with no RuntimeWarning on the way
        sys = LtiSystem(A=np.array(A, dtype=float), B=np.array(B, dtype=float), C=np.array(C, dtype=float))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="non-finite"):
                min_gain(sys, P, lam)

    @pytest.mark.parametrize("lam, lyapunov", [(np.nan, False), (np.inf, False), (None, False), (True, False), (-0.05, True)])
    def test_rate_held_to_the_claim_rule(self, msd_c8, lam, lyapunov):
        # before the claim check: NumericalError, TypeError, True read as rate 1, and gamma = 1.118 at rate -0.05
        P = sla.solve_continuous_lyapunov(msd_c8.A.T, -np.eye(2)) if lyapunov else registry.PASSIVITY_STORAGE_C8
        with pytest.raises(ValueError, match="rate must be"):
            min_gain(msd_c8, P, lam)



class TestStorageSearch:
    def test_msd_passivity_storage(self, msd_c8):
        cert = find_passivity_storage(msd_c8, RATE, 1)
        assert np.max(np.abs(cert.P @ msd_c8.B - msd_c8.C.T)) == 0.0
        assert verify_dissipativity(msd_c8, cert).passed

    def test_planted_solution(self, rng):
        # choose C = B^T P0 for a constructed dominant storage P0: feasible by design
        for _ in range(5):
            A, p = random_hyperbolic(rng, 3, 1.0)
            P0 = construct_certificate(lti_model(A), 1.0, p).P
            B = rng.standard_normal((3, 1))
            sys = LtiSystem(A=A, B=B, C=(B.T @ P0), D=np.zeros((1, 1)))
            cert = find_passivity_storage(sys, 1.0, p)
            assert verify_dissipativity(sys, cert).passed
            assert np.max(np.abs(cert.P @ sys.B - sys.C.T)) <= 1e-10

    @pytest.mark.parametrize("n", [4, 6, 10, 16, 24])
    def test_planted_battery(self, n):
        # every problem has an exact storage of inertia (p, 0, n - p) with
        # P B = C^T and residual -2 margin I; each must be found and rechecked
        rng = np.random.default_rng(n)
        lam = 0.5
        for p in (0, 1, 2):
            for m in (1, 2):
                for margin in (1e-1, 1e-2, 1e-3):
                    sys = _planted_passive(rng, n, p, m, margin, lam)
                    P = find_passivity_storage(sys, lam, p).P
                    scale = np.linalg.norm(P, 2) * np.linalg.norm(sys.B, 2) + np.linalg.norm(sys.C)
                    assert np.linalg.norm(P @ sys.B - sys.C.T) <= 1e-8 * scale
                    eigenvalues = np.linalg.eigvalsh(P)
                    assert (np.sum(eigenvalues < 0), np.sum(eigenvalues > 0)) == (p, n - p)
                    shifted = sys.A + lam * np.eye(n)
                    assert np.linalg.eigvalsh(shifted.T @ P + P @ shifted)[-1] < 0

    @pytest.mark.parametrize("lam, p", [(RATE, 7), (RATE, -1), (-1.0, 1)])
    def test_impossible_claim_rejected(self, msd_c8, lam, p):
        with pytest.raises(ValueError, match="nonnegative|outside"):
            find_passivity_storage(msd_c8, lam, p)

    def test_unsatisfiable_equality(self):
        sys = LtiSystem(A=-np.eye(2), B=np.zeros((2, 1)), C=np.array([[1.0, 0.0]]), D=np.zeros((1, 1)))
        with pytest.raises(LmiInfeasibleError):
            find_passivity_storage(sys, 0.0, 0)

    def test_non_square_channel_rejected(self):
        sys = LtiSystem(A=-np.eye(2), B=np.ones((2, 1)), C=np.eye(2), D=np.zeros((2, 1)))
        with pytest.raises(DimensionError):
            find_passivity_storage(sys, 0.0, 0)


def _planted_passive(rng, n, p, m, margin, lam):
    """System with a storage P of inertia (p, 0, n - p), unit norm and P B = C^T,
    and (A + lam I)^T P + P (A + lam I) = -2 margin I."""
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    magnitudes = np.exp(rng.uniform(-0.5, 0.5, n))
    signs = np.r_[-np.ones(p), np.ones(n - p)]
    P = U @ np.diag(signs * magnitudes / magnitudes.max()) @ U.T
    P = 0.5 * (P + P.T)
    K = rng.standard_normal((n, n))
    K = (K - K.T) / np.linalg.norm(K - K.T, 2)
    A = np.linalg.solve(P, K - margin * np.eye(n)) - lam * np.eye(n)
    B = rng.standard_normal((n, m))
    B /= np.linalg.norm(B, 2)
    return LtiSystem(A=A, B=B, C=(P @ B).T, D=np.zeros((m, m)))


class TestPointwiseEquivalence:
    def test_block_sign_iff_sampled_inequality(self, rng):
        # block negativity is equivalent to the sampled dissipation inequality;
        # the top eigenvector is evaluated through the scalar oracle as the
        # violation witness candidate
        checked = 0
        while checked < 30:
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 3))
            r = int(rng.integers(1, 3))
            lam = float(np.abs(rng.standard_normal())) + 0.1
            A, p = random_hyperbolic(rng, n, lam)
            cert = construct_certificate(lti_model(A), lam, p)
            B = rng.standard_normal((n, m))
            C = rng.standard_normal((r, n))
            C *= np.sqrt(0.5 * cert.epsilon) / max(1.0, np.linalg.norm(C, 2))
            sys = LtiSystem(A=A, B=B, C=C, D=np.zeros((r, m)))
            gamma_star = min_gain(sys, cert.P, lam)
            gamma = gamma_star * 1.2 + 0.05 if checked % 2 == 0 else gamma_star * 0.5
            supply = supply_gain(gamma, r, m)
            block = dissipation_blocks(residual(sys.A[None], cert.P, lam), sys, cert.P, supply)[0]
            w, V = np.linalg.eigh(block)
            scale = max(1.0, np.abs(w).max())
            if abs(w[-1]) < 1e-6 * scale:
                continue
            samples = rng.standard_normal((1000, n + m))
            samples = np.vstack([samples, V[:, -1]])
            worst = -np.inf
            for z in samples:
                x, u = z[:n], z[n:]
                xdot = A @ x + B @ u
                y = C @ x
                lhs = 2 * xdot @ cert.P @ x + 2 * lam * (x @ cert.P @ x) - supply_value(supply, y, u)
                worst = max(worst, lhs)
            if w[-1] <= 0:
                assert worst <= 1e-8 * scale
            else:
                assert worst > 1e-8 * scale
            checked += 1
