import numpy as np
import pytest

from conftest import lti_model, random_hyperbolic
from oracles import supply_value
from pdom import registry
from pdom.differential import check_diff_dominance
from pdom.dissipativity import (
    DissipativityCertificate,
    SupplyRate,
    small_gain_pair,
    supply_gain,
    supply_passivity,
    verify_dissipativity,
)
from pdom.errors import (
    CouplingError,
    DimensionError,
    UnsupportedConfigurationError,
)
from pdom.interconnect import (
    _loop_coupling,
    closed_loop_certificate,
    coupling_condition,
    network,
    network_supply,
)
from pdom.lti import LtiSystem, check_dominance, construct_certificate, eigen_split_test
from pdom.model import Channel, LureSystem, cubic_saturated

RATE = registry.KNOWN_RATE
LOOP = [[0.0, -1.0], [1.0, 0.0]]  # u1 = -y2 + v1, u2 = y1 + v2 on one channel each


def _integrator():
    return LtiSystem(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], name="integrator")


def _loop(first, second):
    return network((first, second), _loop_coupling(first, second))


def _random_part(rng, n, m, r):
    channels = tuple(
        Channel(g=rng.standard_normal(n), h=rng.standard_normal(n), sigma=cubic_saturated(), alpha=-3.0, beta=1.0)
        for _ in range(int(rng.integers(0, 3)))
    )
    return LureSystem(A=rng.standard_normal((n, n)), B=rng.standard_normal((n, m)), C=rng.standard_normal((r, n)),
                      channels=channels)


class TestNetwork:
    def test_integrator_loop(self):
        loop = _loop(_integrator(), _integrator())
        assert np.allclose(loop.A, [[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(loop.B, np.eye(2))
        assert np.allclose(loop.C, np.eye(2))

    def test_block_structure(self, msd_c8):
        loop = _loop(msd_c8, msd_c8)
        assert np.allclose(loop.A[:2, 2:], -msd_c8.B @ msd_c8.C)
        assert np.allclose(loop.A[2:, :2], msd_c8.B @ msd_c8.C)

    def test_loop_is_the_hand_formula(self, rng):
        # M = [[0, -I], [I, 0]] gives [[A1, -B1 C2], [B2 C1, A2]] exactly, blockdiag(B) and blockdiag(C)
        for _ in range(300):
            m, r = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            sys1 = _random_part(rng, int(rng.integers(1, 5)), m, r)
            sys2 = _random_part(rng, int(rng.integers(1, 5)), r, m)
            loop = _loop(sys1, sys2)
            n1, n2 = sys1.n, sys2.n
            A = np.block([[sys1.A, -sys1.B @ sys2.C], [sys2.B @ sys1.C, sys2.A]])
            B = np.block([[sys1.B, np.zeros((n1, r))], [np.zeros((n2, m)), sys2.B]])
            C = np.block([[sys1.C, np.zeros((r, n2))], [np.zeros((m, n1)), sys2.C]])
            assert np.array_equal(loop.A, A) and np.array_equal(loop.B, B) and np.array_equal(loop.C, C)
            assert loop.is_strictly_proper and loop.D.shape == (r + m, m + r)
            padded = [np.concatenate([ch.g, np.zeros(n2)]) for ch in sys1.channels] + [
                np.concatenate([np.zeros(n1), ch.g]) for ch in sys2.channels
            ]
            assert len(loop.channels) == len(padded)
            assert all(np.array_equal(ch.g, g) for ch, g in zip(loop.channels, padded))

    def test_static_gain_is_the_hand_formula(self, rng):
        # one part with M = -k I is A - k B C, exactly
        for _ in range(300):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            sys = LtiSystem(A=rng.standard_normal((n, n)), B=rng.standard_normal((n, m)), C=rng.standard_normal((m, n)))
            k = float(rng.choice([0.0, 1.0, -3.2, 3.2, 100.0, 10.0 * rng.standard_normal()]))
            assert np.array_equal(network((sys,), -k * np.eye(m)).A, sys.A - k * sys.B @ sys.C)

    def test_closed_matrix(self, msd_c8):
        closed = network((msd_c8,), [[-3.0]])
        assert np.allclose(closed.A, msd_c8.A - 3.0 * msd_c8.B @ msd_c8.C)

    def test_k_sweep_keeps_dominance(self, msd_c8):
        for k in (0.0, 1.0, 10.0, 100.0):
            closed = network((msd_c8,), [[-k]])
            assert eigen_split_test(closed, RATE, 1).passed

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_vector_field_is_the_parts_under_the_coupling(self, rng, count):
        # network(parts, M).rhs(x) + B v is the stacked part.rhs(x_i) + B_i u_i with u = M C x + v
        for _ in range(25):
            parts = [
                _random_part(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 3)))
                for _ in range(count)
            ]
            m, r = sum(part.m for part in parts), sum(part.r for part in parts)
            M = rng.standard_normal((m, r)) * (rng.random((m, r)) < 0.6)
            net = network(parts, M)
            X, V = rng.standard_normal((7, net.n)), rng.standard_normal((7, m))
            U = X @ net.C.T @ M.T + V
            stacked, at_n, at_m = [], 0, 0
            for part in parts:
                stacked.append(part.rhs(X[:, at_n:at_n + part.n]) + U[:, at_m:at_m + part.m] @ part.B.T)
                at_n, at_m = at_n + part.n, at_m + part.m
            assert np.allclose(net.rhs(X) + V @ net.B.T, np.hstack(stacked), rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self, msd_c8):
        wide = LtiSystem(A=-np.eye(2), B=np.ones((2, 2)), C=np.ones((1, 2)), D=np.zeros((1, 2)))
        with pytest.raises(DimensionError):
            _loop(msd_c8, wide)

    def test_misshaped_coupling_rejected(self, msd_c8):
        for M in (np.zeros((2, 1)), np.zeros((1, 2)), np.zeros(3)):
            with pytest.raises(DimensionError):
                network((msd_c8, msd_c8), M)

    def test_feedthrough_rejected(self, msd_c8):
        direct = LtiSystem(A=-np.eye(1), B=np.eye(1), C=np.eye(1), D=np.eye(1))
        with pytest.raises(UnsupportedConfigurationError):
            _loop(msd_c8, direct)
        with pytest.raises(UnsupportedConfigurationError):
            network((direct,), [[-1.0]])

    def test_no_parts_rejected(self):
        with pytest.raises(DimensionError):
            network((), np.zeros((0, 0)))


class TestNetworkSupply:
    def test_two_passivity_supplies(self):
        s = supply_passivity(1)
        composed = network_supply((s, s), LOOP)
        assert np.allclose(composed.Q, np.zeros((2, 2)))
        assert np.allclose(composed.L, np.eye(2))
        assert np.allclose(composed.R, np.zeros((2, 2)))

    def test_two_gain_supplies(self):
        g = supply_gain(0.5, 1, 1)
        composed = network_supply((g, g), LOOP)
        assert np.allclose(composed.Q, np.diag([-0.75, -0.75]))
        assert np.allclose(composed.R, np.diag([0.25, 0.25]))

    def test_zero_supplies(self):
        z = SupplyRate(Q=np.zeros((1, 1)), L=np.zeros((1, 1)), R=np.zeros((1, 1)))
        composed = network_supply((z, z), LOOP)
        assert not np.any(composed.Q) and not np.any(composed.L) and not np.any(composed.R)

    def test_pointwise_identity(self, rng):
        # composed supply equals s1 + s2 under the loop equations, for any
        # (y1, y2, v1, v2)
        for _ in range(50):
            r1, r2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            s1 = SupplyRate(
                Q=_sym(rng, r1), L=rng.standard_normal((r1, r2)), R=_sym(rng, r2)
            )
            s2 = SupplyRate(
                Q=_sym(rng, r2), L=rng.standard_normal((r2, r1)), R=_sym(rng, r1)
            )
            composed = network_supply((s1, s2), _loop_coupling(s1, s2))
            y1, y2 = rng.standard_normal(r1), rng.standard_normal(r2)
            v1, v2 = rng.standard_normal(r2), rng.standard_normal(r1)
            u1 = -y2 + v1
            u2 = y1 + v2
            direct = supply_value(s1, y1, u1) + supply_value(s2, y2, u2)
            stacked = supply_value(composed, np.concatenate([y1, y2]), np.concatenate([v1, v2]))
            assert direct == pytest.approx(stacked, rel=1e-9, abs=1e-9)

    def test_network_pointwise_identity(self, rng):
        # for N parts and any M: sum_i s_i(y_i, u_i) with u = M y + v
        for _ in range(100):
            count = int(rng.integers(1, 5))
            rs, ms = rng.integers(1, 4, size=count), rng.integers(1, 4, size=count)
            supplies = [
                SupplyRate(Q=_sym(rng, r), L=rng.standard_normal((r, m)), R=_sym(rng, m)) for r, m in zip(rs, ms)
            ]
            M = rng.standard_normal((ms.sum(), rs.sum())) * (rng.random((ms.sum(), rs.sum())) < 0.6)
            composed = network_supply(supplies, M)
            y, v = rng.standard_normal(rs.sum()), rng.standard_normal(ms.sum())
            u = M @ y + v
            y_at, u_at = np.cumsum(rs)[:-1], np.cumsum(ms)[:-1]
            direct = sum(supply_value(s, yi, ui) for s, yi, ui in zip(supplies, np.split(y, y_at), np.split(u, u_at)))
            assert direct == pytest.approx(supply_value(composed, y, v), rel=1e-9, abs=1e-9)

    def test_misshaped_coupling_rejected(self):
        s = supply_passivity(1)
        with pytest.raises(DimensionError):
            network_supply((s, s), np.zeros((2, 1)))


def _sym(rng, n):
    S = rng.standard_normal((n, n))
    return 0.5 * (S + S.T)


class TestCouplingCondition:
    def test_passivity_pair_passes(self):
        s = supply_passivity(1)
        verdict = coupling_condition(s, s)
        assert verdict.passed and verdict.lmax == pytest.approx(0.0, abs=1e-12)

    def test_gain_pair_quarter(self):
        assert coupling_condition(supply_gain(0.5, 1, 1), supply_gain(0.5, 1, 1)).passed

    def test_gain_pair_large_fails(self):
        assert not coupling_condition(supply_gain(2.0, 1, 1), supply_gain(2.0, 1, 1)).passed

    def test_balanced_pair_decides_product(self):
        for g1, g2 in [(0.3, 3.0), (0.5, 1.9), (2.0, 0.49)]:
            s1, s2 = small_gain_pair(g1, g2)
            assert coupling_condition(s1, s2).passed == (g1 * g2 <= 1.0)


class TestClosedLoopCertificate:
    def test_two_passive_oscillators(self, msd_c8):
        cert = DissipativityCertificate(
            P=registry.PASSIVITY_STORAGE_C8, rate=RATE, epsilon=0.0, p=1, supply=supply_passivity(1)
        )
        closed_cert = closed_loop_certificate(msd_c8, cert, msd_c8, cert)
        assert closed_cert.p == 2
        loop = _loop(msd_c8, msd_c8)
        assert check_dominance(loop, closed_cert).passed

    def test_zero_dominant_pair_classical_stability(self):
        # two passive contracting systems: closed loop is 0-dominant
        sys = LtiSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
        cert = DissipativityCertificate(
            P=np.eye(1), rate=0.0, epsilon=0.0, p=0, supply=supply_passivity(1)
        )
        assert verify_dissipativity(sys, cert).passed
        closed_cert = closed_loop_certificate(sys, cert, sys, cert)
        assert closed_cert.p == 0
        loop = _loop(sys, sys)
        assert np.all(np.linalg.eigvals(loop.A).real < 0)
        assert check_dominance(loop, closed_cert).passed

    def test_rate_mismatch_rejected(self, msd_c8):
        c1 = DissipativityCertificate(
            P=registry.PASSIVITY_STORAGE_C8, rate=RATE, epsilon=0.0, p=1, supply=supply_passivity(1)
        )
        c2 = DissipativityCertificate(
            P=registry.PASSIVITY_STORAGE_C8, rate=0.5, epsilon=0.0, p=1, supply=supply_passivity(1)
        )
        with pytest.raises(ValueError, match="rates differ"):
            closed_loop_certificate(msd_c8, c1, msd_c8, c2)

    def test_rates_one_ulp_apart_rejected(self, msd_c8):
        # the loop takes one exact rate, the paper's uniform-rate premise: no slack around it
        c1, c2 = (
            DissipativityCertificate(P=registry.PASSIVITY_STORAGE_C8, rate=rate, epsilon=0.0, p=1,
                                     supply=supply_passivity(1))
            for rate in (RATE, np.nextafter(RATE, np.inf))
        )
        with pytest.raises(ValueError, match="rates differ"):
            closed_loop_certificate(msd_c8, c1, msd_c8, c2)

    def test_coupling_failure_rejected(self, msd_c8):
        c = DissipativityCertificate(
            P=registry.PASSIVITY_STORAGE_C8, rate=RATE, epsilon=0.0, p=1, supply=supply_gain(2.0, 1, 1)
        )
        with pytest.raises(CouplingError):
            closed_loop_certificate(msd_c8, c, msd_c8, c)

    def test_lure_pair_vertex_certificate(self):
        sys = registry.nonlinear_msd("mixed", "cubic")
        cert = DissipativityCertificate(
            P=registry.DIFF_STORAGE_MIXED, rate=1.0, epsilon=0.0, p=1, supply=supply_passivity(1)
        )
        closed_cert = closed_loop_certificate(sys, cert, sys, cert)
        assert closed_cert.p == 2
        loop = registry.nonlinear_loop()
        assert check_diff_dominance(loop, closed_cert.P, 1.0).passed

    @pytest.mark.parametrize("claims", [(0, 0), (2, 2), (1, 0)])
    def test_lure_pair_claim_contradicting_inertia_rejected(self, claims):
        # the storage has inertia (1, 0, 1); a claim of any other p must not compose
        sys = registry.nonlinear_msd("mixed", "cubic")
        c1, c2 = (
            DissipativityCertificate(
                P=registry.DIFF_STORAGE_MIXED, rate=1.0, epsilon=0.0, p=p, supply=supply_passivity(1)
            )
            for p in claims
        )
        with pytest.raises(CouplingError):
            closed_loop_certificate(sys, c1, sys, c2)

    def test_additivity_on_random_passive_pairs(self, rng):
        # planted passivity certificates compose into verified loop certificates
        built = 0
        while built < 10:
            A1, p1 = random_hyperbolic(rng, 3, 1.0)
            A2, p2 = random_hyperbolic(rng, 2, 1.0)
            P1 = construct_certificate(lti_model(A1), 1.0, p1).P
            P2 = construct_certificate(lti_model(A2), 1.0, p2).P
            B1 = rng.standard_normal((3, 1))
            B2 = rng.standard_normal((2, 1))
            sys1 = LtiSystem(A=A1, B=B1, C=(B1.T @ P1), D=np.zeros((1, 1)))
            sys2 = LtiSystem(A=A2, B=B2, C=(B2.T @ P2), D=np.zeros((1, 1)))
            c1 = DissipativityCertificate(P=P1, rate=1.0, epsilon=0.0, p=p1, supply=supply_passivity(1))
            c2 = DissipativityCertificate(P=P2, rate=1.0, epsilon=0.0, p=p2, supply=supply_passivity(1))
            if not (verify_dissipativity(sys1, c1).passed and verify_dissipativity(sys2, c2).passed):
                continue
            closed_cert = closed_loop_certificate(sys1, c1, sys2, c2)
            assert closed_cert.p == p1 + p2
            assert check_dominance(_loop(sys1, sys2), closed_cert).passed
            built += 1


class TestClassicalSpecialization:
    def test_small_gain_verdicts_match_stability(self):
        # p1 = p2 = 0 at rate 0: coupling verdicts reproduce the classical
        # small-gain conclusions on first-order lags with certified gains
        def lag(k, T):
            return LtiSystem(A=[[-1.0 / T]], B=[[k / T]], C=[[1.0]], D=[[0.0]])

        for k1, k2, T1, T2 in [(0.5, 1.5, 1.0, 2.0), (0.9, 1.0, 0.5, 3.0), (0.2, 4.0, 1.0, 1.0)]:
            sys1, sys2 = lag(k1, T1), lag(k2, T2)
            s1, s2 = small_gain_pair(k1 + 1e-6, k2 + 1e-6)
            c1 = DissipativityCertificate(P=np.array([[T1]]), rate=0.0, epsilon=0.0, p=0, supply=s1)
            tau = (k1 + 1e-6) / (k2 + 1e-6)
            c2 = DissipativityCertificate(P=tau * np.array([[T2]]), rate=0.0, epsilon=0.0, p=0, supply=s2)
            assert verify_dissipativity(sys1, c1).passed
            assert verify_dissipativity(sys2, c2).passed
            hypothesis_holds = k1 * k2 <= 1.0
            assert coupling_condition(s1, s2).passed == hypothesis_holds
            if hypothesis_holds:
                cert = closed_loop_certificate(sys1, c1, sys2, c2)
                assert cert.p == 0
                loop = _loop(sys1, sys2)
                assert np.all(np.linalg.eigvals(loop.A).real < 0)
                assert check_dominance(loop, cert).passed
