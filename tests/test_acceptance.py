"""Acceptance gate: every criterion below must hold at its stated tolerance.

Criteria 1-5 re-use the built-in reproduction suites (one runtime-heavy run
per suite, shared through module fixtures); criterion 6 runs the property
batteries that back the non-tabulated claims. One summary line per criterion
is printed as the checks pass.
"""

import numpy as np
import pytest

from conftest import lti_model, random_hyperbolic
from oracles import projective_measure, ratio_trace
from pdom import registry, reproduce
from pdom.cones import QuadraticCone, positivity_probe
from pdom.dissipativity import dissipation_blocks, min_gain, supply_gain
from pdom.errors import NonHyperbolicError, SplitMismatchError
from pdom.interconnect import _loop_coupling, network, network_supply
from pdom.lti import (
    LtiSystem,
    check_dominance,
    construct_certificate,
    eigen_split_test,
    residual,
)
from pdom.matrixcore import expm, inertia_of
from pdom.sim import integrate, integrate_batch


@pytest.fixture(scope="module")
def suite1():
    return reproduce.example1()


@pytest.fixture(scope="module")
def suite2():
    return reproduce.example2()


@pytest.fixture(scope="module")
def suite3():
    return reproduce.example3()


def _require(suite, fragments):
    """Every named check must be present and must have passed."""
    for fragment in fragments:
        matches = [line for line in suite.lines if fragment in line.name]
        assert matches, f"no check matching {fragment!r} in {suite.suite}"
        for line in matches:
            assert line.status == "PASS", f"{line.name}: {line.status} ({line.detail})"


def test_criterion_1_linear_reproduction(suite1):
    _require(
        suite1,
        [
            "c=4: eigenvalues",
            "c=4: known storage has inertia (1,0,1)",
            "c=4: known storage passes the dominance LMI",
            "c=4: constructed certificate passes with positive margin",
            "c=8: known storage has inertia (1,0,1)",
            "c=8: known storage passes the dominance LMI",
            "c=8: constructed certificate passes with positive margin",
        ],
    )
    print("PASS criterion 1: damping-4/8 spectra, known storages, own certificates")


def test_criterion_2_passivity(suite2):
    _require(
        suite2,
        [
            "P B = C^T exactly",
            "storage passes the dominance LMI",
            "negative feedback k=0 keeps 1-dominance",
            "negative feedback k=1 keeps 1-dominance",
            "negative feedback k=10 keeps 1-dominance",
            "negative feedback k=100 keeps 1-dominance",
        ],
    )
    print("PASS criterion 2: exact passivity storage and the k-sweep")


def test_criterion_3_gain_bound(suite2):
    _require(
        suite2,
        [
            "minimum feasible gain bound in [0.300, 0.307]",
            "feedback k=3.2 keeps 1-dominance",
            "feedback k=-3.2 keeps 1-dominance",
            "coupling passes below the small-gain boundary",
        ],
    )
    print("PASS criterion 3: gain bisection and the small-gain coupling boundary")


def test_criterion_4_vertex_certificates(suite3):
    _require(
        suite3,
        [
            "cubic spring: storage diag(-1,1) is a uniform vertex certificate",
            "cubic spring: vertex residual determinants equal 28 - (s-1)^2 > 0",
            "mixed output: storage [[-2,1],[1,2]] gives differential passivity",
            "mixed output: feasible slope interval matches the roots of s^2 + 5 s - 10",
            "monotone spring: vertex s=-2 passes, s=-0.5 fails",
        ],
    )
    # the monotone-spring uniform claim must surface as WARN, not silence or FAIL
    assert any("NOT a uniform certificate" in line.name for line in suite3.warnings)
    print("PASS criterion 4: vertex certificates, with the monotone-claim WARN emitted")


def test_criterion_5_closed_loop(suite3):
    _require(
        suite3,
        [
            "loop: block-diagonal storage has inertia (2,0,2)",
            "loop: all 4 composed vertices pass the rate-1 LMI",
            "loop: 10 generic initial conditions converge to a limit cycle",
            "loop: estimated periods agree within 1%",
            "loop: the origin equilibrium stays put",
            "single oscillator from (1,1)",
        ],
    )
    print("PASS criterion 5: loop certificates and the cycle/fixed-point dichotomy")


class TestCriterion6Properties:
    def test_split_certificate_equivalence(self):
        # construction succeeds iff the split test passes, on 200 random systems
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            lam = float(np.abs(rng.standard_normal()))
            A, p = random_hyperbolic(rng, n, lam)
            assert eigen_split_test(lti_model(A), lam, p).passed
            cert = construct_certificate(lti_model(A), lam, p)
            assert cert.epsilon > 0
            verdict = check_dominance(lti_model(A), cert)
            assert verdict.passed
            assert inertia_of(cert.P).as_tuple() == (p, 0, n - p)
            wrong = p + 1 if p < n else p - 1
            with pytest.raises((SplitMismatchError, NonHyperbolicError)):
                construct_certificate(lti_model(A), lam, wrong)
        print("PASS criterion 6a: split/certificate equivalence on 200 random systems")

    def test_cone_invariance_probe(self):
        # every certified system ships a cone whose boundary flows interior
        rng = np.random.default_rng(2)
        certified = []
        for c in (4.0, 8.0):
            sys = registry.msd(c)
            certified.append((sys.A, registry.KNOWN_STORAGE[int(c)]))
            certified.append((sys.A, construct_certificate(sys, registry.KNOWN_RATE, 1).P))
        while len(certified) < 9:
            n = int(rng.integers(2, 6))
            lam = float(np.abs(rng.standard_normal())) + 0.2
            A, p = random_hyperbolic(rng, n, lam)
            if not 0 < p < n:
                continue
            certified.append((A, construct_certificate(lti_model(A), lam, p).P))
        for A, P in certified:
            p = inertia_of(P).negative
            cone = QuadraticCone(P=P, p=p)
            verdict = positivity_probe(lti_model(A), cone, (0.1, 1.0), 100, rng)
            assert verdict.passed, f"cone probe failed (worst {verdict.worst_value:.3e})"
        print(f"PASS criterion 6b: cone invariance probes on {len(certified)} certified systems")

    def test_projective_ratio_monotone(self):
        # 50 trajectories across the two oscillators: ratio never increases
        rng = np.random.default_rng(3)
        total = 0
        for c in (4.0, 8.0):
            sys = registry.msd(c)
            measure = projective_measure(sys, registry.KNOWN_RATE, 1)
            X0 = rng.standard_normal((25, 2))
            # keep a clear dominant component so U(x(0)) > 0
            X0[:, 0] += np.sign(X0[:, 0]) + 0.5
            for traj in integrate_batch(sys, X0, t_end=5.0, dt=1e-3, record_every=5):
                trace = ratio_trace(measure, traj)
                assert trace.envelope_ok
                assert np.all(np.diff(trace.ratio) <= 1e-6 * np.maximum(1.0, trace.ratio[:-1]))
                total += 1
        assert total == 50
        print("PASS criterion 6c: projective ratio non-increasing on 50 trajectories")

    def test_dissipation_block_pointwise_equivalence(self):
        # 100 instances x 1000 samples at tolerance 1e-8: block sign iff the
        # sampled scalar dissipation inequality (top eigenvector included as
        # the witness candidate, evaluated through the independent oracle)
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 100:
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
            scale = max(1.0, float(np.abs(w).max()))
            if abs(w[-1]) < 1e-6 * scale:
                continue
            Z = rng.standard_normal((1000, n + m))
            Z = np.vstack([Z, V[:, -1]])
            X, U = Z[:, :n], Z[:, n:]
            Xdot = X @ A.T + U @ B.T
            Y = X @ C.T
            lhs = (
                2.0 * np.einsum("ij,jk,ik->i", Xdot, cert.P, X)
                + 2.0 * lam * np.einsum("ij,jk,ik->i", X, cert.P, X)
                - np.einsum("ij,jk,ik->i", Y, supply.Q, Y)
                - 2.0 * np.einsum("ij,jk,ik->i", Y, supply.L, U)
                - np.einsum("ij,jk,ik->i", U, supply.R, U)
            )
            worst = float(np.max(lhs))
            if w[-1] <= 0:
                assert worst <= 1e-8 * scale
            else:
                assert worst > 1e-8 * scale
            checked += 1
        print("PASS criterion 6d: block/pointwise equivalence on 100 instances x 1000 samples")

    def test_closed_loop_dissipation_sampled(self):
        # 50 random interconnections: the composed supply inequality holds
        # pointwise for the block-diagonal storage
        rng = np.random.default_rng(5)
        built = 0
        while built < 50:
            lam = float(np.abs(rng.standard_normal())) + 0.2
            n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            r1 = int(rng.integers(1, 3))
            r2 = int(rng.integers(1, 3))
            A1, p1 = random_hyperbolic(rng, n1, lam)
            A2, p2 = random_hyperbolic(rng, n2, lam)
            c1 = construct_certificate(lti_model(A1), lam, p1)
            c2 = construct_certificate(lti_model(A2), lam, p2)
            B1 = rng.standard_normal((n1, r2))
            B2 = rng.standard_normal((n2, r1))
            C1 = rng.standard_normal((r1, n1))
            C1 *= np.sqrt(0.5 * c1.epsilon) / max(1.0, np.linalg.norm(C1, 2))
            C2 = rng.standard_normal((r2, n2))
            C2 *= np.sqrt(0.5 * c2.epsilon) / max(1.0, np.linalg.norm(C2, 2))
            sys1 = LtiSystem(A=A1, B=B1, C=C1, D=np.zeros((r1, r2)))
            sys2 = LtiSystem(A=A2, B=B2, C=C2, D=np.zeros((r2, r1)))
            s1 = supply_gain(min_gain(sys1, c1.P, lam) + 0.05, r1, r2)
            s2 = supply_gain(min_gain(sys2, c2.P, lam) + 0.05, r2, r1)
            coupling = _loop_coupling(sys1, sys2)
            loop = network((sys1, sys2), coupling)
            supply = network_supply((s1, s2), coupling)
            P = np.zeros((n1 + n2, n1 + n2))
            P[:n1, :n1] = c1.P
            P[n1:, n1:] = c2.P
            Z = rng.standard_normal((1000, loop.n + loop.m))
            X, V = Z[:, : loop.n], Z[:, loop.n :]
            Xdot = X @ loop.A.T + V @ loop.B.T
            Y = X @ loop.C.T
            lhs = (
                2.0 * np.einsum("ij,jk,ik->i", Xdot, P, X)
                + 2.0 * lam * np.einsum("ij,jk,ik->i", X, P, X)
                - np.einsum("ij,jk,ik->i", Y, supply.Q, Y)
                - 2.0 * np.einsum("ij,jk,ik->i", Y, supply.L, V)
                - np.einsum("ij,jk,ik->i", V, supply.R, V)
            )
            scale = max(1.0, float(np.max(np.abs(lhs))))
            assert float(np.max(lhs)) <= 1e-8 * scale
            built += 1
        print("PASS criterion 6e: closed-loop dissipation sampled on 50 interconnections")

    def test_inertia_congruence_invariance(self):
        # Sylvester's law on 200 random congruences with bounded conditioning
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            S = rng.standard_normal((n, n))
            S = 0.5 * (S + S.T)
            U, _ = np.linalg.qr(rng.standard_normal((n, n)))
            V, _ = np.linalg.qr(rng.standard_normal((n, n)))
            sing = rng.uniform(0.05, 20.0, size=n)
            T = U @ np.diag(sing) @ V.T
            assert np.linalg.cond(T) <= 1e3
            assert inertia_of(T.T @ S @ T).as_tuple() == inertia_of(S).as_tuple()
        print("PASS criterion 6f: inertia invariance under 200 congruences")

    def test_rk4_order(self, msd_c4):
        ref = expm(msd_c4.A, 1.0) @ np.array([1.0, 1.0])
        errors = []
        for dt in (2e-2, 1e-2, 5e-3):
            traj = integrate(msd_c4, [1.0, 1.0], t_end=1.0, dt=dt)
            errors.append(np.linalg.norm(traj.final_state - ref))
        assert 12.0 < errors[0] / errors[1] < 20.0
        assert 12.0 < errors[1] / errors[2] < 20.0
        print("PASS criterion 6g: integrator shows fourth-order convergence")
