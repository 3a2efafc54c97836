"""A certificate check validates each input once, where it enters, and solves its spectra in as few calls as
the block shapes allow, with every verdict bit what separate solves give."""

import numpy as np
import pytest

from conftest import lti_model, random_hyperbolic
from pdom import lti
from pdom import matrixcore as mc
from pdom import registry
from pdom.cones import QuadraticCone
from pdom.differential import Channel, LureSystem, check_diff_dissipativity, check_diff_dominance, cubic_saturated
from pdom.dissipativity import (
    DissipativityCertificate,
    SupplyRate,
    min_gain,
    supply_gain,
    supply_passivity,
    verify_dissipativity,
)
from pdom.errors import DimensionError, NumericalError
from pdom.interconnect import closed_loop_certificate
from pdom.lti import (
    DominanceCertificate,
    check_dominance,
    construct_certificate,
    dissipation_blocks,
    residual,
    vertex_family,
)
from pdom.policy import LMI_TOL, RECON_TOL, SPLIT_TOL


def _reference(sys, P, lam, p, epsilon, supply=None):
    """A verdict's columns computed with P and the block stack solved in separate ``sym_eigvals`` calls."""
    storage = mc.sym_eigvals(P)
    inertia = mc.Inertia.of_spectrum(storage)
    p = inertia.negative if p is None else p
    matrices = vertex_family(sys) if sys.channels else sys.A[None]
    R = residual(matrices, P, lam)
    stack = R if supply is None else dissipation_blocks(R, sys, P, supply, epsilon)
    eigenvalues = mc.sym_eigvals(stack)
    lmax = eigenvalues[:, -1]
    passed = (lmax <= (-epsilon if supply is None else 0.0) + LMI_TOL) & inertia.matches(p)
    witness = stack[lmax.argmax()] if inertia.matches(p) and not passed.all() else None
    split_ok = None
    if sys.channels:
        floor = 2.0 * SPLIT_TOL * abs(storage).max()
        if supply is None:
            lmin = eigenvalues[:, 0]
            delta = floor + RECON_TOL * np.maximum(abs(lmin), abs(lmax))
            negative, positive = lmax < -delta, lmin > delta
        else:
            delta = floor + RECON_TOL * mc.frobenius(R)
            negative, positive = mc.positive_definite(-R, delta), mc.positive_definite(R, delta)
        split_ok = lti._vertex_splits(matrices, lam, p, inertia, negative, positive)
    return inertia.as_tuple(), lmax, passed, split_ok, witness


def _bits(verdict):
    return (verdict.inertia.as_tuple(), verdict.lmax, verdict.vertex_passed, verdict.split_ok, verdict.witness_block)


def _assert_same_bits(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _storages(rng, P):
    """A valid storage, its negation, a random indefinite one and two rescalings."""
    n = P.shape[0]
    S = rng.standard_normal((n, n))
    return [P, -P, S + S.T, 1e-6 * P, 1e6 * P]


def _battery(seed=2024):
    """(model, rate, storages, supply): channel-free models (D != 0 on some) and Lur'e models with k <= 4."""
    rng = np.random.default_rng(seed)
    cases = []
    for n in range(1, 9):
        lam = float(rng.uniform(0.0, 1.0))
        A, p = random_hyperbolic(rng, n, lam)
        P = construct_certificate(lti_model(A), lam, p).P
        m = r = int(rng.integers(1, 3))
        D = rng.standard_normal((r, m)) if n % 2 else 0
        sys = lti.LtiSystem(A=A, B=rng.standard_normal((n, m)), C=rng.standard_normal((r, n)), D=D)
        supply = supply_passivity(r) if n % 3 else supply_gain(2.0, r, m)
        cases.append((sys, lam, _storages(rng, P), supply))
        if n >= 2:
            k = 1 + n % 4
            size = float(rng.choice([1e-3, 0.3]))
            channels = tuple(Channel(g=size * rng.standard_normal(n), h=rng.standard_normal(n),
                                     sigma=cubic_saturated(), alpha=-3.0, beta=1.0) for _ in range(k))
            lure = LureSystem(A=A, B=sys.B, C=sys.C, D=D, channels=channels)
            cases.append((lure, lam, _storages(rng, P), supply))
    return cases


class TestBitsOfOneSolve:
    """Every verdict column, the witness block and the margin equal what separate solves of P and the stack give."""

    def test_certificate_and_vertex_checks(self):
        outcomes = set()
        for sys, lam, storages, supply in _battery():
            for P in storages:
                right = mc.inertia_of(P).negative
                for p in {right, (right + 1) % (sys.n + 1)}:
                    for epsilon in (0.0, 1e-3):
                        dominance = check_dominance(sys, DominanceCertificate(P=P, rate=lam, epsilon=epsilon, p=p))
                        _assert_same_bits(_bits(dominance), _reference(sys, P, lam, p, epsilon))
                        cert = DissipativityCertificate(P=P, rate=lam, epsilon=epsilon, p=p, supply=supply)
                        dissipation = verify_dissipativity(sys, cert)
                        _assert_same_bits(_bits(dissipation), _reference(sys, P, lam, p, epsilon, supply))
                        outcomes.update({dominance.status, dissipation.status})
                if sys.channels and mc.inertia_of(P).zero == 0:
                    _assert_same_bits(_bits(check_diff_dominance(sys, P, lam)), _reference(sys, P, lam, None, 0.0))
                    _assert_same_bits(_bits(check_diff_dissipativity(sys, P, lam, supply)),
                                      _reference(sys, P, lam, None, 0.0, supply))
        assert outcomes == {"pass", "residual_violation", "inertia_mismatch"}

    def test_constructed_margin(self):
        rng = np.random.default_rng(77)
        for n in range(1, 13):
            lam = float(rng.uniform(0.0, 1.0))
            A, p = random_hyperbolic(rng, n, lam)
            cert = construct_certificate(lti_model(A), lam, p)
            _, lmax, passed, _, _ = _reference(lti_model(A), cert.P, lam, p, 0.0)
            assert passed.all() and cert.epsilon == -float(lmax[0]) / 2.0


@pytest.fixture
def symmetry_checks(monkeypatch):
    """Counts of ``as_symmetric`` calls and of all symmetry checks (``as_symmetric``'s included)."""
    counts = {"as_symmetric": 0, "checks": 0}
    as_symmetric, symmetrized = mc.as_symmetric, mc._symmetrized

    def count(name, original):
        def spy(*args):
            counts[name] += 1
            return original(*args)
        return spy

    monkeypatch.setattr(mc, "as_symmetric", count("as_symmetric", as_symmetric))
    monkeypatch.setattr(mc, "_symmetrized", count("checks", symmetrized))
    return counts


class TestEachInputCheckedOnce:
    """A check validates an input matrix at most once (a certificate's P when the certificate is built),
    and its one block stack once."""

    @pytest.mark.parametrize("channels", [False, True])
    def test_checks(self, symmetry_checks, channels):
        n = 3
        A = np.diag([1.0, -2.0, -3.0])
        chs = (Channel(g=[0.0, 0.1, 0.0], h=[1.0, 0.0, 0.0], sigma=cubic_saturated(), alpha=-3.0, beta=1.0),)
        sys = LureSystem(A=A, B=np.ones((n, 1)), C=np.ones((1, n)), channels=chs if channels else ())
        P, supply = np.diag([-1.0, 1.0, 1.0]), supply_passivity(1)
        dominance = DominanceCertificate(P=P, rate=0.5, epsilon=0.0, p=1)
        dissipation = DissipativityCertificate(P=P, rate=0.5, epsilon=0.0, p=1, supply=supply)
        for check, inputs in (
            (lambda: check_dominance(sys, dominance), 0),
            (lambda: verify_dissipativity(sys, dissipation), 0),
            (lambda: check_diff_dominance(sys, P, 0.5), 1),
            (lambda: check_diff_dissipativity(sys, P, 0.5, supply), 1),
        ):
            symmetry_checks.update(as_symmetric=0, checks=0)
            check()
            assert symmetry_checks == {"as_symmetric": inputs, "checks": inputs + 1}

    def test_construction(self, symmetry_checks, msd_c4):
        # the constructed storage is checked once, when its certificate is built, and the stack [P, R] once
        construct_certificate(msd_c4, 1.2679, 1)
        assert symmetry_checks == {"as_symmetric": 1, "checks": 2}

    def test_min_gain(self, symmetry_checks, msd_c8):
        # P once, where it enters; then M in sym_eigen and the Schur complement in sym_eigvals
        min_gain(msd_c8, registry.PASSIVITY_STORAGE_C8, registry.KNOWN_RATE)
        assert symmetry_checks == {"as_symmetric": 1, "checks": 3}

    def test_quadratic_cone(self, symmetry_checks):
        # P once, where it enters; the eigendecomposition kept for the boundary samples is taken from it as checked
        QuadraticCone(P=registry.KNOWN_STORAGE[4], p=1)
        assert symmetry_checks == {"as_symmetric": 1, "checks": 1}

    def test_closed_loop(self, symmetry_checks, msd_c8):
        # the loop supply's Q and R, its coupling form, each open-loop block stack, the loop's [P, R] stack,
        # and the returned certificate's P: that certificate is the one built
        cert = DissipativityCertificate(P=registry.PASSIVITY_STORAGE_C8, rate=registry.KNOWN_RATE, epsilon=0.0,
                                        p=1, supply=supply_passivity(1))
        symmetry_checks.update(as_symmetric=0, checks=0)
        loop = closed_loop_certificate(msd_c8, cert, msd_c8, cert)
        assert symmetry_checks == {"as_symmetric": 3, "checks": 7}
        assert loop.p == 2 and loop.epsilon > 0


def _asymmetric(P):
    P = P.copy()
    P[0, 1] += 1e-6  # beyond SYM_TOL * max(1, ||P||_F)
    return P


def _non_finite(P):
    P = P.copy()
    P[1, 1] = np.nan
    return P


class TestBoundaryRefusals:
    """Each public entry refuses a bad storage or claim where it enters, with the class it always raised."""

    SYS = lti.LtiSystem(A=np.diag([1.0, -2.0]), B=np.ones((2, 1)), C=np.ones((1, 2)))
    P = np.diag([-1.0, 1.0])
    ENTRIES = {
        "DominanceCertificate": lambda P, lam=0.0, p=1: DominanceCertificate(P=P, rate=lam, epsilon=0.0, p=p),
        "DissipativityCertificate": lambda P, lam=0.0, p=1: DissipativityCertificate(
            P=P, rate=lam, epsilon=0.0, p=p, supply=supply_passivity(1)),
        "check_diff_dominance": lambda P, lam=0.0: check_diff_dominance(TestBoundaryRefusals.SYS, P, lam),
        "check_diff_dissipativity": lambda P, lam=0.0: check_diff_dissipativity(
            TestBoundaryRefusals.SYS, P, lam, supply_passivity(1)),
        "residual": lambda P: residual(TestBoundaryRefusals.SYS.A, P, 0.0),
        "dissipation_blocks": lambda P: dissipation_blocks(
            np.zeros((1, 2, 2)), TestBoundaryRefusals.SYS, P, supply_passivity(1)),
        "min_gain": lambda P: min_gain(TestBoundaryRefusals.SYS, P, 0.0),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("bad, error", [
        (_asymmetric(P), DimensionError),
        (_non_finite(P), NumericalError),
        (np.ones((2, 3)), DimensionError),
    ], ids=["asymmetric", "non-finite", "not-square"])
    def test_bad_storage(self, entry, bad, error):
        with pytest.raises(error):
            self.ENTRIES[entry](bad)

    @pytest.mark.parametrize("entry", ["check_diff_dominance", "check_diff_dissipativity", "residual",
                                       "dissipation_blocks", "min_gain"])
    def test_storage_of_another_size(self, entry):
        with pytest.raises(DimensionError):
            self.ENTRIES[entry](np.diag([-1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("entry", ["DominanceCertificate", "DissipativityCertificate", "check_diff_dominance",
                                       "check_diff_dissipativity"])
    def test_true_rate(self, entry):
        with pytest.raises(ValueError, match="rate must be a number"):
            self.ENTRIES[entry](self.P, lam=True)

    def test_true_rate_in_construction(self, msd_c4):
        with pytest.raises(ValueError, match="rate must be a number"):
            construct_certificate(msd_c4, True, 1)

    def test_true_p_in_a_dissipativity_certificate(self):
        with pytest.raises(ValueError, match="integer"):
            self.ENTRIES["DissipativityCertificate"](self.P, p=True)

    @pytest.mark.parametrize("kind", ["dominance", "dissipativity"])
    def test_certificate_of_another_size(self, kind):
        # a certificate has no model to be sized for; the check it is given to refuses it
        cert = self.ENTRIES[f"{kind.capitalize()}Certificate"](np.diag([-1.0, 1.0, 1.0]))
        check = check_dominance if kind == "dominance" else verify_dissipativity
        with pytest.raises(DimensionError):
            check(self.SYS, cert)

    def test_supply_of_another_size(self):
        supply = SupplyRate(Q=np.zeros((2, 2)), L=np.eye(2), R=np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            check_diff_dissipativity(self.SYS, self.P, 0.0, supply)


class TestStoredMatrixOwned:
    """A certificate and a cone keep one read-only copy of P that no later write to the caller's array reaches."""

    @pytest.mark.parametrize("build", [
        lambda P: DominanceCertificate(P=P, rate=0.0, epsilon=0.0, p=1),
        lambda P: DissipativityCertificate(P=P, rate=0.0, epsilon=0.0, p=1, supply=supply_passivity(1)),
        lambda P: QuadraticCone(P=P, p=1),
    ], ids=["dominance", "dissipativity", "cone"])
    @pytest.mark.parametrize("skew", [0.0, 1e-12], ids=["symmetric", "near-symmetric"])
    def test_owned_and_read_only(self, build, skew):
        P = np.array([[-1.0, 0.5], [0.5 + skew, 2.0]])
        stored = build(P).P
        assert not stored.flags.writeable and not np.shares_memory(stored, P)
        before = stored.copy()
        P[0, 0] = 7.0
        assert np.array_equal(stored, before)
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0] = 1.0
